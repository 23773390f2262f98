"""The benchmark's workloads and the metrics they report.

Each workload drives the package's public functions through the stages a
user goes through: setup (synthetic world and traces), build (the offline
phase, lazily derived arrays included), io (map, GP grid and trace files),
online (one estimate per sliding window, for every technique the workload
runs) and, for ``rural-sweep``, the parameter sweeps.  Every timing is a
``time.perf_counter`` pair around one call into the package, taken by a
:class:`spans.Recorder`.  A correctness gate, which is not timed, follows
the stages.

All three workloads run in one process with one Python thread, and no
stage waits on another, so only busy time, counts and failures are
recorded.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import reference
from gsmloc import (
    DEFAULT_GRID_M,
    PRESET_GP_SPACING_M,
    PRESET_PARAMS,
    build_radio_map,
    cellid_locate,
    deterministic_locate,
    evaluate,
    fit_tower_models,
    generate_trace,
    gp_build_grid,
    gp_locate,
    hybrid_locate,
    load_grid,
    load_radio_map,
    make_preset,
    probabilistic_locate,
    project,
    read_trace,
    save_grid,
    save_radio_map,
    sweep_density,
    sweep_grid_length,
    sweep_tower_drop,
    write_trace,
)
from gsmloc.gp import default_hyper_grid
from spans import Recorder


@dataclass(frozen=True)
class Workload:
    preset: str
    techniques: tuple[str, ...]
    gp: bool = False
    sweeps: bool = False


HISTOGRAM_TECHNIQUES = ("probabilistic", "hybrid", "deterministic", "cellid")

WORKLOADS = {
    # The only workload where the GP layer works: GP fitting dominates its
    # build, and histogram scoring runs on a small, dense map (26% of
    # (cell, tower) pairs heard).
    "rural-gp": Workload("rural", HISTOGRAM_TECHNIQUES + ("gp",), gp=True),
    # Synthetic trace generation dominates set-up; the largest, sparsest
    # map (13% heard) and the longest window give the most scoring work.
    "urban-track": Workload("urban", HISTOGRAM_TECHNIQUES),
    # Rebuild-heavy use of the map: about ten maps built cold per round,
    # each evaluated once, next to the build-once, answer-many use above.
    "rural-sweep": Workload("rural", HISTOGRAM_TECHNIQUES, sweeps=True),
}

SPANS = {
    "probabilistic": "estimators.probabilistic_locate",
    "hybrid": "estimators.hybrid_locate",
    "deterministic": "estimators.deterministic_locate",
    "cellid": "estimators.cellid_locate",
    "gp": "gp.gp_locate",
}

SHORT = {
    "probabilistic": "prob",
    "hybrid": "hybrid",
    "deterministic": "det",
    "cellid": "cellid",
    "gp": "gp",
}

# Fixed repetition counts, so that two commits measure the same work.
#
# On a shared virtual machine (measured on 2 vCPUs) the same Python code
# alternates, for stretches of 0.1 to 3 s, between a fast state and one up
# to 1.7 times slower, thread CPU time included, so a median over
# repetitions flips between the two.  Build, io and sweep times are
# therefore the best of their repetitions, as timeit reports, and each
# estimator window's latency is the best of its calls, which the online
# phase spreads over the whole run in short slices.  build_s and io_s sum
# the best time of each call they are made of: a call of a few milliseconds
# can fall wholly within a fast stretch, a whole 0.4 s repetition rarely
# does.  Set-up time is the median of its repetitions.
SETUP_REPS = 3
BUILD_REPS = 60
GP_BUILD_REPS = 1  # the GP fit alone takes about 15 s
IO_REPS = 20
SWEEP_REPS = 3
SLICE_S = 0.02  # online time slice per technique, round-robin
MIN_PASSES = 2  # every window is timed at least twice
CHECK_WINDOWS = 25  # windows per technique compared with the brute-force reference

# Some rural worlds have a spot on the drive where no tower is audible, and
# generate_trace raises there (rural seeds 5, 11, 17, 25 and 39 below 40).
# Such a world cannot be driven, so the next candidate seed is used; the
# number rejected is reported as ``synth.worlds_rejected``.
WORLD_ATTEMPTS = 10
WORLD_SEED_STRIDE = 1_000_000

BUILD_PARTS = (
    "radiomap.build", "radiomap.loglik_table", "radiomap.centroids", "radiomap.mean_asu",
    "radiomap.point_arrays", "gp.fit", "geo.project", "gp.grid_build",
)
IO_PARTS = (
    "radiomap.save", "radiomap.load", "gp.save", "gp.load", "geo.write_trace", "geo.read_trace",
)

SWEEP_GRID_M = (50.0, 70.0, 90.0, 110.0)
SWEEP_KEEP = (0.25, 0.5, 1.0)
SWEEP_DROP = (0.0, 0.2, 0.4)


@dataclass
class Technique:
    """Online results of one technique over the windows of the test trace."""

    n_windows: int = 0
    calls: int = 0
    failed: int = 0
    busy_s: float = 0.0
    best_s: list[float] = field(default_factory=list)  # best latency per window
    estimates: list = field(default_factory=list)  # first estimate per window, None if failed
    errors_m: list[float] = field(default_factory=list)
    nondeterministic: int = 0
    first_error: str | None = None
    cursor: int = 0  # next window to estimate

    def __post_init__(self) -> None:
        self.best_s = [math.inf] * self.n_windows
        self.estimates = [None] * self.n_windows

    def visits(self, i: int) -> int:
        """Calls made on window ``i``; windows are visited in order, cyclically."""
        return self.calls // self.n_windows + (1 if i < self.calls % self.n_windows else 0)

    def latency_ms(self, q: float) -> float:
        """Percentile over windows of each window's best latency."""
        timed = [b for b in self.best_s if b < math.inf]
        return float(np.percentile(timed, q)) * 1e3 if timed else 0.0

    def error_m(self, q: float) -> float:
        return float(np.percentile(self.errors_m, q)) if self.errors_m else 0.0


class WorkloadRun:
    """One pass of a workload: its stages, its gate and what they measured."""

    def __init__(
        self,
        name: str,
        seed: int,
        seconds: float,
        rec: Recorder,
        workdir: str,
        calls: dict[str, int] | None = None,
    ) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.rec = rec
        self.workdir = workdir
        self.fixed_calls = calls
        self.world_seed = -1
        self.worlds_rejected = 0
        self.times: dict[str, list[float]] = {}  # per-repetition seconds by quantity
        self.counts: dict[str, float] = {}
        self.techniques: dict[str, Technique] = {}
        self.sweep_errors: dict[str, float] = {}
        self.checks = 0
        self.mismatches: list[str] = []
        self.tie_skips = 0
        self.wall_s = 0.0

    # -- helpers --------------------------------------------------------

    def _time(self, key: str, seconds: float) -> None:
        self.times.setdefault(key, []).append(seconds)

    def median_s(self, key: str) -> float:
        return statistics.median(self.times.get(key, [0.0]))

    def best_s(self, key: str) -> float:
        """Best repetition; 0 for a call the workload does not make."""
        return min(self.times.get(key, [0.0]))

    def _check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.mismatches.append(what)

    @property
    def attempted(self) -> int:
        return sum(t.calls for t in self.techniques.values()) + self.checks

    @property
    def failed(self) -> int:
        return (
            sum(t.failed + t.nondeterministic for t in self.techniques.values())
            + len(self.mismatches)
        )

    @property
    def correct(self) -> bool:
        return not self.mismatches and not any(
            t.nondeterministic for t in self.techniques.values()
        )

    # -- stages ---------------------------------------------------------

    def run(self) -> "WorkloadRun":
        t0 = time.perf_counter()
        with self.rec.span(f"workload.{self.name}"):
            with self.rec.span("stage.setup"):
                self._setup()
            with self.rec.span("stage.build"):
                self.map, self.models, self.grid = self._build_rep()
            self._model_counts()
            with self.rec.span("stage.io"):
                self._io_rep()
            with self.rec.span("stage.online"):
                self._online()
            if self.workload.sweeps:
                with self.rec.span("stage.sweep"):
                    self._sweep()
        self.wall_s = time.perf_counter() - t0
        self._gate()
        return self

    def _generate(self, world_seed: int):
        rec = self.rec
        (world, routes), t_make = rec.call(
            "synth.make_preset", make_preset, self.workload.preset, world_seed
        )
        train, t_train = rec.call("synth.generate_trace", generate_trace, world, routes["train"])
        test, t_test = rec.call("synth.generate_trace", generate_trace, world, routes["test"])
        self._time("synth.make_preset", t_make)
        self._time("synth.generate_trace.train", t_train)
        self._time("synth.generate_trace.test", t_test)
        self._time("setup", t_make + t_train + t_test)
        return world, train, test

    def _setup(self) -> None:
        for attempt in range(WORLD_ATTEMPTS):
            candidate = self.seed + attempt * WORLD_SEED_STRIDE
            try:
                generated = self._generate(candidate)
            except ValueError:  # a spot on the drive where no tower is audible
                self.worlds_rejected += 1
                continue
            self.world_seed = candidate
            break
        else:
            raise RuntimeError(f"no drivable {self.workload.preset} world in {WORLD_ATTEMPTS} seeds")
        self.trains = [generated[1]]
        for _ in range(SETUP_REPS - 1):
            generated = self._generate(self.world_seed)
            self.trains.append(generated[1])
        self.world, self.train, self.test = generated

        scans = len(self.train) + len(self.test)
        readings = sum(len(s.readings) for s in self.train + self.test)
        evals = scans * len(self.world.towers)
        gen_s = self.median_s("synth.generate_trace.train") + self.median_s(
            "synth.generate_trace.test"
        )
        self.counts.update(
            {
                "synth.scans": scans,
                "synth.scans_per_s": scans / gen_s,
                "synth.tower_evals": evals,
                "synth.useful_frac": readings / evals,
            }
        )

    def _build_rep(self):
        rec = self.rec
        preset = self.workload.preset
        smoothing = PRESET_PARAMS[preset]["probabilistic"].smoothing
        towers = self.world.tower_locations_geo()

        rm, t = rec.call(
            "radiomap.build_radio_map", build_radio_map, self.train, DEFAULT_GRID_M,
            tower_locations=towers,
        )
        self._time("radiomap.build", t)
        for key, span, method, args in (
            ("radiomap.loglik_table", "radiomap.log_likelihood_table", rm.log_likelihood_table,
             (smoothing,)),
            ("radiomap.centroids", "radiomap.centroid_array", rm.centroid_array, ()),
            ("radiomap.mean_asu", "radiomap.mean_asu_matrix", rm.mean_asu_matrix, ()),
        ):
            _, t = rec.call(span, method, *args)
            self._time(key, t)
        points_s = 0.0
        for cell_key in rm.cell_keys():
            _, t = rec.call("radiomap.cell_point_arrays", rm.cell_point_arrays, cell_key)
            points_s += t
        self._time("radiomap.point_arrays", points_s)

        models = grid = None
        if self.workload.gp:
            models, t_fit = rec.call("gp.fit_tower_models", fit_tower_models, self.train, rm.origin)
            planar, t_proj = rec.call(
                "geo.project", lambda: [project(rm.origin, s.truth) for s in self.train]
            )
            bounds = (
                min(p.x for p in planar),
                min(p.y for p in planar),
                max(p.x for p in planar),
                max(p.y for p in planar),
            )
            grid, t_grid = rec.call(
                "gp.gp_build_grid", gp_build_grid, models, bounds,
                PRESET_GP_SPACING_M[preset], rm.origin,
            )
            self._time("geo.project", t_proj)
            self._time("gp.fit", t_fit)
            self._time("gp.grid_build", t_grid)
        return rm, models, grid

    def _model_counts(self) -> None:
        rm = self.map
        n_cells, n_towers = rm.n_cells, len(rm.tower_ids)
        heard = sum(len(c.histograms) for c in rm.cells.values())
        smoothing = PRESET_PARAMS[self.workload.preset]["probabilistic"].smoothing
        self.counts.update(
            {
                "radiomap.cells": n_cells,
                "radiomap.towers": n_towers,
                "radiomap.points": sum(len(c.points) for c in rm.cells.values()),
                "radiomap.heard_pairs": heard,
                "radiomap.density": heard / (n_cells * n_towers),
                "radiomap.table_bytes": rm.log_likelihood_table(smoothing).nbytes,
            }
        )
        if self.models is not None:
            self.counts.update(
                {
                    "gp.towers_fit": len(self.models),
                    "gp.train_points": sum(m.n_training for m in self.models.values()),
                    "gp.lml_evals": len(self.models) * len(default_hyper_grid()),
                    "gp.grid_points": self.grid.n_points,
                }
            )

    def _io_rep(self) -> None:
        rec = self.rec
        map_path = os.path.join(self.workdir, "map.json")
        grid_path = os.path.join(self.workdir, "grid.json")
        trace_path = os.path.join(self.workdir, "test.csv")
        _, t_save = rec.call("radiomap.save_radio_map", save_radio_map, self.map, map_path)
        self.loaded_map, t_load = rec.call("radiomap.load_radio_map", load_radio_map, map_path)
        self._time("radiomap.save", t_save)
        self._time("radiomap.load", t_load)
        if self.grid is not None:
            _, t_gsave = rec.call("gp.save_grid", save_grid, self.grid, grid_path)
            self.loaded_grid, t_gload = rec.call("gp.load_grid", load_grid, grid_path)
            self._time("gp.save", t_gsave)
            self._time("gp.load", t_gload)
            self.counts["gp.json_bytes"] = os.path.getsize(grid_path)
        _, t_write = rec.call("geo.write_trace", write_trace, self.test, trace_path)
        self.loaded_test, t_read = rec.call("geo.read_trace", read_trace, trace_path)
        self._time("geo.write_trace", t_write)
        self._time("geo.read_trace", t_read)
        with open(map_path, "rb") as fh:
            self.map_json = fh.read()
        self.counts["radiomap.json_bytes"] = len(self.map_json)
        self.counts["geo.trace_bytes"] = os.path.getsize(trace_path)

    def _estimator(self, technique: str):
        rm, grid = self.map, self.grid
        params = PRESET_PARAMS[self.workload.preset][technique]
        return {
            "probabilistic": lambda w: probabilistic_locate(rm, w, params),
            "hybrid": lambda w: hybrid_locate(rm, w, params.k, params.smoothing),
            "deterministic": lambda w: deterministic_locate(rm, w, params),
            "cellid": lambda w: cellid_locate(rm, w[-1]),
            "gp": lambda w: gp_locate(grid, w),
        }[technique]

    def windows(self, technique: str) -> list:
        ns = PRESET_PARAMS[self.workload.preset][technique].n_samples
        return [self.test[max(0, i + 1 - ns) : i + 1] for i in range(len(self.test))]

    def _online(self) -> None:
        """Round-robin time slices over the techniques until each has had its
        share of ``seconds`` and MIN_PASSES passes (or, given fixed call
        counts, until each has made them).

        The remaining build and io repetitions run one per round, so that
        their best is taken over the whole phase rather than over one
        stretch of it.
        """
        self.truths = [project(self.map.origin, s.truth) for s in self.test]
        self._inputs = {t: (self._estimator(t), self.windows(t)) for t in self.workload.techniques}
        share = self.seconds / len(self.workload.techniques)
        build_left = (GP_BUILD_REPS if self.workload.gp else BUILD_REPS) - 1
        io_left = IO_REPS - 1
        active = []
        for technique in self.workload.techniques:
            res = Technique(n_windows=len(self.test))
            self.techniques[technique] = res
            target = self.fixed_calls[technique] if self.fixed_calls else None
            active.append((technique, res, target))
        while active or build_left or io_left:
            for technique, res, target in active:
                self._slice(technique, res, target)
            if build_left:
                with self.rec.span("stage.build"):
                    self._build_rep()
                build_left -= 1
            if io_left:
                with self.rec.span("stage.io"):
                    self._io_rep()
                io_left -= 1
            active = [
                (technique, res, target)
                for technique, res, target in active
                if (res.calls < target if target is not None
                    else res.busy_s < share or res.calls < MIN_PASSES * res.n_windows)
            ]
        for technique, res in self.techniques.items():
            res.errors_m = [
                est.location.distance_to(truth)
                for est, truth in zip(res.estimates, self.truths)
                if est is not None
            ]
            self._work_counts(technique, res)

    def _slice(self, technique: str, res: Technique, target: int | None) -> None:
        """Estimate windows in order from the cursor for SLICE_S seconds."""
        estimate, windows = self._inputs[technique]
        span = SPANS[technique]
        add = self.rec.add
        best, first = res.best_s, res.estimates
        end = time.perf_counter() + SLICE_S
        while True:
            i = res.cursor
            t0 = time.perf_counter()
            try:
                est = estimate(windows[i])
            except Exception as exc:  # a failed operation; the run goes on
                t1 = time.perf_counter()
                res.failed += 1
                res.first_error = res.first_error or f"{type(exc).__name__}: {exc}"
            else:
                t1 = time.perf_counter()
                if t1 - t0 < best[i]:
                    best[i] = t1 - t0
                if first[i] is None:
                    first[i] = est
                elif est.location != first[i].location:
                    res.nondeterministic += 1
            add(span, t0, t1)
            res.busy_s += t1 - t0
            res.calls += 1
            res.cursor = (i + 1) % len(windows)
            if t1 >= end or (target is not None and res.calls >= target):
                return

    def _work_counts(self, technique: str, res: Technique) -> None:
        """Work done, counted from the inputs and outputs only."""
        rm = self.map
        windows = self.windows(technique)
        done = [
            (w, est, res.visits(i))
            for i, (w, est) in enumerate(zip(windows, res.estimates))
            if est is not None
        ]
        if technique == "probabilistic":
            cells_heard: dict[str, int] = {}
            for cell in rm.cells.values():
                for tower_id in cell.histograms:
                    cells_heard[tower_id] = cells_heard.get(tower_id, 0) + 1
            readings = sum(v * len(s.readings) for w, _, v in done for s in w)
            useful = sum(v * cells_heard.get(r, 0) for w, _, v in done for s in w for r in s.readings)
            unknown = sum(v for w, _, v in done for s in w for r in s.readings if r not in cells_heard)
            updates = readings * rm.n_cells
            self.counts["estimators.prob.cell_updates"] = updates
            self.counts["estimators.prob.useful_frac"] = useful / updates if updates else 0.0
            self.counts["estimators.prob.unknown_readings"] = unknown
        elif technique == "hybrid":
            self.counts["estimators.hybrid.points_compared"] = sum(
                v * len(rm.cells[est.contributing_cells[0][0]].points) for _, est, v in done
            )
        elif technique == "deterministic":
            self.counts["estimators.det.cells_compared"] = rm.n_cells * sum(v for _, _, v in done)
        elif technique == "gp":
            self.counts["gp.point_updates"] = self.grid.n_points * sum(
                v for w, _, v in done for s in w for r in s.readings if r in self.grid.means
            )

    def _sweep(self) -> None:
        rec = self.rec
        params = PRESET_PARAMS[self.workload.preset]["probabilistic"]
        first: dict[str, float] | None = None
        for _ in range(SWEEP_REPS):
            grid_reports, t_grid = rec.call(
                "bench.sweep_grid_length", sweep_grid_length, self.train, self.test,
                SWEEP_GRID_M, params=params,
            )
            keep_reports, t_keep = rec.call(
                "bench.sweep_density", sweep_density, self.train, self.test, SWEEP_KEEP,
                grid_length=DEFAULT_GRID_M, params=params, base_seed=self.world_seed,
            )
            drop_reports, t_drop = rec.call(
                "bench.sweep_tower_drop", sweep_tower_drop, self.map, self.test, SWEEP_DROP,
                params=params, base_seed=self.world_seed,
            )
            self._time("bench.sweep_grid_length", t_grid)
            self._time("bench.sweep_density", t_keep)
            self._time("bench.sweep_tower_drop", t_drop)
            self._time("sweep", t_grid + t_keep + t_drop)
            errors = {}
            for label, values, reports in (
                ("grid", SWEEP_GRID_M, grid_reports),
                ("keep", SWEEP_KEEP, keep_reports),
                ("drop", SWEEP_DROP, drop_reports),
            ):
                for value, report in zip(values, reports):
                    errors[f"bench.{label}_{value:g}.err_m_p50"] = report.median_error_m
            if first is None:
                first = errors
            else:
                self._check(errors == first, "sweep reports differ between rounds")
        self.sweep_errors = first
        n_towers = len(self.map.tower_ids)
        self.counts["bench.maps_built"] = SWEEP_REPS * (
            len(SWEEP_GRID_M)
            + len(SWEEP_KEEP)
            + sum(1 for f in SWEEP_DROP if round(f * n_towers) > 0)
        )

    # -- correctness gate (not timed) ------------------------------------

    def _gate(self) -> None:
        self._gate_persistence()
        self._gate_reference()
        self._gate_evaluate()
        if self.workload.sweeps:
            # Grid 70 m, keep 1.0 and drop 0.0 rebuild (or keep) the online map.
            prob = self.techniques["probabilistic"].error_m(50)
            for key in ("bench.grid_70.err_m_p50", "bench.keep_1.err_m_p50", "bench.drop_0.err_m_p50"):
                self._check(self.sweep_errors[key] == prob, f"{key} differs from the online error")

    def _gate_persistence(self) -> None:
        self._check(self.loaded_map == self.map, "loaded radio map differs from the built one")
        self._check(self.loaded_test == self.test, "read trace differs from the written one")
        if self.grid is not None:
            a, b = self.grid, self.loaded_grid
            same = (
                np.array_equal(a.points, b.points)
                and a.towers == b.towers
                and a.noise_vars == b.noise_vars
                and all(np.array_equal(a.means[t], b.means[t]) for t in a.towers)
                and all(np.array_equal(a.variances[t], b.variances[t]) for t in a.towers)
            )
            self._check(same, "loaded GP grid arrays differ from the built ones")
        towers = self.world.tower_locations_geo()
        for i, train in enumerate(self.trains[:2]):
            path = os.path.join(self.workdir, f"rebuild{i}.json")
            save_radio_map(build_radio_map(train, DEFAULT_GRID_M, tower_locations=towers), path)
            with open(path, "rb") as fh:
                same = fh.read() == self.map_json
            self._check(same, f"map rebuilt from set-up {i} saves different JSON")

    def _gate_reference(self) -> None:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 7]))
        sample = sorted(rng.choice(len(self.test), size=min(CHECK_WINDOWS, len(self.test)), replace=False))
        preset = self.workload.preset
        means = reference.cell_mean_asu(self.map)
        refs = {
            "probabilistic": lambda w, p: reference.probabilistic(self.map, w, p),
            "hybrid": lambda w, p: reference.hybrid(self.map, w, p),
            "deterministic": lambda w, p: reference.deterministic(self.map, w, p, means),
        }
        for technique, ref in refs.items():
            params = PRESET_PARAMS[preset][technique]
            windows = self.windows(technique)
            estimates = self.techniques[technique].estimates
            for i in sample:
                if estimates[i] is None:
                    continue  # already counted as a failed call
                expected = ref(windows[i], params)
                if expected is None:
                    self.tie_skips += 1
                    continue
                got = estimates[i].location
                self._check(
                    abs(got.x - expected[0]) <= 1e-6 and abs(got.y - expected[1]) <= 1e-6,
                    f"{technique} window {i}: ({got.x}, {got.y}) vs reference {expected}",
                )

    def _gate_evaluate(self) -> None:
        """The online loop's accuracy must equal what bench.evaluate reports."""
        for technique, res in self.techniques.items():
            if res.failed:
                continue  # evaluate stops at the first error
            model = self.grid if technique == "gp" else self.map
            params = PRESET_PARAMS[self.workload.preset][technique]
            report = evaluate(model, self.test, technique, params, time_repeats=1)
            self._check(
                report.median_error_m == res.error_m(50) and report.p95_error_m == res.error_m(95),
                f"{technique}: evaluate reports {report.median_error_m}/{report.p95_error_m} m",
            )

    # -- metrics ----------------------------------------------------------

    def end_to_end(self, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
        prob = self.techniques["probabilistic"]
        hybrid = self.techniques["hybrid"]
        det = self.techniques["deterministic"]
        return {
            "setup_s": (self.median_s("setup"), "s"),
            "build_s": (sum(self.best_s(k) for k in BUILD_PARTS), "s"),
            "prob.ms_p50": (prob.latency_ms(50), "ms"),
            "hybrid.ms_p50": (hybrid.latency_ms(50), "ms"),
            "det.ms_p50": (det.latency_ms(50), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Layer metrics; 0 where the workload does not use the layer."""
        out: dict[str, tuple[float, str]] = {}
        count = lambda key: float(self.counts.get(key, 0))  # noqa: E731

        out["synth.make_preset_s"] = (self.median_s("synth.make_preset"), "s")
        out["synth.generate_trace.train_s"] = (self.median_s("synth.generate_trace.train"), "s")
        out["synth.generate_trace.test_s"] = (self.median_s("synth.generate_trace.test"), "s")
        out["synth.scans"] = (count("synth.scans"), "count")
        out["synth.scans_per_s"] = (count("synth.scans_per_s"), "1/s")
        out["synth.tower_evals"] = (count("synth.tower_evals"), "count")
        out["synth.useful_frac"] = (count("synth.useful_frac"), "ratio")
        out["synth.worlds_rejected"] = (float(self.worlds_rejected), "count")

        out["io_s"] = (sum(self.best_s(k) for k in IO_PARTS), "s")
        out["geo.write_trace_s"] = (self.best_s("geo.write_trace"), "s")
        out["geo.read_trace_s"] = (self.best_s("geo.read_trace"), "s")
        out["geo.trace_bytes"] = (count("geo.trace_bytes"), "B")

        for key in ("build", "loglik_table", "mean_asu", "point_arrays", "save", "load"):
            out[f"radiomap.{key}_s"] = (self.best_s(f"radiomap.{key}"), "s")
        out["radiomap.json_bytes"] = (count("radiomap.json_bytes"), "B")
        for key in ("cells", "towers", "points", "heard_pairs"):
            out[f"radiomap.{key}"] = (count(f"radiomap.{key}"), "count")
        out["radiomap.density"] = (count("radiomap.density"), "ratio")
        out["radiomap.table_bytes"] = (count("radiomap.table_bytes"), "B")

        for technique in ("probabilistic", "hybrid", "deterministic", "cellid", "gp"):
            res = self.techniques.get(technique, Technique())
            prefix = "gp" if technique == "gp" else f"estimators.{SHORT[technique]}"
            out[f"{prefix}.calls"] = (float(res.calls), "count")
            out[f"{prefix}.failed"] = (float(res.failed), "count")
            out[f"{prefix}.busy_s"] = (res.busy_s, "s")
            for q in (50, 95, 98):
                out[f"{prefix}.ms_p{q}"] = (res.latency_ms(q), "ms")
            for q in (50, 95):
                out[f"{prefix}.err_m_p{q}"] = (res.error_m(q), "m")
        out["estimators.prob.cell_updates"] = (count("estimators.prob.cell_updates"), "count")
        out["estimators.prob.useful_frac"] = (count("estimators.prob.useful_frac"), "ratio")
        out["estimators.prob.unknown_readings"] = (count("estimators.prob.unknown_readings"), "count")
        out["estimators.hybrid.points_compared"] = (count("estimators.hybrid.points_compared"), "count")
        out["estimators.det.cells_compared"] = (count("estimators.det.cells_compared"), "count")

        out["gp.fit_s"] = (self.best_s("gp.fit"), "s")
        out["gp.grid_build_s"] = (self.best_s("gp.grid_build"), "s")
        out["gp.save_s"] = (self.best_s("gp.save"), "s")
        out["gp.load_s"] = (self.best_s("gp.load"), "s")
        for key in ("towers_fit", "train_points", "lml_evals", "grid_points", "point_updates"):
            out[f"gp.{key}"] = (count(f"gp.{key}"), "count")
        out["gp.json_bytes"] = (count("gp.json_bytes"), "B")

        out["bench.sweep_s"] = (self.best_s("sweep"), "s")
        for key in ("sweep_grid_length", "sweep_density", "sweep_tower_drop"):
            out[f"bench.{key}_s"] = (self.best_s(f"bench.{key}"), "s")
        out["bench.maps_built"] = (count("bench.maps_built"), "count")
        for label, values in (("grid", SWEEP_GRID_M), ("keep", SWEEP_KEEP), ("drop", SWEEP_DROP)):
            for value in values:
                key = f"bench.{label}_{value:g}.err_m_p50"
                out[key] = (self.sweep_errors.get(key, 0.0), "m")
        return out
