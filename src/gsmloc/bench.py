"""Benchmark harness: error metrics, per-estimate timing, parameter sweeps.

An evaluation slides a window of up to ``n_samples`` consecutive scans
(stride 1) over a ground-truthed test trace.  Each window yields one
estimate, whose planar error is measured against the truth of the window's
last scan, the freshest position.  Per-estimate wall-clock time is the
median of repeated calls to the estimate alone (no I/O, no map loading),
and the report aggregates the error CDF, median, 95th percentile and mean
time.

Sweeps rebuild or re-evaluate per parameter value on fixed seeds, one
report row per value; randomized configurations derive their seed from
(base seed, configuration index) so results are order-independent.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .estimators import (
    EstimatorParams,
    LocationEstimate,
    cellid_locate,
    deterministic_locate,
    hybrid_locate,
    probabilistic_locate,
)
from .geo import GeoPoint, ScanVector, project
from .gp import PrecomputedGrid, gp_locate
from .radiomap import RadioMap, ablate_towers, build_radio_map

REPORT_HEADER = ("technique", "grid_m", "ns", "k", "median_err_m", "p95_err_m", "mean_ms")
CDF_HEADER = ("error_m", "cum_frac")

#: Best-performing configuration per synthetic preset, found by sweeping the
#: presets themselves: grid 70 m throughout; the faster rural drive favors a
#: shorter window.  The hybrid technique always scores cells with a single
#: fresh scan, that is its defining trade.
DEFAULT_GRID_M = 70.0
PRESET_PARAMS: dict[str, dict[str, EstimatorParams]] = {
    "rural": {
        "probabilistic": EstimatorParams(n_samples=4, k=2),
        "hybrid": EstimatorParams(n_samples=1, k=1),
        "deterministic": EstimatorParams(n_samples=4, k=8),
        "gp": EstimatorParams(n_samples=4, k=1),
        "cellid": EstimatorParams(n_samples=1, k=1),
    },
    "urban": {
        "probabilistic": EstimatorParams(n_samples=6, k=2),
        "hybrid": EstimatorParams(n_samples=1, k=1),
        "deterministic": EstimatorParams(n_samples=6, k=6),
        "gp": EstimatorParams(n_samples=6, k=1),
        "cellid": EstimatorParams(n_samples=1, k=1),
    },
}

#: Calls per window in :func:`evaluate` and the sweeps; the median is timed.
TIME_REPEATS = 3

#: GP lattice spacing per preset, sized so the precomputed point count lands
#: near one thousand (rural) and six hundred (urban).
PRESET_GP_SPACING_M = {"rural": 42.0, "urban": 87.0}


def preset_params(preset: str, technique: str) -> EstimatorParams:
    """Tuned defaults for a (preset, technique) pair."""
    try:
        return PRESET_PARAMS[preset][technique]
    except KeyError:
        raise ValueError(f"no tuned defaults for {technique!r} on {preset!r}") from None


@dataclass(frozen=True)
class EvalReport:
    """Accuracy and runtime of one technique under one configuration."""

    technique: str
    grid_m: float
    n_samples: int
    k: int
    median_error_m: float
    p95_error_m: float
    mean_time_per_estimate_ms: float
    error_cdf: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        fracs = [f for _, f in self.error_cdf]
        errs = [e for e, _ in self.error_cdf]
        if fracs and (fracs[-1] != 1.0 or any(b < a for a, b in zip(fracs, fracs[1:]))):
            raise ValueError("error CDF must be non-decreasing and end at 1.0")
        if any(b < a for a, b in zip(errs, errs[1:])):
            raise ValueError("error CDF abscissae must be sorted")


#: Every technique by name, as ``(model, window, params) -> LocationEstimate``.
#: GP takes a :class:`PrecomputedGrid`, the others a :class:`RadioMap`;
#: cell-ID places the window by its last (freshest) scan.
TECHNIQUES: dict[str, Callable[..., LocationEstimate]] = {
    "probabilistic": probabilistic_locate,
    "hybrid": lambda m, window, p: hybrid_locate(m, window, p.k, p.smoothing),
    "deterministic": deterministic_locate,
    "gp": lambda m, window, p: gp_locate(m, window),
    "cellid": lambda m, window, p: cellid_locate(m, window[-1]),
}


def window_at(scans: Sequence[ScanVector], i: int, n_samples: int) -> Sequence[ScanVector]:
    """The sliding window that ends at scan ``i``: up to ``n_samples`` scans."""
    return scans[max(0, i + 1 - n_samples) : i + 1]


def evaluate(
    model: RadioMap | PrecomputedGrid,
    test_scans: Sequence[ScanVector],
    technique: str | Callable,
    params: EstimatorParams = EstimatorParams(),
    *,
    time_repeats: int = TIME_REPEATS,
) -> EvalReport:
    """Run one technique over a test trace and aggregate an :class:`EvalReport`.

    ``technique`` is one of :data:`TECHNIQUES` or a callable
    ``(model, window) -> LocationEstimate`` for custom estimators.  Every
    test scan must carry ground truth.  Windows at the start of the trace
    are shorter than ``n_samples``; tracking produces an estimate from the
    first scan on.
    """
    if not test_scans:
        raise ValueError("empty test set")
    for scan in test_scans:
        if scan.truth is None:
            raise ValueError(f"test scan at t={scan.timestamp} has no ground truth")
    if callable(technique):
        locate = lambda m, window, p: technique(m, window)
    elif technique in TECHNIQUES:
        locate = TECHNIQUES[technique]
    else:
        raise ValueError(f"unknown technique {technique!r}; expected one of {tuple(TECHNIQUES)}")
    origin = model.origin

    errors: list[float] = []
    times_s: list[float] = []
    for i in range(len(test_scans)):
        window = list(window_at(test_scans, i, params.n_samples))
        reps = []
        est = None
        for _ in range(max(1, time_repeats)):
            t0 = time.perf_counter()
            est = locate(model, window, params)
            reps.append(time.perf_counter() - t0)
        truth = project(origin, test_scans[i].truth)
        errors.append(est.location.distance_to(truth))
        times_s.append(statistics.median(reps))

    ordered = sorted(errors)
    n = len(ordered)
    cdf = tuple((float(e), (j + 1) / n) for j, e in enumerate(ordered))
    grid_m = model.grid_length if isinstance(model, RadioMap) else model.spacing
    name = technique if isinstance(technique, str) else getattr(technique, "__name__", "custom")
    return EvalReport(
        technique=name,
        grid_m=float(grid_m),
        n_samples=params.n_samples,
        k=params.k,
        median_error_m=float(np.percentile(ordered, 50)),
        p95_error_m=float(np.percentile(ordered, 95)),
        mean_time_per_estimate_ms=1e3 * sum(times_s) / n,
        error_cdf=cdf,
    )


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------


def _config_seed(base_seed: int, i: int) -> int:
    """The seed of configuration ``i``: a function of (base seed, i) alone."""
    return int(np.random.SeedSequence([base_seed, i]).generate_state(1)[0])


def _sweep(
    runs: Iterable[tuple[RadioMap, EstimatorParams]],
    test_scans: Sequence[ScanVector],
    technique: str | Callable,
    time_repeats: int,
) -> list[EvalReport]:
    """Evaluate each (map, params) pair as ``runs`` yields it, one report each."""
    reports = [evaluate(m, test_scans, technique, p, time_repeats=time_repeats) for m, p in runs]
    if not reports:
        raise ValueError("a sweep needs at least one value")
    return reports


def sweep_grid_length(
    train_scans: Sequence[ScanVector],
    test_scans: Sequence[ScanVector],
    grid_lengths: Sequence[float],
    *,
    params: EstimatorParams = EstimatorParams(),
    technique: str | Callable = "probabilistic",
    origin: GeoPoint | None = None,
    tower_locations: Mapping[str, GeoPoint] | None = None,
    time_repeats: int = TIME_REPEATS,
) -> list[EvalReport]:
    """Rebuild the map at each grid length and evaluate on the same trace."""
    runs = ((build_radio_map(train_scans, g, origin=origin, tower_locations=tower_locations),
             params) for g in grid_lengths)
    return _sweep(runs, test_scans, technique, time_repeats)


def sweep_params(
    radio_map: RadioMap,
    test_scans: Sequence[ScanVector],
    configs: Sequence[EstimatorParams],
    *,
    technique: str | Callable = "probabilistic",
    time_repeats: int = TIME_REPEATS,
) -> list[EvalReport]:
    """Evaluate one map under each estimator configuration, one report each."""
    return _sweep(((radio_map, p) for p in configs), test_scans, technique, time_repeats)


def sweep_tower_drop(
    radio_map: RadioMap,
    test_scans: Sequence[ScanVector],
    drop_fractions: Sequence[float],
    *,
    params: EstimatorParams = EstimatorParams(),
    technique: str | Callable = "probabilistic",
    base_seed: int = 0,
    time_repeats: int = TIME_REPEATS,
) -> list[EvalReport]:
    """Evaluate maps with a random subset of towers removed."""
    runs = ((ablate_towers(radio_map, f, _config_seed(base_seed, i)), params)
            for i, f in enumerate(drop_fractions))
    return _sweep(runs, test_scans, technique, time_repeats)


def sweep_density(
    train_scans: Sequence[ScanVector],
    test_scans: Sequence[ScanVector],
    keep_fractions: Sequence[float],
    *,
    grid_length: float,
    params: EstimatorParams = EstimatorParams(),
    technique: str | Callable = "probabilistic",
    origin: GeoPoint | None = None,
    tower_locations: Mapping[str, GeoPoint] | None = None,
    base_seed: int = 0,
    time_repeats: int = TIME_REPEATS,
) -> list[EvalReport]:
    """Thin the training trace before the map build and evaluate each map."""
    runs = ((build_radio_map(thin_fingerprint(train_scans, f, _config_seed(base_seed, i)),
                             grid_length, origin=origin, tower_locations=tower_locations), params)
            for i, f in enumerate(keep_fractions))
    return _sweep(runs, test_scans, technique, time_repeats)


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------


def thin_fingerprint(
    scans: Sequence[ScanVector], keep_fraction: float, seed: int
) -> list[ScanVector]:
    """Seeded uniform subsample of training scans (time order preserved)."""
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")
    n_keep = int(round(keep_fraction * len(scans)))
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(len(scans), size=n_keep, replace=False))
    return [scans[i] for i in idx]


# ---------------------------------------------------------------------------
# Plot-ready CSV output
# ---------------------------------------------------------------------------


def report_row(r: EvalReport) -> list:
    """A report as one CSV row under :data:`REPORT_HEADER` (floats via repr)."""
    return [
        r.technique,
        repr(r.grid_m),
        r.n_samples,
        r.k,
        repr(r.median_error_m),
        repr(r.p95_error_m),
        repr(r.mean_time_per_estimate_ms),
    ]


def write_report_csv(reports: Sequence[EvalReport], path: str) -> None:
    """One row per configuration: technique,grid_m,ns,k,median,p95,mean_ms."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_HEADER)
        writer.writerows(report_row(r) for r in reports)


def write_cdf_csv(report: EvalReport, path: str) -> None:
    """The report's error CDF as ``error_m,cum_frac`` rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CDF_HEADER)
        for error_m, frac in report.error_cdf:
            writer.writerow([repr(error_m), repr(frac)])
