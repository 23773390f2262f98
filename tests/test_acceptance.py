"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Numbered criteria:
  1  exact ASU/dBm conversion table and round trip
  2  oracle equivalence of all four estimators on 200 random instances
  3  probabilistic correctness (likelihood normalization, log vs
     probability domain, shift invariance of argmax/top-K)
  4  GP numerics against a naive dense oracle (4a: preset fit selects the grid max)
  5  accuracy ordering of the techniques on the rural preset
  6  parameter trends (grid length, K, tower density, fingerprint density)
  7  runtime contract (hybrid cheaper, GP much dearer than probabilistic)
  8  probabilistic estimator time grows at most linearly in the cell count
  9  determinism and persistence round trips (9a: every pinned digest, on
     this CPU's kernels and on others)
"""

import dataclasses
import math
import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import estimate_digests
from gsmloc.bench import (
    PRESET_PARAMS,
    ablate_towers,
    evaluate,
    thin_fingerprint,
)
from gsmloc.estimators import (
    EstimatorParams,
    cell_log_posterior,
    deterministic_locate,
    hybrid_locate,
    probabilistic_locate,
)
from gsmloc.geo import (
    PlanarPoint,
    ScanVector,
    asu_to_dbm,
    dbm_to_asu,
    project,
    write_trace,
)
from gsmloc.gp import (
    GpHyperparams,
    default_hyper_grid,
    fit_tower_models,
    gp_build_grid,
    gp_fit,
    gp_locate,
    gp_log_marginal_likelihood,
    gp_predict,
)
from gsmloc.radiomap import (
    SmoothingParams,
    build_radio_map,
    load_radio_map,
    save_radio_map,
)
from gsmloc.synth import SynthWorld, Tower, generate_trace, make_preset, scan_at
from oracles import (
    boundary_tie,
    brute_deterministic,
    brute_gp_locate,
    brute_hybrid,
    brute_probabilistic,
    brute_rssi_distance,
    cell_probabilities,
    deterministic_distances,
    likelihood_from_counts,
    map_cells,
    naive_gp_posterior,
    naive_log_marginal,
    random_instance,
)

SEED = 0


@contextmanager
def criterion(number, summary):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL  {summary}  ({time.monotonic() - t0:.1f}s)", flush=True)
        raise
    print(f"[criterion {number}] PASS  {summary}  ({time.monotonic() - t0:.1f}s)", flush=True)


# ---------------------------------------------------------------------------
# Shared heavy fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def rural():
    world, routes = make_preset("rural", seed=SEED)
    train = generate_trace(world, routes["train"])
    test = generate_trace(world, routes["test"])
    radio_map = build_radio_map(train, 70.0, tower_locations=world.tower_locations_geo())
    return world, train, test, radio_map


@pytest.fixture(scope="session")
def timing_bed():
    """A full-coverage 70 m map (~1000 cells) plus a ~1200-point GP grid."""
    side = 2220.0
    rng = np.random.default_rng(7)
    towers = tuple(
        Tower(f"T{i:03d}", PlanarPoint(rng.uniform(0, side), rng.uniform(0, side)),
              -34.0 + rng.uniform(-12, 12))
        for i in range(60)
    )
    world = SynthWorld(
        (0, 0, side, side), towers, seed=7, measurement_noise_db=4.5,
        shadow_grid_spacing=60.0,
    )
    grid_rng = np.random.default_rng(1)
    pts = [PlanarPoint(x, y) for y in np.arange(20, side, 35.0) for x in np.arange(20, side, 35.0)]
    scans = [
        scan_at(world, p, float(i), noise_rng=grid_rng)
        for i, p in enumerate(pts)
    ]
    radio_map = build_radio_map(scans, 70.0)
    models = fit_tower_models(scans, radio_map.origin, max_points=300)
    planar = [project(radio_map.origin, s.truth) for s in scans]
    bounds = (
        min(p.x for p in planar), min(p.y for p in planar),
        max(p.x for p in planar), max(p.y for p in planar),
    )
    gp_grid = gp_build_grid(models, bounds, 63.0, radio_map.origin)

    drive_rng = np.random.default_rng(2)
    drive = [PlanarPoint(50 + 8.0 * i, side / 2) for i in range(150)]
    drive_scans = [
        scan_at(world, p, float(i), noise_rng=drive_rng)
        for i, p in enumerate(drive)
    ]
    return world, radio_map, gp_grid, drive_scans


def _median_call_ms(fn, windows, n):
    fn(windows[5])  # warm caches so offline precomputation is not timed
    times = []
    for w in windows[:n]:
        t0 = time.perf_counter()
        fn(w)
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


# ---------------------------------------------------------------------------
# 1. Exact conversions
# ---------------------------------------------------------------------------


def test_criterion_1_conversions():
    with criterion(1, "ASU/dBm conversions exact on all 32 values, round trip exact"):
        t0 = time.monotonic()
        for asu in range(32):
            assert asu_to_dbm(asu) == 2 * asu - 113
            assert dbm_to_asu(asu_to_dbm(asu)) == asu
        assert dbm_to_asu(-113.0) == 0
        assert dbm_to_asu(-51.0) == 31
        assert dbm_to_asu(-1000.0) == 0
        assert dbm_to_asu(1000.0) == 31
        assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2. Oracle equivalence on 200 randomized instances per estimator
# ---------------------------------------------------------------------------


def _random_gp_instance(rng):
    hyper = GpHyperparams(100.0, float(rng.uniform(2, 8)), float(rng.uniform(80, 200)))
    models = {}
    for tid in ("A", "B"):
        x = rng.uniform(0, 400, size=(int(rng.integers(5, 25)), 2))
        y = 15 + 8 * np.sin(x[:, 0] / 130.0) + rng.normal(0, 1.0, size=len(x))
        models[tid] = gp_fit(x, np.clip(y, 0, 31), [hyper])
    from conftest import ORIGIN

    grid = gp_build_grid(models, (0.0, 0.0, 400.0, 400.0), 200.0, ORIGIN)  # 9 points
    window = []
    for j in range(int(rng.integers(1, 3))):
        point = grid.points[rng.integers(0, grid.n_points)]
        readings = {}
        for tid in ("A", "B"):
            mean, _ = gp_predict(models[tid], PlanarPoint(*point))
            readings[tid] = int(np.clip(round(mean + rng.normal(0, 2)), 0, 31))
        window.append(ScanVector(float(j), readings))
    return grid, window


def test_criterion_2_oracle_equivalence():
    with criterion(2, "four estimators match brute-force oracles on 200 instances each"):
        t0 = time.monotonic()
        sm = SmoothingParams()
        rng = np.random.default_rng(1234)

        checked = 0
        while checked < 200:
            rm, window = random_instance(rng)
            k = int(rng.integers(1, 4))
            if boundary_tie(cell_probabilities(rm, window, sm), k, descending=True):
                continue
            est = probabilistic_locate(rm, window, EstimatorParams(n_samples=4, k=k, smoothing=sm))
            bx, by = brute_probabilistic(rm, window, k, sm)
            assert math.hypot(est.location.x - bx, est.location.y - by) < 1e-9
            checked += 1

        checked = 0
        while checked < 200:
            rm, window = random_instance(rng)
            k = int(rng.integers(1, 4))
            if boundary_tie(cell_probabilities(rm, [window[-1]], sm), 1, descending=True):
                continue
            est = hybrid_locate(rm, window, k, sm)
            key = est.contributing_cells[0][0]
            dists = {
                i: brute_rssi_distance(readings, window[-1].readings)
                for i, (_, _, readings) in enumerate(map_cells(rm)[key]["points"])
            }
            if boundary_tie(dists, k, descending=False):
                continue
            bx, by = brute_hybrid(rm, window, k, sm)
            assert math.hypot(est.location.x - bx, est.location.y - by) < 1e-9
            checked += 1

        checked = 0
        while checked < 200:
            rm, window = random_instance(rng)
            k = int(rng.integers(1, 4))
            if boundary_tie(deterministic_distances(rm, window), k, descending=False):
                continue
            est = deterministic_locate(rm, window, EstimatorParams(n_samples=4, k=k))
            bx, by = brute_deterministic(rm, window, k)
            assert math.hypot(est.location.x - bx, est.location.y - by) < 1e-9
            checked += 1

        checked = 0
        while checked < 200:
            grid, window = _random_gp_instance(rng)
            est = gp_locate(grid, window)
            bx, by = brute_gp_locate(grid, window)
            assert math.hypot(est.location.x - bx, est.location.y - by) < 1e-9
            checked += 1

        assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 3. Probabilistic correctness
# ---------------------------------------------------------------------------


@settings(max_examples=1000, deadline=None)
@given(
    scores=st.lists(
        st.integers(min_value=-4000, max_value=0).map(lambda n: n / 8.0),
        min_size=1,
        max_size=12,
    ),
    shift=st.integers(min_value=-1600, max_value=1600).map(lambda n: n / 8.0),
    k=st.integers(min_value=1, max_value=5),
)
def test_criterion_3a_shift_invariance(scores, shift, k):
    keys = [(0, i) for i in range(len(scores))]

    def select(vals):
        order = sorted(keys, key=lambda key: (-vals[key[1]], key))
        return order[0], set(order[: min(k, len(order))])

    assert select(scores) == select([s + shift for s in scores])


def test_criterion_3_probabilistic_correctness():
    with criterion(3, "likelihood sums, log vs probability domain, shift invariance"):
        rng = np.random.default_rng(31)

        # per-cell likelihoods with alpha=0 sum to 1 over the defined support
        for _ in range(50):
            rm, _ = random_instance(rng)
            zero = SimpleNamespace(alpha=0.0, p_min=1e-4)  # oracle only: the package refuses 0
            for cell in map_cells(rm).values():
                for tid in cell["histograms"]:
                    total = math.fsum(
                        likelihood_from_counts(cell, tid, a, zero) for a in range(32)
                    )
                    assert abs(total - 1.0) <= 1e-12
                    smoothed = math.fsum(
                        likelihood_from_counts(cell, tid, a, SmoothingParams(alpha=0.5))
                        for a in range(32)
                    )
                    assert abs(smoothed - 1.0) <= 1e-12

        # log-domain scores match probability-domain products
        n_checked = 0
        while n_checked < 100:
            rm, window = random_instance(rng)
            probs = cell_probabilities(rm, window, SmoothingParams())
            if min(probs.values()) < 1e-280:
                continue
            scores = cell_log_posterior(rm, window, PRESET_PARAMS["rural"]["probabilistic"])
            for key, log_p in scores.items():
                assert math.exp(log_p) == pytest.approx(probs[key], rel=1e-12)
            n_checked += 1

        # end-to-end uniform shift: a tower unknown to the map penalizes
        # every cell identically and must not move the estimate
        n_checked = 0
        while n_checked < 100:
            rm, window = random_instance(rng)
            if len(window[-1].readings) >= 7:
                continue
            base = probabilistic_locate(rm, window, EstimatorParams(n_samples=4, k=2))
            readings = dict(window[-1].readings)
            readings["UNSEEN"] = 11
            shifted_window = list(window[:-1]) + [ScanVector(window[-1].timestamp, readings)]
            shifted = probabilistic_locate(rm, shifted_window, EstimatorParams(n_samples=4, k=2))
            assert [k for k, _ in base.contributing_cells] == [
                k for k, _ in shifted.contributing_cells
            ]
            assert math.hypot(
                base.location.x - shifted.location.x, base.location.y - shifted.location.y
            ) < 1e-9
            n_checked += 1


# ---------------------------------------------------------------------------
# 4. GP numerics
# ---------------------------------------------------------------------------


def test_criterion_4_gp_numerics():
    with criterion(4, "GP posterior matches dense oracle; variance bounded; grid-max hypers"):
        rng = np.random.default_rng(41)
        hyper = GpHyperparams(100.0, 4.0, 120.0)
        for n in (5, 20, 50):
            x = rng.uniform(0, 400, size=(n, 2))
            y = 15 + 8 * np.sin(x[:, 0] / 130.0) + rng.normal(0, 1.5, size=n)
            model = gp_fit(x, y, [hyper])
            queries = rng.uniform(-100, 500, size=(10, 2))
            nm, nv = naive_gp_posterior(x, y, hyper, queries)
            for q, m_exp, v_exp in zip(queries, nm, nv):
                mean, var = gp_predict(model, PlanarPoint(*q))
                assert abs(mean - m_exp) < 1e-8
                assert abs(var - v_exp) < 1e-8
                assert 0.0 <= var <= hyper.sigma_f2 + hyper.sigma_n2 + 1e-9
            assert gp_log_marginal_likelihood(x, y, hyper) == pytest.approx(
                naive_log_marginal(x, y, hyper), abs=1e-6
            )

        # grid search selects the log-marginal-likelihood maximizer
        x = rng.uniform(0, 600, size=(40, 2))
        y = np.clip(18 + 9 * np.cos(x[:, 1] / 150.0) + rng.normal(0, 2.0, size=40), 0, 31)
        model = gp_fit(x, y)
        best = max(gp_log_marginal_likelihood(x, y, h) for h in default_hyper_grid())
        assert model.log_marginal == pytest.approx(best, rel=1e-9)


def test_criterion_4a_preset_fit_selects_grid_max(rural):
    with criterion("4a", "rural preset: the 5 best-sampled towers select the dense grid max"):
        world, train, test, radio_map = rural
        counts: dict[str, int] = {}
        for scan in train:
            for tid in scan.readings:
                counts[tid] = counts.get(tid, 0) + 1
        top = sorted(counts, key=lambda tid: (-counts[tid], tid))[:5]
        models = fit_tower_models(train, radio_map.origin)
        grid = default_hyper_grid()
        for tid in top:
            model = models[tid]
            lmls = [gp_log_marginal_likelihood(model.locations, model.values, h) for h in grid]
            best = lmls.index(max(lmls))
            assert model.hyper == grid[best], tid
            assert model.log_marginal == lmls[best], tid


# ---------------------------------------------------------------------------
# 5. Accuracy ordering on the rural preset
# ---------------------------------------------------------------------------


def test_criterion_5_technique_ordering(rural):
    with criterion(5, "median error: probabilistic <= hybrid <= deterministic <= cell-ID"):
        t0 = time.monotonic()
        world, train, test, radio_map = rural
        assert len(train) == 1599 and len(test) == 573

        med = {
            tech: evaluate(
                radio_map, test, tech, PRESET_PARAMS["rural"][tech], time_repeats=1
            ).median_error_m
            for tech in ("probabilistic", "hybrid", "deterministic", "cellid")
        }
        print(
            "  medians (m): "
            + "  ".join(f"{tech}={med[tech]:.1f}" for tech in med),
            flush=True,
        )
        assert med["probabilistic"] <= 1.05 * med["hybrid"]
        assert med["hybrid"] <= med["deterministic"]
        assert med["deterministic"] <= med["cellid"]
        assert med["cellid"] >= 3.0 * med["probabilistic"]
        assert time.monotonic() - t0 < 300.0


# ---------------------------------------------------------------------------
# 6. Parameter trends on the rural preset
# ---------------------------------------------------------------------------


def test_criterion_6_parameter_trends(rural):
    with criterion(6, "grid-length, K, tower-density and fingerprint-density trends"):
        t0 = time.monotonic()
        world, train, test, radio_map = rural
        params = PRESET_PARAMS["rural"]["probabilistic"]

        base = evaluate(radio_map, test, "probabilistic", params, time_repeats=1).median_error_m

        coarse_map = build_radio_map(train, 600.0)
        coarse = evaluate(coarse_map, test, "probabilistic", params, time_repeats=1).median_error_m
        assert coarse >= base

        k1 = evaluate(
            radio_map, test, "probabilistic", dataclasses.replace(params, k=1), time_repeats=1
        ).median_error_m
        assert base <= 1.1 * k1

        seed80 = int(np.random.SeedSequence([SEED, 80]).generate_state(1)[0])
        dropped80 = evaluate(
            ablate_towers(radio_map, 0.8, seed80), test, "probabilistic", params, time_repeats=1
        ).median_error_m
        assert dropped80 >= 1.25 * base

        seed60 = int(np.random.SeedSequence([SEED, 60]).generate_state(1)[0])
        dropped60 = evaluate(
            ablate_towers(radio_map, 0.6, seed60), test, "probabilistic", params, time_repeats=1
        ).median_error_m
        seed40 = int(np.random.SeedSequence([SEED, 40]).generate_state(1)[0])
        thinned = thin_fingerprint(train, 0.4, seed40)
        kept40 = evaluate(
            build_radio_map(thinned, 70.0), test, "probabilistic", params, time_repeats=1
        ).median_error_m
        print(
            f"  base={base:.1f}  G600={coarse:.1f}  K1={k1:.1f}  drop80={dropped80:.1f}"
            f"  drop60={dropped60:.1f}  keep40={kept40:.1f}",
            flush=True,
        )
        assert kept40 - base < dropped60 - base
        assert time.monotonic() - t0 < 600.0


# ---------------------------------------------------------------------------
# 7. Runtime contract
# ---------------------------------------------------------------------------


def test_criterion_7_runtime_contract(timing_bed):
    with criterion(7, "hybrid <= 0.5x probabilistic; GP >= 10x probabilistic per estimate"):
        world, radio_map, gp_grid, drive_scans = timing_bed
        assert radio_map.grid_length == 70.0
        assert radio_map.n_cells >= 200
        assert gp_grid.n_points >= 500

        params = EstimatorParams(n_samples=4, k=2)
        windows = [drive_scans[max(0, i + 1 - 4) : i + 1] for i in range(len(drive_scans))]
        n = 120  # median of >= 100 estimates
        t_prob = _median_call_ms(lambda w: probabilistic_locate(radio_map, w, params), windows, n)
        t_hyb = _median_call_ms(
            lambda w: hybrid_locate(radio_map, w, 1, params.smoothing), windows, n)
        t_gp = _median_call_ms(lambda w: gp_locate(gp_grid, w), windows, n)
        print(
            f"  cells={radio_map.n_cells} N_p={gp_grid.n_points}  "
            f"prob={t_prob:.3f}ms hybrid={t_hyb:.3f}ms gp={t_gp:.3f}ms  "
            f"hybrid/prob={t_hyb / t_prob:.2f} gp/prob={t_gp / t_prob:.1f}",
            flush=True,
        )
        assert t_hyb <= 0.5 * t_prob
        assert t_gp >= 10.0 * t_prob


# ---------------------------------------------------------------------------
# 8. Complexity scaling in the cell count
# ---------------------------------------------------------------------------


def test_criterion_8_linear_scaling():
    with criterion(8, "probabilistic estimate time grows at most linearly in N_c"):
        rng = np.random.default_rng(88)
        beds = []
        for side in (500.0, 1000.0, 2000.0):
            towers = tuple(
                Tower(
                    f"T{i:03d}",
                    PlanarPoint(rng.uniform(0, side), rng.uniform(0, side)),
                    -30.0 + rng.uniform(-8, 8),
                )
                for i in range(40)
            )
            world = SynthWorld(
                (0, 0, side, side), towers, seed=9, measurement_noise_db=3.0,
                shadow_grid_spacing=60.0,
            )
            srng = np.random.default_rng(3)
            pts = [
                PlanarPoint(x, y)
                for y in np.arange(15, side, 35.0)
                for x in np.arange(15, side, 35.0)
            ]
            scans = [
                scan_at(world, p, float(i), noise_rng=srng)
                for i, p in enumerate(pts)
            ]
            radio_map = build_radio_map(scans, 70.0)
            drng = np.random.default_rng(4)
            drive = [PlanarPoint(30 + 3.0 * i, side / 2) for i in range(130)]
            dscans = [
                scan_at(world, p, float(i), noise_rng=drng)
                for i, p in enumerate(drive)
            ]
            beds.append((radio_map, dscans))

        params = EstimatorParams(n_samples=4, k=2)
        sizes = [radio_map.n_cells for radio_map, _ in beds]
        n_windows = 120
        windows = [
            [dscans[max(0, i + 1 - 4) : i + 1] for i in range(n_windows)] for _, dscans in beds
        ]
        for (radio_map, _), ws in zip(beds, windows):
            probabilistic_locate(radio_map, ws[5], params)  # build the map's log table
        # The machine's speed can switch between states that last from a few
        # milliseconds to seconds, so the beds take turns call by call, in an
        # order that rotates, and every state reaches all three alike.
        # Each window keeps its best call over the rounds, and a bed's time
        # is the median window.
        best = [[math.inf] * n_windows for _ in beds]
        for r in range(15):
            for i in range(n_windows):
                for j in range(len(beds)):
                    b = (r + i + j) % len(beds)
                    t0 = time.perf_counter()
                    probabilistic_locate(beds[b][0], windows[b][i], params)
                    best[b][i] = min(best[b][i], time.perf_counter() - t0)
        times = [float(np.median(bed_best)) * 1e3 for bed_best in best]
        print(
            "  "
            + "  ".join(f"N_c={n}: {t:.3f}ms" for n, t in zip(sizes, times)),
            flush=True,
        )
        assert sizes[0] >= 40 and sizes[1] >= 180 and sizes[2] >= 700

        # marginal per-cell cost must not more than double between size steps
        slope_lo = (times[1] - times[0]) / (sizes[1] - sizes[0])
        slope_hi = (times[2] - times[1]) / (sizes[2] - sizes[1])
        if slope_lo <= 0:
            assert times[2] <= 2.0 * times[1] + 1e-3  # essentially flat: sublinear
        else:
            assert slope_hi <= 2.0 * slope_lo


# ---------------------------------------------------------------------------
# 9. Determinism and persistence
# ---------------------------------------------------------------------------


def test_criterion_9_determinism_and_persistence(rural, tmp_path):
    with criterion(9, "byte-identical traces/maps on a fixed seed; save/load round trip"):
        world, train, test, radio_map = rural

        world2, routes2 = make_preset("rural", seed=SEED)
        train2 = generate_trace(world2, routes2["train"])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace(train, str(p1))
        write_trace(train2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

        map2 = build_radio_map(train2, 70.0, tower_locations=world2.tower_locations_geo())
        assert map2 == radio_map
        m1, m2 = tmp_path / "a.json", tmp_path / "b.json"
        save_radio_map(radio_map, str(m1))
        save_radio_map(map2, str(m2))
        assert m1.read_bytes() == m2.read_bytes()

        loaded = load_radio_map(str(m1))
        assert loaded == radio_map

        params = PRESET_PARAMS["rural"]["probabilistic"]
        r1 = evaluate(radio_map, test, "probabilistic", params, time_repeats=1)
        r2 = evaluate(loaded, test, "probabilistic", params, time_repeats=1)
        assert r1.median_error_m == r2.median_error_m
        assert r1.p95_error_m == r2.p95_error_m
        assert r1.error_cdf == r2.error_cdf


@pytest.fixture(scope="module")
def digest_lines():
    return list(estimate_digests.lines())


def test_criterion_9a_golden_estimate_hashes(digest_lines):
    with criterion("9a", "every trace, estimate and saved map matches its pinned digest"):
        # Every line tools/estimate_digests.py prints: the sha256 of each
        # synthesized trace file, of repr((x, y, log_score,
        # contributing_cells)) over every window per technique and map, and
        # of each saved map file.  A change that moves one of them fails.
        assert digest_lines == estimate_digests.COMMITTED.read_text().splitlines()


#: Fresh-interpreter environments that pick other x86-64 kernels: OpenBLAS's
#: Haswell kernels, and numpy without its AVX-512 code paths.  numpy carries
#: on when a disabled feature is one it never dispatches to on this CPU.
CPU_MODES = {
    "haswell-blas": {"OPENBLAS_CORETYPE": "Haswell"},
    "no-avx512": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
}
_SEED0_DIGESTS = """
from estimate_digests import SAVED_WORLDS, lines
print(*lines(SAVED_WORLDS), sep="\\n")
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the modes select x86-64 kernels")
@pytest.mark.parametrize("mode", CPU_MODES)
def test_criterion_9a_digests_equal_on_other_kernels(digest_lines, mode):
    with criterion("9a", f"the seed-0 digests hold under {mode}"):
        tools = str(Path(estimate_digests.__file__).parent)
        path = os.pathsep.join(filter(None, (tools, os.environ.get("PYTHONPATH"))))
        env = {**os.environ, **CPU_MODES[mode], "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-c", _SEED0_DIGESTS], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        seed0 = tuple(f"{preset} {seed} " for preset, seed in estimate_digests.SAVED_WORLDS)
        assert proc.stdout.splitlines() == [line for line in digest_lines
                                            if line.startswith(seed0)]
