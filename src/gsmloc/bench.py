"""Benchmark harness: error metrics, per-estimate timing, parameter sweeps.

An evaluation slides a window of up to ``n_samples`` consecutive scans
(stride 1) over a ground-truthed test trace.  Each window yields one
estimate, whose planar error is measured against the truth of the window's
last scan, the freshest position.  Per-estimate wall-clock time is the
median of repeated calls to the estimate alone (no I/O, no map loading).
The report keeps every window's error and the mean time; the error CDF,
median and 95th percentile are derived from the errors.

Sweeps rebuild or re-evaluate per parameter value on fixed seeds, one
report row per value; randomized configurations derive their seed from
(base seed, configuration index) so results are order-independent.  A
sweep takes ``technique`` as :func:`evaluate` does.
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
    check_count,
    deterministic_locate,
    hybrid_locate,
    probabilistic_locate,
)
from .geo import GeoPoint, PlanarPoint, ScanVector, project_array
from .gp import PrecomputedGrid, gp_locate
from .radiomap import (RadioMap, ablate_towers, build_radio_map, check_keep_fraction,
                       derived_seed, ground_truths)

REPORT_HEADER = ("technique", "grid_m", "ns", "k", "median_err_m", "p95_err_m", "mean_ms")
CDF_HEADER = ("error_m", "cum_frac")

#: Best-performing configuration per synthetic preset, found by sweeping the
#: presets themselves: grid 70 m throughout; the faster rural drive favors a
#: shorter window.  The hybrid technique scores cells with the window's
#: freshest scan alone, its defining trade, so its window is one scan long.
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
    """Accuracy and runtime of one technique under one configuration.

    Stored: the configuration, the mean time per estimate and every
    window's error, ``errors_m``, which construction puts in increasing
    order.  Derived from those errors: the median, the 95th percentile and
    the empirical CDF, so a report cannot disagree with itself.
    """

    technique: str
    grid_m: float
    n_samples: int
    k: int
    mean_time_per_estimate_ms: float
    errors_m: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "errors_m", tuple(sorted(self.errors_m)))

    @property
    def median_error_m(self) -> float:
        return float(np.percentile(self.errors_m, 50))

    @property
    def p95_error_m(self) -> float:
        return float(np.percentile(self.errors_m, 95))

    @property
    def error_cdf(self) -> tuple[tuple[float, float], ...]:
        """``(error, fraction of windows with that error or less)``, one pair per window."""
        n = len(self.errors_m)
        return tuple((e, (j + 1) / n) for j, e in enumerate(self.errors_m))


#: Every technique by name, as ``(model, window, params) -> LocationEstimate``.
#: GP takes a :class:`PrecomputedGrid`, the others a :class:`RadioMap`.
#: Hybrid and cell-ID read only the window's last (freshest) scan, so
#: ``params.n_samples`` does not change their estimates.
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

    ``technique`` names one of :data:`TECHNIQUES` or is a custom estimator
    with their signature, ``(model, window, params) -> LocationEstimate``.
    Every test scan must carry ground truth.  Windows at the start of the
    trace are shorter than ``n_samples``; tracking produces an estimate from
    the first scan on.  Each window's time is the median of ``time_repeats``
    calls, a count that must pass :func:`~gsmloc.estimators.check_count`.
    """
    if not test_scans:
        raise ValueError("empty test set")
    check_count("time_repeats", time_repeats)
    truths = project_array(model.origin, ground_truths(test_scans)).tolist()
    locate = TECHNIQUES.get(technique, technique)
    if not callable(locate):
        raise ValueError(f"unknown technique {technique!r}; expected one of {tuple(TECHNIQUES)}")

    errors: list[float] = []
    times_s: list[float] = []
    for i in range(len(test_scans)):
        window = list(window_at(test_scans, i, params.n_samples))
        reps = []
        est = None
        for _ in range(time_repeats):
            t0 = time.perf_counter()
            est = locate(model, window, params)
            reps.append(time.perf_counter() - t0)
        errors.append(est.location.distance_to(PlanarPoint(*truths[i])))
        times_s.append(statistics.median(reps))

    grid_m = model.grid_length if isinstance(model, RadioMap) else model.spacing
    name = technique if isinstance(technique, str) else getattr(technique, "__name__", "custom")
    return EvalReport(
        technique=name,
        grid_m=float(grid_m),
        n_samples=params.n_samples,
        k=params.k,
        mean_time_per_estimate_ms=1e3 * sum(times_s) / len(times_s),
        errors_m=tuple(errors),
    )


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------


def _sweep(
    runs: Iterable[tuple[RadioMap, EstimatorParams]],
    test_scans: Sequence[ScanVector],
    technique: str | Callable,
) -> list[EvalReport]:
    """Evaluate each (map, params) pair as ``runs`` yields it, one report each."""
    reports = [evaluate(m, test_scans, technique, p) for m, p in runs]
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
    tower_locations: Mapping[str, GeoPoint] | None = None,
) -> list[EvalReport]:
    """Rebuild the map at each grid length and evaluate on the same trace."""
    runs = ((build_radio_map(train_scans, g, tower_locations=tower_locations), params)
            for g in grid_lengths)
    return _sweep(runs, test_scans, technique)


def sweep_params(
    radio_map: RadioMap,
    test_scans: Sequence[ScanVector],
    configs: Sequence[EstimatorParams],
    *,
    technique: str | Callable = "probabilistic",
) -> list[EvalReport]:
    """Evaluate one map under each estimator configuration, one report each."""
    return _sweep(((radio_map, p) for p in configs), test_scans, technique)


def sweep_tower_drop(
    radio_map: RadioMap,
    test_scans: Sequence[ScanVector],
    drop_fractions: Sequence[float],
    *,
    params: EstimatorParams = EstimatorParams(),
    technique: str | Callable = "probabilistic",
    base_seed: int = 0,
) -> list[EvalReport]:
    """Evaluate maps with a random subset of towers removed."""
    runs = ((ablate_towers(radio_map, f, derived_seed(base_seed, i)), params)
            for i, f in enumerate(drop_fractions))
    return _sweep(runs, test_scans, technique)


def sweep_density(
    train_scans: Sequence[ScanVector],
    test_scans: Sequence[ScanVector],
    keep_fractions: Sequence[float],
    *,
    grid_length: float,
    params: EstimatorParams = EstimatorParams(),
    technique: str | Callable = "probabilistic",
    tower_locations: Mapping[str, GeoPoint] | None = None,
    base_seed: int = 0,
) -> list[EvalReport]:
    """Thin the training trace before the map build and evaluate each map."""
    runs = ((build_radio_map(thin_fingerprint(train_scans, f, derived_seed(base_seed, i)),
                             grid_length, tower_locations=tower_locations), params)
            for i, f in enumerate(keep_fractions))
    return _sweep(runs, test_scans, technique)


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------


def thin_fingerprint(
    scans: Sequence[ScanVector], keep_fraction: float, seed: int
) -> list[ScanVector]:
    """Seeded uniform subsample of training scans (time order preserved).

    Raises:
        ValueError: if ``keep_fraction`` breaks :func:`~gsmloc.radiomap.check_keep_fraction`.
    """
    check_keep_fraction(keep_fraction)
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
