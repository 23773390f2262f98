"""Online phase: position estimators over a radio map.

Four techniques share the :class:`~gsmloc.radiomap.RadioMap` fingerprint:

* :func:`probabilistic_locate` scores every grid cell with the smoothed
  histogram likelihood of a window of scans (accumulated in log domain),
  then returns the posterior-weighted average of the K most probable cell
  centroids.  A window is scored by one gather of the map's log-likelihood
  table, whose floor row scores towers the map never heard.
* :func:`hybrid_locate` runs two phases: a rough pass that picks the most
  probable cell from the window's first scan only, then a K-nearest-neighbor
  refinement in ASU space over that cell's raw fingerprint points.
* :func:`deterministic_locate` is the classic KNN baseline: cells are
  summarized by their mean ASU per tower and the nearest cells in RSSI
  space are averaged with inverse-distance weights.  A screen over the
  heard towers, with a rounding margin ``tol``, picks the few cells that
  get the exact distance, so estimates equal a dense ranking bit for bit.
* :func:`cellid_locate` returns the known location of the strongest tower.

All estimators are pure functions of immutable inputs: identical inputs
give bit-identical outputs, and concurrent calls are safe: of a map's arrays,
only the per-smoothing log-likelihood table is built on first use.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geo import PlanarPoint, ScanVector
from .radiomap import N_ASU_BINS, RadioMap, SmoothingParams


@dataclass(frozen=True)
class EstimatorParams:
    """Online-phase knobs: window length and averaging count (ints >= 1, no bools), smoothing."""

    n_samples: int = 4
    k: int = 2
    smoothing: SmoothingParams = SmoothingParams()

    def __post_init__(self) -> None:
        for name in ("n_samples", "k"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class LocationEstimate:
    """An estimated position plus how it was formed.

    ``log_score`` is the unnormalized log posterior of the winning cell for
    the probabilistic techniques and ``None`` where no posterior exists.
    ``contributing_cells`` lists ((row, col), weight) pairs whose weights
    sum to 1.
    """

    location: PlanarPoint
    log_score: float | None = None
    contributing_cells: tuple[tuple[tuple[int, int], float], ...] = ()


def _check_scans(scans: Sequence[ScanVector]) -> Sequence[ScanVector]:
    if len(scans) == 0:
        raise ValueError("window must contain at least one scan")
    for a, b in zip(scans, scans[1:]):
        if not b.timestamp > a.timestamp:
            raise ValueError("window timestamps must be strictly increasing")
    return scans


def _posterior_vector(
    radio_map: RadioMap, scans: Sequence[ScanVector], smoothing: SmoothingParams
) -> np.ndarray:
    """Unnormalized log posterior per cell, aligned with ``radio_map.cell_keys()``.

    One gather takes the table row of every reading, in scan and reading
    order, and one reduction sums them row by row in that order.  Towers
    absent from the whole map read the table's floor row, a flat log(p_min)
    in every cell, which can never change the ranking.
    """
    table = radio_map.log_likelihood_table(smoothing)
    tower_index = radio_map.tower_index()
    floor = len(tower_index)
    rows = [N_ASU_BINS * tower_index.get(tower_id, floor) + asu
            for scan in scans for tower_id, asu in scan.readings.items()]
    return np.add.reduce(table.reshape(len(table) * N_ASU_BINS, -1).take(rows, axis=0), axis=0)


def cell_log_posterior(
    radio_map: RadioMap,
    window: Sequence[ScanVector],
    params: EstimatorParams = EstimatorParams(),
) -> dict[tuple[int, int], float]:
    """Log P(window | cell) for every cell, under a uniform location prior.

    The score of a cell is the sum over scans and over the towers observed
    in each scan of the log smoothed histogram likelihood.  Accumulation is
    entirely in log domain, so long windows cannot underflow.
    """
    scans = _check_scans(window)
    scores = _posterior_vector(radio_map, scans, params.smoothing)
    return {key: float(s) for key, s in zip(radio_map.cell_keys(), scores)}


def _weighted_estimate(
    radio_map: RadioMap, cells: np.ndarray, weights: np.ndarray, log_score: float | None
) -> LocationEstimate:
    """The weighted mean of the chosen cells' centroids, the cells as contributors."""
    x, y = weights @ radio_map.centroid_array()[cells]
    keys = radio_map.cell_keys()
    contributing = tuple((keys[i], float(w)) for i, w in zip(cells, weights))
    return LocationEstimate(PlanarPoint(float(x), float(y)), log_score, contributing)


def probabilistic_locate(
    radio_map: RadioMap,
    window: Sequence[ScanVector],
    params: EstimatorParams = EstimatorParams(),
) -> LocationEstimate:
    """Grid-histogram Bayes estimate: weighted average of the top-K cells.

    The K cells with the highest log posterior are selected (ties broken by
    (row, col) order), their posteriors renormalized over the K via
    log-sum-exp, and the estimate is the weighted average of their
    centroids.  K = 1 degenerates to the most-probable-cell centroid.
    """
    scans = _check_scans(window)
    scores = _posterior_vector(radio_map, scans, params.smoothing)

    k = min(params.k, radio_map.n_cells)
    top = np.argsort(-scores, kind="stable")[:k]  # ties resolve to the lowest index
    top_scores = scores[top]
    m = top_scores[0]
    if math.isfinite(m):
        weights = np.exp(top_scores - m)
        weights /= weights.sum()
    else:
        # Every candidate has zero likelihood (possible only with alpha=0);
        # fall back to uniform weights over the K for determinism.
        weights = np.full(k, 1.0 / k)
    return _weighted_estimate(radio_map, top, weights, float(m))


def hybrid_locate(
    radio_map: RadioMap,
    window: Sequence[ScanVector],
    k_refine: int = 1,
    smoothing: SmoothingParams = SmoothingParams(),
) -> LocationEstimate:
    """Two-phase estimate: rough probabilistic cell pick, then KNN refinement.

    Phase one scores cells with only the first scan of the window (one
    sample keeps the rough pass cheap) and takes the most probable cell.
    Phase two runs K-nearest-neighbor in ASU space over that cell's raw
    fingerprint points against the same scan and returns the unweighted
    mean of the ``k_refine`` nearest point locations.

    Raises:
        ValueError: if the map was built with ``strip_points=True``.
    """
    if k_refine < 1:
        raise ValueError("k_refine must be >= 1")
    scans = _check_scans(window)
    first = scans[0]

    scores = _posterior_vector(radio_map, [first], smoothing)
    best = int(np.argmax(scores))  # ties resolve to the lowest (row, col)
    key = radio_map.cell_keys()[best]
    locations, readings = radio_map.cell_point_arrays(key)
    if len(locations) == 0:
        raise ValueError("hybrid refinement needs raw points; map was built with strip_points")

    # Squared ASU-space distance against every point of the cell at once;
    # ranks identically to the Euclidean distance over the union of tower ids
    # with missing-as-0 (towers unknown to the map shift all points equally,
    # so they land in a spare last slot that the distance leaves out).
    tower_index = radio_map.tower_index()
    v = np.zeros(len(tower_index) + 1)
    for tower_id, asu in first.readings.items():
        v[tower_index.get(tower_id, -1)] = asu
    diff = readings - v[:-1]
    sq_dists = (diff * diff).sum(axis=1)
    if k_refine == 1:
        x, y = locations[int(np.argmin(sq_dists))]  # first minimum, as below
    else:
        nearest = np.argsort(sq_dists, kind="stable")[:k_refine]
        x, y = locations[nearest].mean(axis=0)
    return LocationEstimate(PlanarPoint(float(x), float(y)), float(scores[best]), ((key, 1.0),))


def deterministic_locate(
    radio_map: RadioMap,
    window: Sequence[ScanVector],
    params: EstimatorParams = EstimatorParams(),
) -> LocationEstimate:
    """KNN baseline over cells in RSSI space with inverse-distance weights.

    Each cell is represented by its mean ASU per tower; the window's
    readings are averaged per tower into one query vector v.  The K nearest
    cells by Euclidean distance in ASU space, over the union of tower ids
    with a tower missing on one side imputed as ASU 0 ("not heard" sits at
    the sensitivity floor), are averaged, weighted by 1/(d + 1e-6).

    A screen on the heard towers scores each cell m as |m|^2 - 2 m.v; only
    cells within ``tol`` of the K-th smallest score get the exact distance.
    The screen errs by some 4 n eps (|m|^2 + |v|^2), ~1e4 times below
    ``tol``, so no cell tied with or nearer than the K-th is dropped, and a
    kept row reduces as in the full matrix: bit-identical to a dense ranking.
    """
    scans = _check_scans(window)

    readings: dict[str, list[int]] = {}
    for scan in scans:
        for tower_id, asu in scan.readings.items():
            readings.setdefault(tower_id, []).append(asu)
    tower_index = radio_map.tower_index()
    v = np.zeros(len(tower_index))
    unknown_sq = 0.0  # towers the map never heard anywhere
    for tower_id, asus in readings.items():
        mean_asu = sum(asus) / len(asus)
        t = tower_index.get(tower_id)
        if t is None:
            unknown_sq += mean_asu * mean_asu
        else:
            v[t] = mean_asu
    means, norm2 = radio_map.mean_asu_matrix(), radio_map.mean_asu_norm2()
    heard = np.flatnonzero(v)
    screen = norm2 - 2.0 * (means[:, heard] @ v[heard])

    k = min(params.k, radio_map.n_cells)
    tol = 1e-9 * (norm2.max() + v @ v + unknown_sq)  # |v|^2 over all towers, unknown too
    kept = np.flatnonzero(screen <= np.partition(screen, k - 1)[k - 1] + tol)
    diff = means[kept] - v
    dists = np.sqrt((diff * diff).sum(axis=1) + unknown_sq)
    order = np.argsort(dists, kind="stable")[:k]
    weights = 1.0 / (dists[order] + 1e-6)
    weights /= weights.sum()
    return _weighted_estimate(radio_map, kept[order], weights, None)


def cellid_locate(radio_map: RadioMap, scan: ScanVector) -> LocationEstimate:
    """Return the stored location of the strongest tower in the scan.

    Ties on ASU resolve to the lexicographically smallest tower id.

    Raises:
        ValueError: if the map has no tower registry or the strongest tower
            is not in it.
    """
    if radio_map.tower_locations is None:
        raise ValueError("radio map has no tower locations; cell-ID needs them")
    tower_id = min(scan.readings, key=lambda tid: (-scan.readings[tid], tid))
    location = radio_map.tower_locations.get(tower_id)
    if location is None:
        raise ValueError(f"no known location for tower {tower_id!r}")
    return LocationEstimate(location, None, ())
