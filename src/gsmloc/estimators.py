"""Online phase: position estimators over a radio map.

Four techniques share the :class:`~gsmloc.radiomap.RadioMap` fingerprint:

* :func:`probabilistic_locate` scores every grid cell with the smoothed
  histogram likelihood of a window of scans (accumulated in log domain),
  then returns the posterior-weighted average of the K most probable cell
  centroids.  A window is scored by one gather of the map's log-likelihood
  table, whose floor row scores towers the map never heard.
* :func:`hybrid_locate` runs two phases: a rough pass that picks the most
  probable cell from the window's freshest scan only, then a K-nearest-neighbor
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

from .geo import PlanarPoint, ScanVector, float_sum
from .radiomap import N_ASU_BINS, RadioMap, SmoothingParams


def check_count(name: str, value: int, minimum: int = 1) -> None:
    """``ValueError`` naming ``name`` unless ``value`` is an integer >= ``minimum``, not a bool."""
    # type() first: hybrid checks on every call, and the ABC isinstance costs
    # about 0.9 us (Python 3.11, Xeon), some 4% of a hybrid estimate.
    integral = type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool))
    if not integral or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class EstimatorParams:
    """Online-phase knobs: window length and averaging count (:func:`check_count`), smoothing."""

    n_samples: int = 4
    k: int = 2
    smoothing: SmoothingParams = SmoothingParams()

    def __post_init__(self) -> None:
        check_count("n_samples", self.n_samples)
        check_count("k", self.k)


@dataclass(frozen=True, slots=True)
class LocationEstimate:
    """An estimated position plus how it was formed.

    ``log_score`` is the unnormalized log posterior of the winning cell for
    prob and hybrid, always finite, and ``None`` where no posterior exists.
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


def _table_sum(radio_map: RadioMap, smoothing: SmoothingParams, rows: list[int]) -> np.ndarray:
    """Per-cell sum of the log-likelihood table's ``rows`` (``N_ASU_BINS * column + asu``,
    one per reading): one gather, then one reduction row by row in the given order."""
    table = radio_map.log_likelihood_table(smoothing)
    return np.add.reduce(table.reshape(len(table) * N_ASU_BINS, -1).take(rows, axis=0), axis=0)


def _posterior_vector(
    radio_map: RadioMap, scans: Sequence[ScanVector], smoothing: SmoothingParams
) -> np.ndarray:
    """Unnormalized log posterior per cell, aligned with ``radio_map.cell_keys()``.

    The table row of every reading, in scan and reading order, summed by
    :func:`_table_sum`.  Towers absent from the whole map read the table's
    floor row, a flat log(p_min) in every cell, which can never change the
    ranking.
    """
    tower_index = radio_map.tower_index()
    floor = len(tower_index)
    rows = [N_ASU_BINS * tower_index.get(tower_id, floor) + asu
            for scan in scans for tower_id, asu in scan.readings.items()]
    return _table_sum(radio_map, smoothing, rows)


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
    radio_map: RadioMap, cells: np.ndarray, weights: list[float], log_score: float | None
) -> LocationEstimate:
    """The weighted mean of the chosen cells' centroids, the cells as contributors.

    A plain-float sum over the K rows that starts from the first product, as
    a numpy sum does (starting from 0.0 would turn a -0.0 into 0.0).  Unlike
    a BLAS product, its bits do not depend on the CPU's kernels.
    """
    rows = radio_map.centroid_array()[cells].tolist()
    x, y = weights[0] * rows[0][0], weights[0] * rows[0][1]
    for w, (cx, cy) in zip(weights[1:], rows[1:]):
        x += w * cx
        y += w * cy
    keys = radio_map.cell_keys()
    contributing = tuple((keys[i], w) for i, w in zip(cells.tolist(), weights))
    return LocationEstimate(PlanarPoint(x, y), log_score, contributing)


def probabilistic_locate(
    radio_map: RadioMap,
    window: Sequence[ScanVector],
    params: EstimatorParams = EstimatorParams(),
) -> LocationEstimate:
    """Grid-histogram Bayes estimate: weighted average of the top-K cells.

    The K cells with the highest log posterior, all finite, are selected
    (ties broken by (row, col) order), their posteriors renormalized over the
    K via log-sum-exp, and the estimate is the weighted average of their
    centroids.  K = 1 degenerates to the most-probable-cell centroid.
    """
    scans = _check_scans(window)
    scores = _posterior_vector(radio_map, scans, params.smoothing)

    top = (-scores).argsort(kind="stable")[:params.k]  # ties resolve to the lowest index
    top_scores = scores[top].tolist()
    m = top_scores[0]
    # libm's exp, not np.exp, whose last bit moves with the SIMD level.
    weights = [math.exp(s - m) for s in top_scores]
    total = float_sum(weights)
    return _weighted_estimate(radio_map, top, [w / total for w in weights], m)


def hybrid_locate(
    radio_map: RadioMap,
    window: Sequence[ScanVector],
    k_refine: int,
    smoothing: SmoothingParams = SmoothingParams(),
) -> LocationEstimate:
    """Two-phase estimate: rough probabilistic cell pick, then KNN refinement.

    Phase one scores cells with only the freshest (last) scan of the window
    (one sample keeps the rough pass cheap) and takes the most probable
    cell.  Phase two runs K-nearest-neighbor in ASU space over that cell's
    raw fingerprint points against the same scan and returns the unweighted
    mean of the ``k_refine`` nearest point locations.  Older scans are only
    checked for time order, so the window length does not change the estimate.

    Raises:
        ValueError: if ``k_refine`` breaks :func:`check_count`, or the map was
            built with ``strip_points=True``.
    """
    check_count("k_refine", k_refine)
    readings = _check_scans(window)[-1].readings
    tower_index = radio_map.tower_index()
    spare = len(tower_index)  # the floor row in phase one, a dropped slot in phase two
    columns = [tower_index.get(tower_id, spare) for tower_id in readings]
    asus = list(readings.values())

    scores = _table_sum(radio_map, smoothing, [N_ASU_BINS * c + a for c, a in zip(columns, asus)])
    best = int(scores.argmax())  # ties resolve to the lowest (row, col)
    key = radio_map.cell_keys()[best]
    locations, points = radio_map.cell_point_arrays(key)
    if len(locations) == 0:
        raise ValueError("hybrid refinement needs raw points; map was built with strip_points")

    # Squared ASU-space distance against every point of the cell at once, exact
    # in int32 (at most 31^2 = 961 per tower, far below 2^31); ranks identically
    # to the Euclidean distance over the union of tower ids with missing-as-0
    # (towers unknown to the map shift all points equally, so they land in the
    # spare last slot that the distance leaves out).
    v = np.zeros(spare + 1, dtype=np.int32)
    v[columns] = asus
    diff = points - v[:-1]
    sq_dists = np.add.reduce(diff * diff, axis=1, dtype=np.int32)
    if k_refine == 1:
        x, y = locations[int(sq_dists.argmin())].tolist()  # first minimum, as below
    else:
        nearest = sq_dists.argsort(kind="stable")[:k_refine]
        x, y = locations[nearest].mean(axis=0).tolist()
    return LocationEstimate(PlanarPoint(x, y), float(scores[best]), ((key, 1.0),))


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
    heard = v.nonzero()[0]
    screen = norm2 - 2.0 * (means[:, heard] @ v[heard])

    k = min(params.k, radio_map.n_cells)
    tol = 1e-9 * (norm2.max() + v @ v + unknown_sq)  # |v|^2 over all towers, unknown too
    kth = screen.copy()  # partition sorts in place, and screen is read below
    kth.partition(k - 1)
    kept = (screen <= kth[k - 1] + tol).nonzero()[0]
    diff = means[kept] - v
    dists = np.sqrt((diff * diff).sum(axis=1) + unknown_sq)
    order = dists.argsort(kind="stable")[:k]
    weights = 1.0 / (dists[order] + 1e-6)
    weights /= weights.sum()
    return _weighted_estimate(radio_map, kept[order], weights.tolist(), None)


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
