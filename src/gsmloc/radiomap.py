"""Offline phase: build the gridded probabilistic fingerprint.

The area covered by a training trace is divided into square cells of side
``grid_length``.  Every training scan contributes one fingerprint point at
its ground-truth position; all points falling in a cell are pooled into one
per-tower ASU histogram, and the cell is represented by the center of mass
of its points.  Cells with no points are simply absent.  A
:class:`RadioMap` stores all of this as arrays, each point's readings flat
and sparse: a count per point, then a tower column and an ASU per reading.

Histograms turn into likelihoods through Laplace smoothing over the 32-bin
ASU support, with a small floor probability for towers that were never
heard in a cell, so an online observation can penalize but never veto a
candidate cell.

A saved map (format version 2) is its arrays: next to ``grid_length_m``,
``grid_anchor``, ``towers`` (``tower_ids``, the tower of each column, in
sorted order) and the optional ``tower_locations`` it holds one JSON field
per array of ``_MAP_FIELDS``, as it is, rows as arrays (keys as
[row, col]).  :class:`RadioMap` alone checks the rules, so built, ablated and
loaded maps pass the same checks; the rule checkers it shares with the other
modules live in :mod:`gsmloc.geo`.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, fields
from itertools import chain, compress
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

from .geo import (
    ASU_MAX,
    MAX_READINGS,
    GeoPoint,
    PlanarPoint,
    ScanVector,
    check_drop_fraction,
    check_positive_finite,
    check_tower_id,
    float_sum,
    project_array,
)

N_ASU_BINS = ASU_MAX + 1

MAP_FORMAT_VERSION = 2
RADIO_MAP_KIND = "radio_map"

_T = TypeVar("_T")


class MapFormatError(ValueError):
    """A persisted map file is malformed, truncated or of an unknown version."""


@dataclass(frozen=True)
class SmoothingParams:
    """Histogram smoothing constants for likelihood evaluation.

    alpha: Laplace constant added to every ASU bin, positive and finite,
        so that an unseen ASU scores a finite penalty, not a veto.
    p_min: floor probability for a tower with no histogram in a cell.
    """

    alpha: float = 0.5
    p_min: float = 1e-4

    def __post_init__(self) -> None:
        check_positive_finite("alpha", self.alpha)
        if not 0.0 < self.p_min <= 1.0:
            raise ValueError("p_min must be in (0, 1]")


@dataclass(frozen=True, slots=True)
class FingerprintPoint:
    """One war-driving sample in :attr:`RadioMap.cells`: a position and the towers heard."""

    location: PlanarPoint
    readings: dict[str, int]


@dataclass(frozen=True, slots=True)
class TowerHistogram:
    """ASU histogram of one tower within one grid cell (32 integer bins)."""

    counts: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class GridCell:
    """One grid square in :attr:`RadioMap.cells`, which keys it by (row, col)."""

    centroid: PlanarPoint
    points: tuple[FingerprintPoint, ...]
    histograms: dict[str, TowerHistogram]


#: The array fields of :class:`RadioMap`, one JSON field each in a saved map:
#: field -> (JSON number kind, row width or 0, dtype stored; None keeps ``keys`` a tuple).
_MAP_FIELDS = dict(keys=(int, 2, None), centroids=(float, 2, np.float64),
                   hist_cell=(int, 0, np.intp), hist_tower=(int, 0, np.intp),
                   counts=(int, N_ASU_BINS, np.int32), point_xy=(float, 2, np.float64),
                   point_offsets=(int, 0, np.intp), n_read=(int, 0, np.intp),
                   reading_tower=(int, 0, np.intp), reading_asu=(int, 0, np.int8))
_INT32_MAX = np.iinfo(np.int32).max


def derived_seed(base_seed: int, i: int) -> int:
    """The seed of the ``i``-th run under ``base_seed``: a function of (base seed, i) alone."""
    return int(np.random.SeedSequence([base_seed, i]).generate_state(1)[0])


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """Where consecutive runs of ``sizes`` items start, and the total: run i is out[i]:out[i+1]."""
    return np.concatenate(([0], np.cumsum(sizes)))


@dataclass(frozen=True, eq=False)
class RadioMap:
    """The probabilistic fingerprint: grid geometry plus per-cell histograms, as arrays.

    The grid is anchored at the minimum x/y of the training data, so cell
    (row, col) covers [anchor_x + col*G, anchor_x + (col+1)*G) horizontally
    and the same vertically with row.  Cells are indexed by position in
    ``keys``, in increasing (row, col) order, and towers by column, their
    position in ``tower_ids``, which is sorted with each tower once.  Each
    heard (cell, tower) pair, in that order, has a ``hist_cell``,
    ``hist_tower`` and 32 ``counts``.  Cell c's points are rows
    ``point_offsets[c]:point_offsets[c+1]`` of ``point_xy`` and ``n_read``
    (none with ``strip_points``).  The readings follow flat, as a saved map
    holds them: point i's ``n_read[i]``, in increasing tower column, each a
    ``reading_tower`` and a ``reading_asu``.

    Construction stores read-only copies in the dtypes of ``_MAP_FIELDS``,
    derives the mean-ASU matrix, its row norms and hybrid's dense readings
    (ASU 0 where not heard), and raises ``ValueError`` on the first rule
    broken: at least one cell, each with a histogram; 32 bins, counts in
    0..2**31-1 (int32) and one reading or more per histogram; histogram and
    reading towers in ``tower_ids``; 1..7 readings per point, ``n_read``
    summing to them, each in ASU 0..31, each tower once, in column order; a
    positive finite ``grid_length``; a finite anchor, centroids, point and
    tower locations; every id in ``tower_ids`` and ``tower_locations`` a
    non-empty ``str``, then ``tower_ids`` sorted, each tower once; arrays
    agreeing in shape, offsets and order.  The log-likelihood table is built
    on first use per :class:`SmoothingParams`.
    Equal maps have equal fields, arrays equal in dtype and value.
    """

    origin: GeoPoint
    grid_length: float
    anchor_x: float
    anchor_y: float
    keys: tuple[tuple[int, int], ...]
    centroids: np.ndarray
    hist_cell: np.ndarray
    hist_tower: np.ndarray
    counts: np.ndarray
    point_xy: np.ndarray
    point_offsets: np.ndarray
    n_read: np.ndarray
    reading_tower: np.ndarray
    reading_asu: np.ndarray
    tower_ids: tuple[str, ...]
    tower_locations: dict[str, PlanarPoint] | None = None
    _tower_index: dict[str, int] = field(init=False, repr=False, compare=False)
    _mean_asu: np.ndarray = field(init=False, repr=False, compare=False)
    _mean_asu_norm2: np.ndarray = field(init=False, repr=False, compare=False)
    _points: dict = field(init=False, repr=False, compare=False)  # cell key -> point arrays
    _loglik: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        asu, counts = np.asarray(self.reading_asu), np.asarray(self.counts)
        if asu.size and not 0 <= asu.min() <= asu.max() <= ASU_MAX:  # before the int8 store
            raise ValueError(f"a point reading is outside ASU 0..{ASU_MAX}")
        if counts.size and counts.min() < 0:  # before the int32 store, as for the ASUs
            raise ValueError("histogram counts must be non-negative")
        if counts.size and counts.max() > _INT32_MAX:
            raise ValueError(f"a histogram count does not fit in int32 (above {_INT32_MAX})")
        for name, (_, _, dtype) in _MAP_FIELDS.items():
            if dtype is not None:
                object.__setattr__(self, name, np.array(getattr(self, name), dtype=dtype))
                getattr(self, name).setflags(write=False)
        keys, counts, cell_points, n_read = self.keys, self.counts, self.point_offsets, self.n_read
        if not keys:
            raise ValueError("radio map has no cells")
        check_positive_finite("grid_length", self.grid_length)
        if counts.ndim != 2 or counts.shape[1] != N_ASU_BINS:
            raise ValueError(f"histograms must have {N_ASU_BINS} bins")
        for tid in chain(self.tower_ids, self.tower_locations or ()):
            check_tower_id(tid)
        if not all(a < b for a, b in zip(self.tower_ids, self.tower_ids[1:])):
            raise ValueError("'towers' must be sorted, each tower once")
        tower_index = {tid: i for i, tid in enumerate(self.tower_ids)}
        n_cells, n_points, n_towers = len(keys), len(self.point_xy), len(tower_index)
        shapes = [a.shape for a in (self.centroids, self.point_xy, self.hist_cell, self.hist_tower,
                                    cell_points)]
        if (shapes != [(n_cells, 2), (n_points, 2), counts.shape[:1], counts.shape[:1],
                       (n_cells + 1,)]
                or [cell_points[0], cell_points[-1]] != [0, n_points]
                or (np.diff(cell_points) < 0).any()
                or not all(a < b for a, b in zip(keys, keys[1:]))):
            raise ValueError("map arrays disagree in shape or offsets, or keys are not sorted")
        if [n_read.shape, self.reading_asu.shape] != [(n_points,), self.reading_tower.shape]:
            raise ValueError("reading counts disagree with point_xy, or readings in length")
        for columns in (self.hist_tower, self.reading_tower):
            if unknown := sorted(set(columns[(columns < 0) | (columns >= n_towers)].tolist())):
                raise ValueError(f"map names towers not in 'towers': columns {unknown}")
        if (((self.hist_cell < 0) | (self.hist_cell >= n_cells)).any()
                or (np.diff(self.hist_cell * n_towers + self.hist_tower) <= 0).any()):
            raise ValueError("histograms must be one per (cell, tower) pair, in that order")
        empty = np.bincount(self.hist_cell, minlength=n_cells) == 0
        if empty.any():
            raise ValueError(f"cell {keys[np.argmax(empty)]} holds no histogram")
        totals = counts.sum(axis=1, dtype=np.int64)  # 32 int32 bins cannot wrap it
        if totals.min() < 1:
            raise ValueError("stored histograms must hold at least one reading")
        if ((n_read < 1) | (n_read > MAX_READINGS)).any():  # first: 4 x 2**62 wraps the sum to 0
            raise ValueError(f"fingerprint points must have 1..{MAX_READINGS} readings")
        if self.reading_tower.shape != (n_read.sum(),):
            raise ValueError("reading counts disagree with the number of readings")
        reading_point = np.repeat(np.arange(n_points), n_read)
        if (np.diff(reading_point * n_towers + self.reading_tower) <= 0).any():
            raise ValueError("a point reads one tower twice or out of column order")
        planar = [(self.anchor_x, self.anchor_y), self.centroids, self.point_xy,
                  [[p.x, p.y] for p in (self.tower_locations or {}).values()]]
        if not all(np.isfinite(a).all() for a in planar):
            raise ValueError("anchor, centroids, point and tower locations must be finite")
        mean_asu = np.zeros((n_cells, n_towers))
        # An exact integer sum, then one division: the mean ASU of each histogram.
        mean_asu[self.hist_cell, self.hist_tower] = (
            counts @ np.arange(N_ASU_BINS, dtype=np.int64)) / totals
        norm2 = (mean_asu * mean_asu).sum(axis=1)
        # Hybrid's dense copy of the readings costs 0.40 MB on urban seed 0 but is
        # faster than either way without it, all in int32: clipping the cell's rows
        # per call (28.8 -> 31.3 us rural, 18.7 -> 20.7 us urban per estimate) or
        # ranking by |r|^2 - 2 r.v over the scan's heard towers (35.6 / 21.9 us).
        readings = np.zeros((n_points, n_towers), dtype=np.int8)
        readings[reading_point, self.reading_tower] = self.reading_asu
        for array in (mean_asu, norm2, readings):
            array.setflags(write=False)
        bounds = cell_points.tolist()
        points = {key: (self.point_xy[a:b], readings[a:b])
                  for key, a, b in zip(keys, bounds, bounds[1:])}
        for name, value in (("_tower_index", tower_index), ("_mean_asu", mean_asu),
                            ("_mean_asu_norm2", norm2), ("_points", points)):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        """Every field equal, arrays in dtype and value; never builds :attr:`cells`."""
        if not isinstance(other, RadioMap):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare)
        return all(a.dtype == b.dtype and np.array_equal(a, b) if isinstance(a, np.ndarray)
                   else a == b for a, b in pairs)

    @functools.cached_property
    def cells(self) -> dict[tuple[int, int], GridCell]:
        """The map as :class:`GridCell` objects keyed by (row, col), built on first access.

        A read-only view that nothing in the package reads.  It remains for
        the benchmark's brute-force reference until that reads the arrays.
        """
        towers = self.tower_ids
        hists = [(towers[t], TowerHistogram(tuple(c)))
                 for t, c in zip(self.hist_tower.tolist(), self.counts.tolist())]
        names = [towers[t] for t in self.reading_tower.tolist()]
        asus, r = self.reading_asu.tolist(), _offsets(self.n_read).tolist()
        points = [FingerprintPoint(PlanarPoint(x, y), dict(zip(names[a:b], asus[a:b])))
                  for (x, y), a, b in zip(self.point_xy.tolist(), r, r[1:])]
        h, p = _offsets(np.bincount(self.hist_cell)).tolist(), self.point_offsets.tolist()
        return {key: GridCell(PlanarPoint(x, y), tuple(points[p[c]:p[c + 1]]),
                              dict(hists[h[c]:h[c + 1]]))
                for c, (key, (x, y)) in enumerate(zip(self.keys, self.centroids.tolist()))}

    @property
    def n_cells(self) -> int:
        return len(self.keys)

    def cell_keys(self) -> tuple[tuple[int, int], ...]:
        """Cell indices in deterministic (row, col) order."""
        return self.keys

    def centroid_array(self) -> np.ndarray:
        """(n_cells, 2) centroid coordinates aligned with :meth:`cell_keys`."""
        return self.centroids

    def tower_index(self) -> dict[str, int]:
        """Stable tower id -> column index mapping (lexicographic)."""
        return self._tower_index

    def log_likelihood_table(self, smoothing: SmoothingParams) -> np.ndarray:
        """Smoothed per-cell log-likelihoods, shape (n_towers + 1, 32, n_cells).

        ``table[t, asu]`` is the vector of log P(asu | cell) over all cells
        for tower ``t`` (indices per :meth:`tower_index` and
        :meth:`cell_keys`).  Cells without a histogram for a tower hold
        log(p_min).  The last row, ``table[n_towers]``, is the floor row: it
        holds log(p_min) in every cell and scores towers the map never heard.
        """
        table = self._loglik.get(smoothing)
        if table is None:
            shape = (len(self._tower_index) + 1, N_ASU_BINS, self.n_cells)
            table = np.full(shape, math.log(smoothing.p_min), dtype=float)
            counts, alpha = self.counts, smoothing.alpha
            probs = counts.astype(float)  # one buffer; float first, as alpha may be an int
            probs += alpha
            probs /= (counts.sum(axis=1, dtype=np.int64) + N_ASU_BINS * alpha)[:, None]
            table[self.hist_tower, :, self.hist_cell] = np.log(probs, out=probs)
            table.setflags(write=False)
            self._loglik[smoothing] = table
        return table

    def mean_asu_matrix(self) -> np.ndarray:
        """(n_cells, n_towers) per-cell mean ASU, 0.0 where a tower is unheard."""
        return self._mean_asu

    def mean_asu_norm2(self) -> np.ndarray:
        """(n_cells,) squared Euclidean norm of each row of :meth:`mean_asu_matrix`."""
        return self._mean_asu_norm2

    def cell_point_arrays(self, key: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """One cell's points as arrays: locations (P, 2) and readings (P, n_towers).

        The readings matrix is indexed per :meth:`tower_index` with ASU 0
        for towers a point did not hear, which matches the "not
        heard is at the sensitivity floor" imputation of RSSI-space distances.
        """
        return self._points[key]


def planar_truths(scans: Sequence[ScanVector], origin: GeoPoint | None = None):
    """``(origin, xy)``: the ground truths projected about ``origin``, by default their mean.

    ``ValueError`` names the first scan without ground truth, or an empty trace without an origin.
    """
    truths = [scan.truth for scan in scans]
    for scan, truth in zip(scans, truths):
        if truth is None:  # identity, not ``None in truths``, which calls GeoPoint.__eq__
            raise ValueError(f"scan at t={scan.timestamp} has no ground truth")
    if origin is None:
        if not truths:
            raise ValueError("cannot take an origin from an empty trace")
        origin = GeoPoint(
            float_sum(t.lat for t in truths) / len(truths),
            float_sum(t.lon for t in truths) / len(truths),
        )
    return origin, project_array(origin, truths)


def reading_arrays(scans: Sequence[ScanVector]):
    """Every reading of ``scans`` in one flat pass: the heard towers and four arrays.

    Returns ``(towers, n_read, reading_tower, reading_asu)``: the sorted
    tower ids, each scan's number of readings, and per reading, in scan
    order and each scan's dict order, its tower's position in ``towers``
    and its ASU as a float (exact for ASUs; a float lets a GP fit see and
    reject a non-finite value).
    """
    readings = [scan.readings for scan in scans]
    names = list(chain.from_iterable(readings))
    towers = sorted(set(names))
    column = dict(zip(towers, range(len(towers))))
    return (towers, np.fromiter(map(len, readings), np.intp, len(readings)),
            np.fromiter(map(column.__getitem__, names), np.intp, len(names)),
            np.fromiter(chain.from_iterable(map(dict.values, readings)), float, len(names)))


def _point_means(point_cell: np.ndarray, xy: np.ndarray, n_cells: int):
    """Per cell, the mean location of its points (NaN if none) and their number.

    ``np.bincount`` adds each cell's points one at a time, in point order, so
    a mean is bit-equal to a left-to-right float sum over the count;
    ``np.add.reduceat`` and ``.sum()`` add pairwise and are not.
    """
    n = np.bincount(point_cell, minlength=n_cells)
    sums = np.stack([np.bincount(point_cell, weights=xy[:, d], minlength=n_cells)
                     for d in (0, 1)], axis=1)
    with np.errstate(invalid="ignore"):
        return sums / n[:, None], n


def build_radio_map(
    scans: Sequence[ScanVector],
    grid_length: float,
    *,
    origin: GeoPoint | None = None,
    tower_locations: Mapping[str, GeoPoint] | None = None,
    strip_points: bool = False,
) -> RadioMap:
    """Build the fingerprint from a ground-truthed training trace.

    Each scan becomes one fingerprint point at its ground-truth position.
    Points are bucketed into grid cells of side ``grid_length`` anchored at
    the minimum x/y of the data, histograms accumulate one count per
    reading, and each cell's centroid is the mean of its member points.
    The trace is read once into arrays (:func:`planar_truths` and
    :func:`reading_arrays`); everything after that is array work.

    Args:
        scans: training scans; every one must carry ground truth.
        grid_length: cell side in meters, positive and finite.
        origin: projection origin; defaults to the centroid of the truths.
        tower_locations: optional geodetic tower positions to embed (the
            cell-ID baseline needs them).
        strip_points: drop raw points after histogramming.  Saves memory
            for deployments that never run the hybrid refinement phase.

    Raises:
        ValueError: on a bad or too fine grid length, empty input, or a
            scan without ground truth (the error names its timestamp).
    """
    check_positive_finite("grid_length", grid_length)
    if not scans:
        raise ValueError("cannot build a radio map from an empty trace")
    origin, xy = planar_truths(scans, origin)
    anchor = xy.min(axis=0)
    with np.errstate(over="ignore"):
        cell = np.floor((xy - anchor) / grid_length)
    if cell.max() >= 2**31:  # keeps the int64 key row * width + col from wrapping
        raise ValueError(f"grid_length {grid_length} puts a cell index at 2**31 or more")
    col, row = cell.astype(np.int64).T
    width = int(col.max()) + 1
    cells, point_cell = np.unique(row * width + col, return_inverse=True)
    keys = tuple(zip((cells // width).tolist(), (cells % width).tolist()))

    towers, n_read, reading_tower, reading_asu = reading_arrays(scans)
    n_towers = len(towers)
    reading_point = np.repeat(np.arange(len(scans)), n_read)
    # One histogram per heard (cell, tower) pair, all counted by one bincount.
    pair = point_cell[reading_point] * n_towers + reading_tower
    heard = np.bincount(pair) > 0
    pairs, hist = np.flatnonzero(heard), (np.cumsum(heard) - 1)[pair]
    counts = np.bincount(hist * N_ASU_BINS + reading_asu.astype(np.intp),
                         minlength=len(pairs) * N_ASU_BINS)
    # Points cell by cell, in scan order within a cell; each point's readings in column order.
    order = np.argsort(point_cell, kind="stable")
    rank = np.argsort(order)  # each point's position in order
    by_point = np.argsort(rank[reading_point] * n_towers + reading_tower)
    if strip_points:
        order, by_point = order[:0], by_point[:0]

    planar_towers = None
    if tower_locations is not None:
        ids = list(tower_locations)
        tower_xy = project_array(origin, [tower_locations[tid] for tid in ids]).tolist()
        planar_towers = {tid: PlanarPoint(x, y) for tid, (x, y) in zip(ids, tower_xy)}
    return RadioMap(
        origin, float(grid_length), float(anchor[0]), float(anchor[1]), keys,
        centroids=_point_means(point_cell, xy, len(keys))[0],
        hist_cell=pairs // n_towers, hist_tower=pairs % n_towers,
        counts=counts.reshape(-1, N_ASU_BINS), point_xy=xy[order], n_read=n_read[order],
        point_offsets=_offsets(np.bincount(point_cell[order], minlength=len(keys))),
        reading_tower=reading_tower[by_point], reading_asu=reading_asu[by_point],
        tower_ids=tuple(towers), tower_locations=planar_towers,
    )


def ablate_towers(radio_map: RadioMap, drop_fraction: float, seed: int) -> RadioMap:
    """Remove a seeded random subset of towers from the whole map.

    The dropped towers disappear from every histogram, every retained
    fingerprint point and the tower registry; points left with no readings
    are dropped (centroids recomputed; a cell left with no point keeps its
    own), and cells left with no towers are removed.

    Raises:
        ValueError: if drop_fraction breaks :func:`~gsmloc.geo.check_drop_fraction` or
            rounding would drop every tower.
    """
    check_drop_fraction(drop_fraction)
    towers = radio_map.tower_ids
    n_drop = int(round(drop_fraction * len(towers)))
    if n_drop == 0:
        return radio_map
    if n_drop >= len(towers):
        raise ValueError("ablation would drop every tower")
    rng = np.random.default_rng(seed)
    dropped = {towers[i] for i in rng.choice(len(towers), size=n_drop, replace=False)}

    rm = radio_map
    kept = np.array([tid not in dropped for tid in towers])
    hist = kept[rm.hist_tower]
    live = np.bincount(rm.hist_cell[hist], minlength=rm.n_cells) > 0
    point_cell = np.repeat(np.arange(rm.n_cells), np.diff(rm.point_offsets))
    reading_point = np.repeat(np.arange(len(rm.n_read)), rm.n_read)
    reading = kept[rm.reading_tower] & live[point_cell[reading_point]]
    n_read = np.bincount(reading_point[reading], minlength=len(rm.n_read))
    point = n_read > 0
    means, n_kept = _point_means(point_cell[point], rm.point_xy[point], rm.n_cells)
    column = np.cumsum(kept) - 1

    tower_locations = None if rm.tower_locations is None else {
        t: p for t, p in rm.tower_locations.items() if t not in dropped}
    return RadioMap(
        rm.origin, rm.grid_length, rm.anchor_x, rm.anchor_y, tuple(compress(rm.keys, live)),
        centroids=np.where(n_kept[:, None] > 0, means, rm.centroids)[live],
        hist_cell=(np.cumsum(live) - 1)[rm.hist_cell[hist]],
        hist_tower=column[rm.hist_tower[hist]], counts=rm.counts[hist],
        point_xy=rm.point_xy[point], point_offsets=_offsets(n_kept[live]), n_read=n_read[point],
        reading_tower=column[rm.reading_tower[reading]], reading_asu=rm.reading_asu[reading],
        tower_ids=tuple(compress(towers, kept)),
        tower_locations=tower_locations,
    )


# ---------------------------------------------------------------------------
# Persistence: versioned JSON, deterministic field order, full float precision
# ---------------------------------------------------------------------------


def save_radio_map(radio_map: RadioMap, path: str) -> None:
    """Serialize a map to versioned JSON, one field per array.  Byte-identical for equal maps."""
    body: dict = {name: np.asarray(getattr(radio_map, name)).tolist() for name in _MAP_FIELDS}
    body.update(grid_length_m=radio_map.grid_length, towers=radio_map.tower_ids,
                grid_anchor={"x": radio_map.anchor_x, "y": radio_map.anchor_y})
    if (locations := radio_map.tower_locations) is not None:
        body["tower_locations"] = {tid: {"x": p.x, "y": p.y} for tid, p in locations.items()}
    save_document(path, RADIO_MAP_KIND, radio_map.origin, body)


def save_document(path: str, kind: str, origin: GeoPoint, body: dict) -> None:
    """Write ``body`` in the versioned JSON envelope (version, kind, origin), keys sorted."""
    doc = {"version": MAP_FORMAT_VERSION, "kind": kind,
           "origin": {"lat": origin.lat, "lon": origin.lon}, **body}
    with open(path, "w", encoding="utf-8") as fh:
        # json.dumps is ~4x faster but holds the whole text: urban peak RSS 110 -> 112.7 MB.
        json.dump(doc, fh, sort_keys=True)


def load_document(path: str, kind: str, label: str, parse: Callable[[dict, GeoPoint], _T]) -> _T:
    """``parse(doc, origin)`` of a :func:`save_document` file of ``kind``.

    ``MapFormatError`` on bad JSON, another version or kind, or an error of
    the origin or of ``parse``, which it reports as a malformed ``label``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MapFormatError(f"{path}: not valid UTF-8 JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise MapFormatError(f"{path}: expected a JSON object at top level")
    if doc.get("version") != MAP_FORMAT_VERSION:
        raise MapFormatError(f"{path}: unsupported format version {doc.get('version')!r} "
                             f"(expected {MAP_FORMAT_VERSION})")
    if doc.get("kind") != kind:
        raise MapFormatError(f"{path}: kind {doc.get('kind')!r}, expected {kind!r}")
    try:
        return parse(doc, GeoPoint(*json_floats(doc["origin"], "lat", "lon")))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MapFormatError(f"{path}: malformed {label} ({exc})") from exc


def json_value(value, kind: type):
    """``value`` if its JSON type is ``kind``, else ``TypeError``.

    A ``float`` field takes any JSON number and returns it as a float; an
    ``int`` field takes only a JSON integer.  A bool or a string is never a
    number, and ``list`` and ``dict`` are the JSON array and object.
    """
    if type(value) not in ((int, float) if kind is float else (kind,)):
        raise TypeError(f"expected {kind.__name__}, got {value!r:.40}")
    return float(value) if kind is float else value


def json_array(value, kind: type, width: int = 0) -> np.ndarray:
    """A JSON array of ``kind`` numbers, or of rows of ``width``, as a read-only array.

    Each number obeys :func:`json_value`, tested once per Python type present;
    ``OverflowError`` on one too large for float64 or, if ``kind`` is int, int64.
    """
    rows = json_value(value, list)
    if width and any(len(json_value(row, list)) != width for row in rows):
        raise ValueError(f"expected rows of {width} numbers")
    flat = list(chain.from_iterable(rows)) if width else rows
    for sample in {type(v): v for v in flat}.values():
        json_value(sample, kind)
    array = np.array(flat, dtype=np.float64 if kind is float else np.int64)
    array.setflags(write=False)
    return array.reshape(-1, width) if width else array


def json_floats(obj: dict, *keys: str) -> list[float]:
    """The named fields of a JSON object, each a JSON number, as floats."""
    return [json_value(obj[k], float) for k in keys]


def load_radio_map(path: str) -> RadioMap:
    """Read a map saved by :func:`save_radio_map`.

    Raises:
        MapFormatError: on another version (rebuild a version-1 file with
            ``gsmloc build``), a malformed/truncated file, a missing field, an
            array breaking :func:`json_array`, ``towers`` not a list, an origin
            outside the lat/lon range, or any :class:`RadioMap` rule (``towers`` not
            strings, unsorted or repeated; a repeated cell breaks the key order);
            never a partial map.
    """
    return load_document(path, RADIO_MAP_KIND, "radio map", _parse_radio_map)


def _parse_radio_map(doc: dict, origin: GeoPoint) -> RadioMap:
    arrays = {name: json_array(doc[name], kind, width)
              for name, (kind, width, _) in _MAP_FIELDS.items()}
    tower_locations = None if "tower_locations" not in doc else {
        tid: PlanarPoint(*json_floats(p, "x", "y"))
        for tid, p in json_value(doc["tower_locations"], dict).items()}
    return RadioMap(
        origin, json_value(doc["grid_length_m"], float), *json_floats(doc["grid_anchor"], "x", "y"),
        tuple(map(tuple, arrays.pop("keys").tolist())), **arrays,
        tower_ids=tuple(json_value(doc["towers"], list)),
        tower_locations=tower_locations)
