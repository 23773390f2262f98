"""Offline phase: build the gridded probabilistic fingerprint.

The area covered by a training trace is divided into square cells of side
``grid_length``.  Every training scan contributes one fingerprint point at
its ground-truth position; all points falling in a cell are pooled into one
per-tower ASU histogram, and the cell is represented by the center of mass
of its points.  Cells with no points are simply absent.  A
:class:`RadioMap` stores all of this as arrays.  Its ``cells`` view of
:class:`GridCell` objects is built on first access, for the benchmark's
brute-force reference alone.

Histograms turn into likelihoods through Laplace smoothing over the 32-bin
ASU support, with a small floor probability for towers that were never
heard in a cell, so an online observation can penalize but never veto a
candidate cell.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, fields
from itertools import compress
from typing import Mapping, Sequence

import numpy as np

from .geo import (
    ASU_MAX,
    MAX_READINGS,
    GeoPoint,
    PlanarPoint,
    ScanVector,
    project,
)

N_ASU_BINS = ASU_MAX + 1

MAP_FORMAT_VERSION = 1
RADIO_MAP_KIND = "radio_map"


class MapFormatError(ValueError):
    """A persisted map file is malformed, truncated or of an unknown version."""


@dataclass(frozen=True)
class SmoothingParams:
    """Histogram smoothing constants for likelihood evaluation.

    alpha: Laplace constant added to every ASU bin.  Zero-count bins would
        otherwise zero out the whole likelihood product on any unseen ASU.
    p_min: floor probability for a tower with no histogram in a cell.
    """

    alpha: float = 0.5
    p_min: float = 1e-4

    def __post_init__(self) -> None:
        if self.alpha < 0.0:
            raise ValueError("alpha must be >= 0")
        if not 0.0 < self.p_min <= 1.0:
            raise ValueError("p_min must be in (0, 1]")


@dataclass(frozen=True)
class FingerprintPoint:
    """One war-driving sample in :attr:`RadioMap.cells`: a position and the towers heard."""

    location: PlanarPoint
    readings: dict[str, int]


@dataclass(frozen=True)
class TowerHistogram:
    """ASU histogram of one tower within one grid cell (32 integer bins)."""

    counts: tuple[int, ...]


@dataclass(frozen=True)
class GridCell:
    """One grid square in :attr:`RadioMap.cells`, which keys it by (row, col)."""

    centroid: PlanarPoint
    points: tuple[FingerprintPoint, ...]
    histograms: dict[str, TowerHistogram]


#: The dtype each array field of :class:`RadioMap` is stored in.
_ARRAYS = dict(centroids=np.float64, hist_cell=np.intp, hist_tower=np.intp, counts=np.int64,
               point_xy=np.float64, point_offsets=np.intp, reading_offsets=np.intp,
               reading_tower=np.intp, reading_asu=np.uint8)


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
    position in ``sorted(tower_ids)``.  Each heard (cell, tower) pair, in
    that order, has a ``hist_cell``, ``hist_tower`` and 32 ``counts``.
    Cell c's points are ``point_xy[point_offsets[c]:point_offsets[c+1]]``
    (none with ``strip_points``), and point i's readings, in column order,
    are ``reading_tower`` and ``reading_asu`` (ASU 0 included) over
    ``reading_offsets[i]:reading_offsets[i+1]``.

    Construction stores read-only copies in fixed dtypes, derives the
    mean-ASU matrix, its row norms and hybrid's dense readings, and raises
    ``ValueError`` on the first rule broken: at least one cell, each with
    a histogram; 32 bins, counts >= 0 and one reading or more per
    histogram; histogram and point towers in ``tower_ids``; 1..7 readings
    per point, each in ASU 0..31; a positive finite ``grid_length``; a
    finite anchor, centroids, point and tower locations; arrays agreeing in
    shape, offsets and order.  The log-likelihood table is built on first
    use per :class:`SmoothingParams`, and :attr:`cells`, a view of the
    arrays as :class:`GridCell` objects kept for the benchmark's reference,
    on first access.  Equal maps have equal fields, arrays equal in dtype
    and value.
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
    reading_offsets: np.ndarray
    reading_tower: np.ndarray
    reading_asu: np.ndarray
    tower_ids: frozenset[str]
    tower_locations: dict[str, PlanarPoint] | None = None
    _tower_index: dict[str, int] = field(init=False, repr=False, compare=False)
    _mean_asu: np.ndarray = field(init=False, repr=False, compare=False)
    _mean_asu_norm2: np.ndarray = field(init=False, repr=False, compare=False)
    _points: dict = field(init=False, repr=False, compare=False)  # cell key -> point arrays
    _loglik: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        asu = np.asarray(self.reading_asu)
        if asu.size and not 0 <= asu.min() <= asu.max() <= ASU_MAX:  # before the uint8 store
            raise ValueError(f"a point reading is outside ASU 0..{ASU_MAX}")
        for name, dtype in _ARRAYS.items():
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=dtype))
            getattr(self, name).setflags(write=False)
        keys, counts = self.keys, self.counts
        cell_points, point_reads = self.point_offsets, self.reading_offsets
        if not keys:
            raise ValueError("radio map has no cells")
        if not 0.0 < self.grid_length < math.inf:
            raise ValueError(f"grid_length {self.grid_length} is not a positive finite number")
        if counts.ndim != 2 or counts.shape[1] != N_ASU_BINS:
            raise ValueError(f"histograms must have {N_ASU_BINS} bins")
        n_cells, n_points, n_reads = len(keys), len(self.point_xy), len(self.reading_tower)
        shapes = [a.shape for a in (self.centroids, self.point_xy, self.hist_cell, self.hist_tower,
                                    self.reading_tower, self.reading_asu, cell_points, point_reads)]
        if (shapes != [(n_cells, 2), (n_points, 2), counts.shape[:1], counts.shape[:1],
                       (n_reads,), (n_reads,), (n_cells + 1,), (n_points + 1,)]
                or [cell_points[0], cell_points[-1], point_reads[0], point_reads[-1]]
                != [0, n_points, 0, n_reads] or (np.diff(cell_points) < 0).any()
                or not all(a < b for a, b in zip(keys, keys[1:]))):
            raise ValueError("map arrays disagree in shape or offsets, or keys are not sorted")
        tower_index = {tid: i for i, tid in enumerate(sorted(self.tower_ids))}
        n_towers = len(tower_index)
        columns = np.concatenate((self.hist_tower, self.reading_tower))
        if unknown := sorted(set(columns[(columns < 0) | (columns >= n_towers)].tolist())):
            raise ValueError(f"map names towers not in 'towers': columns {unknown}")
        if (((self.hist_cell < 0) | (self.hist_cell >= n_cells)).any()
                or (np.diff(self.hist_cell * n_towers + self.hist_tower) <= 0).any()):
            raise ValueError("histograms must be one per (cell, tower) pair, in that order")
        empty = np.bincount(self.hist_cell, minlength=n_cells) == 0
        if empty.any():
            raise ValueError(f"cell {keys[np.argmax(empty)]} holds no histogram")
        if counts.min() < 0:
            raise ValueError("histogram counts must be non-negative")
        totals = counts.sum(axis=1)
        if totals.min() < 1:
            raise ValueError("stored histograms must hold at least one reading")
        per_point = np.diff(point_reads)
        if ((per_point < 1) | (per_point > MAX_READINGS)).any():
            raise ValueError(f"fingerprint points must have 1..{MAX_READINGS} readings")
        reading_point = np.repeat(np.arange(n_points), per_point)
        if (np.diff(reading_point * n_towers + self.reading_tower) <= 0).any():
            raise ValueError("a point's readings must name each tower once, in column order")
        planar = [(self.anchor_x, self.anchor_y), self.centroids, self.point_xy,
                  [[p.x, p.y] for p in (self.tower_locations or {}).values()]]
        if not all(np.isfinite(a).all() for a in planar):
            raise ValueError("anchor, centroids, point and tower locations must be finite")
        mean_asu = np.zeros((n_cells, n_towers))
        # An exact integer sum, then one division: the mean ASU of each histogram.
        mean_asu[self.hist_cell, self.hist_tower] = (counts @ np.arange(N_ASU_BINS)) / totals
        norm2 = (mean_asu * mean_asu).sum(axis=1)
        dense = np.zeros((n_points, n_towers), dtype=np.uint8)
        dense[reading_point, self.reading_tower] = self.reading_asu
        for array in (mean_asu, norm2, dense):
            array.setflags(write=False)
        bounds = cell_points.tolist()
        points = {key: (self.point_xy[a:b], dense[a:b])
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

    def _cell_entries(self):
        """Each cell, in key order, as the JSON object :func:`save_radio_map` writes."""
        towers = sorted(self.tower_ids)
        hist_towers = [towers[t] for t in self.hist_tower.tolist()]
        names, asus = [towers[t] for t in self.reading_tower.tolist()], self.reading_asu.tolist()
        h = np.searchsorted(self.hist_cell, np.arange(self.n_cells + 1)).tolist()
        p, r = self.point_offsets.tolist(), self.reading_offsets.tolist()
        for c, ((row, col), (x, y)) in enumerate(zip(self.keys, self.centroids.tolist())):
            entry = {"row": row, "col": col, "centroid": {"x": x, "y": y}, "histograms": dict(
                zip(hist_towers[h[c]:h[c + 1]], self.counts[h[c]:h[c + 1]].tolist()))}
            if p[c] < p[c + 1]:
                entry["points"] = [
                    {"x": px, "y": py, "readings": dict(zip(names[a:b], asus[a:b]))}
                    for (px, py), a, b in zip(self.point_xy[p[c]:p[c + 1]].tolist(),
                                              r[p[c]:p[c + 1]], r[p[c] + 1:p[c + 1] + 1])]
            yield entry

    @functools.cached_property
    def cells(self) -> dict[tuple[int, int], GridCell]:
        """The map as :class:`GridCell` objects keyed by (row, col), built on first access.

        A read-only view that nothing in the package reads.  It remains for
        the benchmark's brute-force reference until that reads the arrays.
        """
        return {(e["row"], e["col"]): GridCell(
            PlanarPoint(e["centroid"]["x"], e["centroid"]["y"]),
            tuple(FingerprintPoint(PlanarPoint(p["x"], p["y"]), p["readings"])
                  for p in e.get("points", ())),
            {tid: TowerHistogram(tuple(c)) for tid, c in e["histograms"].items()},
        ) for e in self._cell_entries()}

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
        With alpha == 0, unseen ASU bins are -inf.
        """
        table = self._loglik.get(smoothing)
        if table is None:
            shape = (len(self._tower_index) + 1, N_ASU_BINS, self.n_cells)
            table = np.full(shape, math.log(smoothing.p_min), dtype=float)
            counts, alpha = self.counts, smoothing.alpha
            probs = (counts + alpha) / (counts.sum(axis=1) + N_ASU_BINS * alpha)[:, None]
            with np.errstate(divide="ignore"):
                table[self.hist_tower, :, self.hist_cell] = np.log(probs)
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

        The ``uint8`` readings matrix is indexed per :meth:`tower_index`
        with ASU 0 for towers a point did not hear, which matches the "not
        heard is at the sensitivity floor" imputation of RSSI-space distances.
        """
        return self._points[key]


def ground_truths(scans: Sequence[ScanVector]) -> list[GeoPoint]:
    """The scans' ground truths; ``ValueError`` names the first scan without one."""
    for scan in scans:
        if scan.truth is None:
            raise ValueError(f"scan at t={scan.timestamp} has no ground truth")
    return [scan.truth for scan in scans]


def default_origin(scans: Sequence[ScanVector]) -> GeoPoint:
    """The mean of the scans' ground truths: the default projection origin."""
    truths = ground_truths(scans)
    return GeoPoint(
        sum(t.lat for t in truths) / len(truths),
        sum(t.lon for t in truths) / len(truths),
    )


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

    Args:
        scans: training scans; every one must carry ground truth.
        grid_length: cell side in meters (> 0).
        origin: projection origin; defaults to the centroid of the truths.
        tower_locations: optional geodetic tower positions to embed (the
            cell-ID baseline needs them).
        strip_points: drop raw points after histogramming.  Saves memory
            for deployments that never run the hybrid refinement phase.

    Raises:
        ValueError: on empty input, non-positive grid length, or a scan
            without ground truth (the error names its timestamp).
    """
    if grid_length <= 0:
        raise ValueError("grid_length must be > 0")
    if not scans:
        raise ValueError("cannot build a radio map from an empty trace")
    truths = ground_truths(scans)
    if origin is None:
        origin = default_origin(scans)

    xy = np.array([(p.x, p.y) for p in (project(origin, truth) for truth in truths)])
    anchor = xy.min(axis=0)
    col, row = np.floor((xy - anchor) / grid_length).astype(np.int64).T
    width = int(col.max()) + 1
    cells, point_cell = np.unique(row * width + col, return_inverse=True)
    keys = tuple(zip((cells // width).tolist(), (cells % width).tolist()))

    towers = sorted({tid for scan in scans for tid in scan.readings})
    column = {tid: i for i, tid in enumerate(towers)}
    n_read = np.array([len(scan.readings) for scan in scans])
    reading_tower = np.array([column[tid] for scan in scans for tid in scan.readings], np.intp)
    reading_asu = np.array([asu for scan in scans for asu in scan.readings.values()], np.intp)
    reading_point = np.repeat(np.arange(len(scans)), n_read)
    # One histogram per heard (cell, tower) pair, all counted by one bincount.
    pairs, hist = np.unique(point_cell[reading_point] * len(towers) + reading_tower,
                            return_inverse=True)
    counts = np.bincount(hist * N_ASU_BINS + reading_asu, minlength=len(pairs) * N_ASU_BINS)
    # Points cell by cell in scan order; each point's readings in column order.
    order = np.argsort(point_cell, kind="stable")
    reading_order = np.lexsort((reading_tower, reading_point, point_cell[reading_point]))
    if strip_points:
        order = reading_order = order[:0]

    planar_towers = None if tower_locations is None else {
        tid: project(origin, gp) for tid, gp in sorted(tower_locations.items())}
    return RadioMap(
        origin, float(grid_length), float(anchor[0]), float(anchor[1]), keys,
        centroids=_point_means(point_cell, xy, len(keys))[0],
        hist_cell=pairs // len(towers), hist_tower=pairs % len(towers),
        counts=counts.reshape(-1, N_ASU_BINS), point_xy=xy[order],
        point_offsets=_offsets(np.bincount(point_cell[order], minlength=len(keys))),
        reading_offsets=_offsets(n_read[order]),
        reading_tower=reading_tower[reading_order], reading_asu=reading_asu[reading_order],
        tower_ids=frozenset(towers), tower_locations=planar_towers,
    )


def ablate_towers(radio_map: RadioMap, drop_fraction: float, seed: int) -> RadioMap:
    """Remove a seeded random subset of towers from the whole map.

    The dropped towers disappear from every histogram, every retained
    fingerprint point and the tower registry; points left with no readings
    are dropped (centroids recomputed; a cell left with no point keeps its
    own), and cells left with no towers are removed.

    Raises:
        ValueError: if drop_fraction is outside [0, 1) or rounding would
            drop every tower.
    """
    if not 0.0 <= drop_fraction < 1.0:
        raise ValueError("drop_fraction must be in [0, 1)")
    towers = sorted(radio_map.tower_ids)
    n_drop = int(round(drop_fraction * len(towers)))
    if n_drop == 0:
        return radio_map
    if n_drop >= len(towers):
        raise ValueError("ablation would drop every tower")
    rng = np.random.default_rng(seed)
    dropped = {towers[i] for i in rng.choice(len(towers), size=n_drop, replace=False)}

    rm = radio_map
    kept = np.array([tid not in dropped for tid in towers])
    new_column = np.cumsum(kept) - 1
    hist = kept[rm.hist_tower]
    live = np.bincount(rm.hist_cell[hist], minlength=rm.n_cells) > 0
    n_points = len(rm.point_xy)
    point_cell = np.repeat(np.arange(rm.n_cells), np.diff(rm.point_offsets))
    reading_point = np.repeat(np.arange(n_points), np.diff(rm.reading_offsets))
    reading = kept[rm.reading_tower]
    point = (np.bincount(reading_point[reading], minlength=n_points) > 0) & live[point_cell]
    reading &= point[reading_point]
    means, n_kept = _point_means(point_cell[point], rm.point_xy[point], rm.n_cells)

    tower_locations = None if rm.tower_locations is None else {
        t: p for t, p in rm.tower_locations.items() if t not in dropped}
    return RadioMap(
        rm.origin, rm.grid_length, rm.anchor_x, rm.anchor_y, tuple(compress(rm.keys, live)),
        centroids=np.where(n_kept[:, None] > 0, means, rm.centroids)[live],
        hist_cell=(np.cumsum(live) - 1)[rm.hist_cell[hist]],
        hist_tower=new_column[rm.hist_tower[hist]], counts=rm.counts[hist],
        point_xy=rm.point_xy[point], point_offsets=_offsets(n_kept[live]),
        reading_offsets=_offsets(np.bincount(reading_point[reading], minlength=n_points)[point]),
        reading_tower=new_column[rm.reading_tower[reading]], reading_asu=rm.reading_asu[reading],
        tower_ids=rm.tower_ids - dropped, tower_locations=tower_locations,
    )


# ---------------------------------------------------------------------------
# Persistence: versioned JSON, deterministic field order, full float precision
# ---------------------------------------------------------------------------


def save_radio_map(radio_map: RadioMap, path: str) -> None:
    """Serialize a map to versioned JSON.  Byte-identical for equal maps."""
    doc: dict = {
        "version": MAP_FORMAT_VERSION,
        "kind": RADIO_MAP_KIND,
        "origin": {"lat": radio_map.origin.lat, "lon": radio_map.origin.lon},
        "grid_length_m": radio_map.grid_length,
        "grid_anchor": {"x": radio_map.anchor_x, "y": radio_map.anchor_y},
        "towers": sorted(radio_map.tower_ids),
        "cells": list(radio_map._cell_entries()),
    }
    if radio_map.tower_locations is not None:
        doc["tower_locations"] = {
            tid: {"x": p.x, "y": p.y} for tid, p in radio_map.tower_locations.items()
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def load_document(path: str, expected_kind: str) -> dict:
    """Load a versioned JSON envelope, checking version and kind."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MapFormatError(f"{path}: not valid UTF-8 JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise MapFormatError(f"{path}: expected a JSON object at top level")
    version = doc.get("version")
    if version != MAP_FORMAT_VERSION:
        raise MapFormatError(
            f"{path}: unsupported format version {version!r} (expected {MAP_FORMAT_VERSION})"
        )
    kind = doc.get("kind")
    if kind != expected_kind:
        raise MapFormatError(f"{path}: kind {kind!r}, expected {expected_kind!r}")
    return doc


def json_value(value, kind: type):
    """``value`` if its JSON type is ``kind``, else ``TypeError``.

    A ``float`` field takes any JSON number and returns it as a float; an
    ``int`` field takes only a JSON integer.  A bool or a string is never a
    number, and ``list`` and ``dict`` are the JSON array and object.
    """
    if type(value) not in ((int, float) if kind is float else (kind,)):
        raise TypeError(f"expected {kind.__name__}, got {value!r:.40}")
    return float(value) if kind is float else value


def json_floats(obj: dict, *keys: str) -> list[float]:
    """The named fields of a JSON object, each a JSON number, as floats."""
    return [json_value(obj[k], float) for k in keys]


def load_radio_map(path: str) -> RadioMap:
    """Read a map saved by :func:`save_radio_map`.

    Raises:
        MapFormatError: on version mismatch, a malformed/truncated file, a
            field of the wrong JSON type (see :func:`json_value`) or too large
            for it, two entries for one cell, a histogram not of 32 counts, a
            histogram or point naming a tower missing from ``towers``, an
            origin outside the lat/lon range, or any other :class:`RadioMap`
            rule broken.  No partial map is ever returned.
    """
    doc = load_document(path, RADIO_MAP_KIND)
    try:
        entries: dict[tuple[int, int], dict] = {}
        for entry in json_value(doc["cells"], list):
            key = (json_value(entry["row"], int), json_value(entry["col"], int))
            if key in entries:
                raise ValueError(f"cell {key} appears more than once")
            entries[key] = entry
        tower_ids = frozenset(json_value(doc["towers"], list))
        column = {tid: i for i, tid in enumerate(sorted(tower_ids))}
        keys = sorted(entries)
        centroids, hist_cell, hist_tower, counts, point_xy = [], [], [], [], []
        point_offsets, reading_offsets, reading_tower, reading_asu = [0], [0], [], []
        named: set[str] = set()
        for c, key in enumerate(keys):
            centroids.append(json_floats(entries[key]["centroid"], "x", "y"))
            histograms = json_value(entries[key]["histograms"], dict)
            for tid in sorted(histograms):
                row = json_value(histograms[tid], list)
                if len(row) != N_ASU_BINS:
                    raise ValueError(f"histograms must have {N_ASU_BINS} bins")
                for n in row:
                    json_value(n, int)
                hist_cell.append(c)
                hist_tower.append(column.get(tid, -1))
                counts.append(row)
            for p in json_value(entries[key].get("points", []), list):
                point_xy.append(json_floats(p, "x", "y"))
                readings = json_value(p["readings"], dict)
                for tid in sorted(readings):
                    reading_tower.append(column.get(tid, -1))
                    reading_asu.append(json_value(readings[tid], int))
                named.update(readings)
                reading_offsets.append(len(reading_tower))
            named.update(histograms)
            point_offsets.append(len(point_xy))
        if not named <= tower_ids:
            raise ValueError(f"map names towers not in 'towers': {sorted(named - tower_ids)}")
        tower_locations = None if "tower_locations" not in doc else {
            tid: PlanarPoint(*json_floats(p, "x", "y"))
            for tid, p in json_value(doc["tower_locations"], dict).items()}
        return RadioMap(
            GeoPoint(*json_floats(doc["origin"], "lat", "lon")),
            json_value(doc["grid_length_m"], float), *json_floats(doc["grid_anchor"], "x", "y"),
            tuple(keys), centroids=centroids, hist_cell=hist_cell, hist_tower=hist_tower,
            counts=np.reshape(counts, (-1, N_ASU_BINS)), point_xy=np.reshape(point_xy, (-1, 2)),
            point_offsets=point_offsets, reading_offsets=reading_offsets,
            reading_tower=reading_tower, reading_asu=reading_asu,
            tower_ids=tower_ids, tower_locations=tower_locations)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MapFormatError(f"{path}: malformed radio map ({exc})") from exc
