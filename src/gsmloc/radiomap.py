"""Offline phase: build the gridded probabilistic fingerprint.

The area covered by a training trace is divided into square cells of side
``grid_length``.  Every training scan contributes one fingerprint point at
its ground-truth position; all points falling in a cell are pooled into one
per-tower ASU histogram, and the cell is represented by the center of mass
of its points.  Cells with no points are simply absent.

Histograms turn into likelihoods through Laplace smoothing over the 32-bin
ASU support, with a small floor probability for towers that were never
heard in a cell, so an online observation can penalize but never veto a
candidate cell.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from itertools import chain
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
    """One war-driving sample: a position and the towers heard there."""

    location: PlanarPoint
    readings: dict[str, int]


@dataclass(frozen=True)
class TowerHistogram:
    """ASU histogram of one tower within one grid cell (32 integer bins)."""

    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class GridCell:
    """One grid square's pooled fingerprint data; the map keys it by (row, col)."""

    centroid: PlanarPoint
    points: tuple[FingerprintPoint, ...]
    histograms: dict[str, TowerHistogram]


@dataclass(frozen=True)
class RadioMap:
    """The probabilistic fingerprint: grid geometry plus per-cell histograms.

    The grid is anchored at the minimum x/y of the training data, so cell
    (row, col) covers [anchor_x + col*G, anchor_x + (col+1)*G) horizontally
    and the same vertically with row.  The fields never change.  Construction
    builds every read-only array (centroids, mean ASU per tower and its
    per-cell squared norm, point arrays) except the log-likelihood table,
    built on first use once per :class:`SmoothingParams`.

    Construction checks every rule of a map, once, on those arrays or on the
    set of values the points take, and raises ``ValueError`` on the first one
    broken: there is at least one cell, and every cell holds at least one
    histogram; every histogram has 32 bins, counts >= 0 and at least one
    reading; every histogram tower and point tower is in ``tower_ids``; every
    point has 1..7 readings, each in ASU 0..31; ``grid_length`` is positive
    and finite; the anchor, centroids, point and tower locations are finite.
    """

    origin: GeoPoint
    grid_length: float
    anchor_x: float
    anchor_y: float
    cells: dict[tuple[int, int], GridCell]
    tower_ids: frozenset[str]
    tower_locations: dict[str, PlanarPoint] | None = None
    _keys: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    _tower_index: dict[str, int] = field(init=False, repr=False, compare=False)
    _centroids: np.ndarray = field(init=False, repr=False, compare=False)
    _mean_asu: np.ndarray = field(init=False, repr=False, compare=False)
    _mean_asu_norm2: np.ndarray = field(init=False, repr=False, compare=False)
    _points: dict = field(init=False, repr=False, compare=False)  # cell key -> point arrays
    _loglik: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("radio map has no cells")
        if not 0.0 < self.grid_length < math.inf:
            raise ValueError(f"grid_length {self.grid_length} is not a positive finite number")
        keys = tuple(sorted(self.cells))
        tower_index = {tid: i for i, tid in enumerate(sorted(self.tower_ids))}
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_tower_index", tower_index)
        bins = {len(h.counts) for cell in self.cells.values() for h in cell.histograms.values()}
        if bins - {N_ASU_BINS}:
            raise ValueError(f"histograms must have {N_ASU_BINS} bins")
        rows, cols, counts = self._histogram_rows()
        empty = np.bincount(rows, minlength=len(keys)) == 0
        if empty.any():
            raise ValueError(f"cell {keys[np.argmax(empty)]} holds no histogram")
        if counts.min() < 0:
            raise ValueError("histogram counts must be non-negative")
        totals = counts.sum(axis=1)
        if totals.min() < 1:
            raise ValueError("stored histograms must hold at least one reading")
        # Each point rule is checked once, on the set of values the points take.
        points = [p for key in keys for p in self.cells[key].points]
        point_towers = set(chain.from_iterable(p.readings for p in points))
        if cols.min() < 0 or not point_towers <= self.tower_ids:
            named = point_towers.union(*(cell.histograms for cell in self.cells.values()))
            raise ValueError(f"map names towers not in 'towers': {sorted(named - self.tower_ids)}")
        if not {len(p.readings) for p in points} <= set(range(1, MAX_READINGS + 1)):
            raise ValueError(f"fingerprint points must have 1..{MAX_READINGS} readings")
        asus = set(chain.from_iterable(p.readings.values() for p in points))
        if not asus <= set(range(N_ASU_BINS)):
            raise ValueError(f"a point reading is outside ASU 0..{ASU_MAX}")
        centroids = np.array([[self.cells[k].centroid.x, self.cells[k].centroid.y] for k in keys])
        mean_asu = np.zeros((len(keys), len(tower_index)))
        # An exact integer sum, then one division: the mean ASU of each histogram.
        mean_asu[rows, cols] = (counts @ np.arange(N_ASU_BINS)) / totals
        per_cell = {}
        for key in keys:
            cell = self.cells[key]
            locations = np.array([[p.location.x, p.location.y] for p in cell.points])
            readings = np.zeros((len(cell.points), len(tower_index)), dtype=np.uint8)
            for i, p in enumerate(cell.points):
                for tid, asu in p.readings.items():
                    readings[i, tower_index[tid]] = asu
            per_cell[key] = (locations, readings)
        planar = [(self.anchor_x, self.anchor_y), centroids, *(xy for xy, _ in per_cell.values()),
                  [[p.x, p.y] for p in (self.tower_locations or {}).values()]]
        if not all(np.isfinite(a).all() for a in planar):
            raise ValueError("anchor, centroids, point and tower locations must be finite")
        norm2 = (mean_asu * mean_asu).sum(axis=1)
        for array in (centroids, mean_asu, norm2, *(a for pair in per_cell.values() for a in pair)):
            array.setflags(write=False)
        for name, value in (("_centroids", centroids), ("_mean_asu", mean_asu),
                            ("_mean_asu_norm2", norm2), ("_points", per_cell)):
            object.__setattr__(self, name, value)

    def _histogram_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each histogram as a cell position, a tower column (-1 if unknown) and a counts row."""
        heard = [(ci, self._tower_index.get(tid, -1), hist.counts)
                 for ci, key in enumerate(self._keys)
                 for tid, hist in self.cells[key].histograms.items()]
        rows, cols = (np.array([h[i] for h in heard], dtype=np.intp) for i in (0, 1))
        return rows, cols, np.array([h[2] for h in heard], dtype=np.int64)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def has_points(self) -> bool:
        """True when raw fingerprint points were retained in every cell."""
        return all(cell.points for cell in self.cells.values())

    def cell_keys(self) -> tuple[tuple[int, int], ...]:
        """Cell indices in deterministic (row, col) order."""
        return self._keys

    def centroid_array(self) -> np.ndarray:
        """(n_cells, 2) centroid coordinates aligned with :meth:`cell_keys`."""
        return self._centroids

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
            shape = (len(self._tower_index) + 1, N_ASU_BINS, len(self._keys))
            table = np.full(shape, math.log(smoothing.p_min), dtype=float)
            rows, cols, counts = self._histogram_rows()
            alpha = smoothing.alpha
            probs = (counts + alpha) / (counts.sum(axis=1) + N_ASU_BINS * alpha)[:, None]
            with np.errstate(divide="ignore"):
                table[cols, :, rows] = np.log(probs)
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


def _centroid(points: Sequence[FingerprintPoint]) -> PlanarPoint:
    """A cell's centroid: the mean position of its member points."""
    return PlanarPoint(
        sum(p.location.x for p in points) / len(points),
        sum(p.location.y for p in points) / len(points),
    )


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

    points = [
        FingerprintPoint(project(origin, truth), dict(scan.readings))
        for scan, truth in zip(scans, truths)
    ]
    anchor_x = min(p.location.x for p in points)
    anchor_y = min(p.location.y for p in points)

    buckets: dict[tuple[int, int], list[FingerprintPoint]] = {}
    for p in points:
        col = math.floor((p.location.x - anchor_x) / grid_length)
        row = math.floor((p.location.y - anchor_y) / grid_length)
        buckets.setdefault((row, col), []).append(p)

    cells: dict[tuple[int, int], GridCell] = {}
    tower_ids: set[str] = set()
    for key, members in sorted(buckets.items()):
        counts: dict[str, list[int]] = {}
        for p in members:
            for tid, asu in p.readings.items():
                counts.setdefault(tid, [0] * N_ASU_BINS)[asu] += 1
        histograms = {tid: TowerHistogram(tuple(c)) for tid, c in sorted(counts.items())}
        tower_ids.update(histograms)
        cells[key] = GridCell(
            centroid=_centroid(members),
            points=() if strip_points else tuple(members),
            histograms=histograms,
        )

    planar_towers = None if tower_locations is None else {
        tid: project(origin, gp) for tid, gp in sorted(tower_locations.items())}

    return RadioMap(
        origin=origin,
        grid_length=float(grid_length),
        anchor_x=anchor_x,
        anchor_y=anchor_y,
        cells=cells,
        tower_ids=frozenset(tower_ids),
        tower_locations=planar_towers,
    )


def ablate_towers(radio_map: RadioMap, drop_fraction: float, seed: int) -> RadioMap:
    """Remove a seeded random subset of towers from the whole map.

    The dropped towers disappear from every histogram, every retained
    fingerprint point and the tower registry; points left with no readings
    are dropped (centroids recomputed), and cells left with no towers are
    removed.

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

    cells: dict[tuple[int, int], GridCell] = {}
    for key, cell in radio_map.cells.items():
        histograms = {t: h for t, h in cell.histograms.items() if t not in dropped}
        if not histograms:
            continue
        points = tuple(
            FingerprintPoint(p.location, readings)
            for p in cell.points
            if (readings := {t: a for t, a in p.readings.items() if t not in dropped})
        )
        centroid = _centroid(points) if points else cell.centroid
        cells[key] = GridCell(centroid, points, histograms)

    tower_locations = radio_map.tower_locations
    if tower_locations is not None:
        tower_locations = {t: p for t, p in tower_locations.items() if t not in dropped}
    # replace() runs __post_init__, so the ablated map gets its own arrays
    # and an empty log-table memo.
    return dataclasses.replace(
        radio_map,
        cells=cells,
        tower_ids=radio_map.tower_ids - dropped,
        tower_locations=tower_locations,
    )


# ---------------------------------------------------------------------------
# Persistence: versioned JSON, deterministic field order, full float precision
# ---------------------------------------------------------------------------


def save_radio_map(radio_map: RadioMap, path: str) -> None:
    """Serialize a map to versioned JSON.  Byte-identical for equal maps."""
    cells = []
    for key in sorted(radio_map.cells):
        cell = radio_map.cells[key]
        entry: dict = {
            "row": key[0],
            "col": key[1],
            "centroid": {"x": cell.centroid.x, "y": cell.centroid.y},
            "histograms": {tid: list(hist.counts) for tid, hist in cell.histograms.items()},
        }
        if cell.points:
            entry["points"] = [
                {"x": p.location.x, "y": p.location.y, "readings": p.readings} for p in cell.points
            ]
        cells.append(entry)
    doc: dict = {
        "version": MAP_FORMAT_VERSION,
        "kind": RADIO_MAP_KIND,
        "origin": {"lat": radio_map.origin.lat, "lon": radio_map.origin.lon},
        "grid_length_m": radio_map.grid_length,
        "grid_anchor": {"x": radio_map.anchor_x, "y": radio_map.anchor_y},
        "towers": sorted(radio_map.tower_ids),
        "cells": cells,
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
            field of the wrong JSON type (see :func:`json_value`), two entries
            for one cell or an origin outside the lat/lon range; and, as the
            value rules are :class:`RadioMap`'s, on no cells, a cell without
            histograms, a histogram not of 32 non-negative counts with at
            least one reading, a histogram or point naming a tower missing
            from ``towers``, a point without 1..7 readings in ASU 0..31, a
            grid length that is not a positive finite number, or a non-finite
            anchor, centroid, point or tower location.  No partial map is
            ever returned.
    """
    doc = load_document(path, RADIO_MAP_KIND)
    try:
        cells: dict[tuple[int, int], GridCell] = {}
        for entry in json_value(doc["cells"], list):
            key = (json_value(entry["row"], int), json_value(entry["col"], int))
            if key in cells:
                raise ValueError(f"cell {key} appears more than once")
            histograms = {
                tid: TowerHistogram(tuple(json_value(c, int) for c in json_value(counts, list)))
                for tid, counts in json_value(entry["histograms"], dict).items()
            }
            points = tuple(
                FingerprintPoint(
                    PlanarPoint(*json_floats(p, "x", "y")),
                    {tid: json_value(a, int) for tid, a in json_value(p["readings"], dict).items()},
                )
                for p in json_value(entry.get("points", []), list)
            )
            cells[key] = GridCell(
                centroid=PlanarPoint(*json_floats(entry["centroid"], "x", "y")),
                points=points,
                histograms=histograms,
            )
        tower_locations = None
        if "tower_locations" in doc:
            tower_locations = {
                tid: PlanarPoint(*json_floats(p, "x", "y"))
                for tid, p in json_value(doc["tower_locations"], dict).items()
            }
        anchor_x, anchor_y = json_floats(doc["grid_anchor"], "x", "y")
        return RadioMap(
            origin=GeoPoint(*json_floats(doc["origin"], "lat", "lon")),
            grid_length=json_value(doc["grid_length_m"], float),
            anchor_x=anchor_x,
            anchor_y=anchor_y,
            cells=cells,
            tower_ids=frozenset(json_value(doc["towers"], list)),
            tower_locations=tower_locations,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MapFormatError(f"{path}: malformed radio map ({exc})") from exc
