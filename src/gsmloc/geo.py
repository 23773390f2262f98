"""Shared domain types, file formats and rules: readings, scans, planar geometry.

ASU (Active Set Update) is the integer signal-strength unit reported by GSM
phone APIs, an integer in [0, 31] with dBm = 2*ASU - 113.  A scan is the set
of readings a phone reports in one instant: the serving cell plus up to six
neighbours, so at most seven towers.  The point and scan types are frozen,
slotted dataclasses: a trace holds one scan and one truth per second of
driving, and a slot saves each instance its ``__dict__``.

CSV files (traces, tower lists, estimates, reports, error CDFs) share one
record reader and one writer, :func:`write_csv`.  A trace becomes a list of
:class:`ScanVector` in one pass over its rows, and every malformed file raises
:class:`TraceFormatError` naming its path and line.  Every rule checker of the
package (``check_*``) is here, each rule stated once with one wording.

All distance math in this package runs in a local planar frame obtained by
an equirectangular projection about a fixed origin.  At the areas this
toolkit targets (a few km across) the projection round-trips within 0.1 m,
so Euclidean geometry on (x, y) is exact for every practical purpose.
:func:`project` maps one point; :func:`project_array` maps a whole trace's
points in numpy with the same arithmetic, and is bit-equal to it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import numbers
import sys
import warnings
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

EARTH_RADIUS_M = 6_371_000.0

ASU_MIN = 0
ASU_MAX = 31
SENSITIVITY_DBM = -113.0  # dBm of ASU 0, the weakest reportable signal
MAX_READINGS = 7          # serving cell plus six neighbours

#: Distance from the projection origin beyond which planar coordinates
#: start to accumulate noticeable distortion.
PROJECTION_RANGE_M = 10_000.0


class TraceFormatError(ValueError):
    """A trace or tower CSV file does not match the expected format."""


class ProjectionRangeWarning(UserWarning):
    """A point lies farther from the projection origin than recommended."""


def asu_to_dbm(asu: int) -> float:
    """Convert an ASU reading to dBm (dBm = 2*ASU - 113).

    Raises:
        ValueError: if ``asu`` is outside [0, 31].
    """
    if not ASU_MIN <= asu <= ASU_MAX:
        raise ValueError(f"ASU reading {asu!r} outside [{ASU_MIN}, {ASU_MAX}]")
    return 2.0 * asu + SENSITIVITY_DBM


def dbm_to_asu(dbm: float) -> int:
    """Quantize a dBm power to the nearest ASU, clamped to [0, 31].

    Halves round up.  Every value below ASU 0 clamps to 0, so this equals
    rounding half away from zero, and the quantizer is the exact inverse of
    :func:`asu_to_dbm` on the integer ASU range.
    """
    return min(max(math.floor((dbm - SENSITIVITY_DBM) / 2.0 + 0.5), ASU_MIN), ASU_MAX)


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A geodetic position in degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not abs(self.lat) <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not abs(self.lon) <= 180.0:
            raise ValueError(f"longitude {self.lon} outside [-180, 180]")


@dataclass(frozen=True, slots=True)
class PlanarPoint:
    """Meters east (x) and north (y) of a projection origin."""

    x: float
    y: float

    def distance_to(self, other: "PlanarPoint") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def float_sum(values: Iterable[float]) -> float:
    """The floats of ``values`` added left to right, starting from 0.0.

    This is how ``sum()`` adds floats up to Python 3.11.  From 3.12 on,
    ``sum()`` compensates the rounding and may differ in the last bits, which
    would move every origin, route length and posterior weight built on it.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def project(origin: GeoPoint, p: GeoPoint) -> PlanarPoint:
    """Project a geodetic point into the planar frame anchored at ``origin``.

    Equirectangular: x = R*cos(origin.lat)*dlon, y = R*dlat (radians).
    Emits :class:`ProjectionRangeWarning` beyond ``PROJECTION_RANGE_M``;
    the result is still returned.
    """
    x = EARTH_RADIUS_M * math.cos(math.radians(origin.lat)) * math.radians(p.lon - origin.lon)
    y = EARTH_RADIUS_M * math.radians(p.lat - origin.lat)
    if math.hypot(x, y) > PROJECTION_RANGE_M:
        warnings.warn(
            f"point {p} is {math.hypot(x, y) / 1000.0:.1f} km from the projection "
            "origin; planar distances degrade beyond 10 km",
            ProjectionRangeWarning,
            stacklevel=2,
        )
    return PlanarPoint(x, y)


def project_array(origin: GeoPoint, points: Sequence[GeoPoint]) -> np.ndarray:
    """:func:`project` applied to every point: an (n, 2) array of (x, y), bit-equal to it.

    Emits one :class:`ProjectionRangeWarning` per call, naming how many
    points lie beyond ``PROJECTION_RANGE_M`` and the farthest distance, when
    :func:`project` would warn on at least one of them.
    """
    lat, lon = (np.fromiter(map(attrgetter(name), points), float, len(points))
                for name in ("lat", "lon"))
    # The order of operations of project(), so every product rounds the same way.
    x = EARTH_RADIUS_M * math.cos(math.radians(origin.lat)) * np.radians(lon - origin.lon)
    y = EARTH_RADIUS_M * np.radians(lat - origin.lat)
    # np.hypot may differ from math.hypot in the last place: screen with a margin, then
    # decide each candidate with math.hypot, the rule project() applies.
    near_edge = np.flatnonzero(np.hypot(x, y) > PROJECTION_RANGE_M * (1.0 - 1e-9))
    far = [d for d in map(math.hypot, x[near_edge].tolist(), y[near_edge].tolist())
           if d > PROJECTION_RANGE_M]
    if far:
        warnings.warn(
            f"{len(far)} of {len(points)} points lie beyond 10 km of the projection origin, "
            f"the farthest {max(far) / 1000.0:.1f} km; planar distances degrade beyond 10 km",
            ProjectionRangeWarning,
            stacklevel=2,
        )
    return np.stack((x, y), axis=1)


def unproject(origin: GeoPoint, p: PlanarPoint) -> GeoPoint:
    """Inverse of :func:`project` for the same origin."""
    lat = origin.lat + math.degrees(p.y / EARTH_RADIUS_M)
    lon = origin.lon + math.degrees(p.x / (EARTH_RADIUS_M * math.cos(math.radians(origin.lat))))
    return GeoPoint(lat, lon)


def check_count(name: str, value: int, minimum: int = 1) -> None:
    """``ValueError`` naming ``name`` unless ``value`` is an integer >= ``minimum``, not a bool."""
    # type() first: hybrid checks on every call, and the ABC isinstance costs
    # about 0.9 us (Python 3.11, Xeon), some 4% of a hybrid estimate.
    integral = type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool))
    if not integral or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_positive_finite(name: str, value: float) -> None:
    """``ValueError`` naming ``name`` unless ``value`` is a positive finite number."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} {value} is not a positive finite number")


def check_keep_fraction(value: float) -> None:
    """``ValueError`` unless ``value`` is a fraction of scans to keep, in (0, 1]."""
    if not 0.0 < value <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1], got {value}")


def check_drop_fraction(value: float) -> None:
    """``ValueError`` unless ``value`` is a fraction of towers to drop, in [0, 1)."""
    if not 0.0 <= value < 1.0:
        raise ValueError(f"drop_fraction must be in [0, 1), got {value}")


def check_tower_id(tower_id: str) -> None:
    """``ValueError`` unless ``tower_id`` is a non-empty ``str``: scans, worlds, maps and grids
    hold to it, as their files store ids as text and would read an int 5 back as "5"."""
    if not isinstance(tower_id, str):
        raise ValueError(f"tower_id must be a str, got {tower_id!r}")
    if not tower_id:
        raise ValueError("tower_id must be non-empty")


def _check_asu(asu: int) -> None:
    if not isinstance(asu, int) or isinstance(asu, bool):
        raise TypeError(f"ASU reading must be an int, got {asu!r}")
    if not ASU_MIN <= asu <= ASU_MAX:
        raise ValueError(f"ASU reading {asu!r} outside [{ASU_MIN}, {ASU_MAX}]")


@dataclass(frozen=True, slots=True)
class ScanVector:
    """All readings reported at one instant: 1 to 7 towers.

    ``readings`` maps tower id (:func:`check_tower_id`) to ASU.  Treat instances
    as immutable; the readings dict must not be mutated after construction.
    """

    timestamp: float
    readings: dict[str, int]
    truth: GeoPoint | None = None

    def __post_init__(self) -> None:
        if not 1 <= len(self.readings) <= MAX_READINGS:
            raise ValueError(
                f"scan at t={self.timestamp} has {len(self.readings)} readings, "
                f"expected 1..{MAX_READINGS}"
            )
        for tower_id, asu in self.readings.items():
            check_tower_id(tower_id)
            _check_asu(asu)


def check_window(scans: Sequence[ScanVector]) -> Sequence[ScanVector]:
    """``scans`` if it is a window, else ``ValueError``: one scan or more, timestamps strictly
    increasing."""
    if len(scans) == 0:
        raise ValueError("window must contain at least one scan")
    for a, b in zip(scans, scans[1:]):
        if not b.timestamp > a.timestamp:
            raise ValueError("window timestamps must be strictly increasing")
    return scans


# ---------------------------------------------------------------------------
# Trace files
#
# UTF-8 CSV with header ``timestamp,lat,lon,tower_id,asu``, one row per tower
# per scan.  Missing ground truth is encoded as empty lat/lon fields.
# ---------------------------------------------------------------------------

TRACE_HEADER = ("timestamp", "lat", "lon", "tower_id", "asu")
TOWER_HEADER = ("tower_id", "lat", "lon")


def write_csv(path: str | None, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    """Write ``header``, then each row as drawn, as UTF-8 CSV at ``path``, or stdout if None."""
    with (open(path, "w", newline="", encoding="utf-8") if path is not None
          else contextlib.nullcontext(sys.stdout)) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_trace(scans: Iterable[ScanVector], path: str) -> None:
    """Write scans as a trace CSV, one row per reading in the scan's own order, which
    :func:`read_trace` keeps and the probabilistic posterior sums in."""
    def rows():
        for scan in scans:
            t = repr(scan.timestamp)
            lat, lon = ("", "") if scan.truth is None else (repr(scan.truth.lat),
                                                            repr(scan.truth.lon))
            for tower_id, asu in scan.readings.items():
                yield t, lat, lon, tower_id, asu

    write_csv(path, TRACE_HEADER, rows())


def _read_records(path: str, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line, fields)`` for each non-blank record of a UTF-8 CSV file.

    Checks the encoding, the header and each record's field count, and raises
    :class:`TraceFormatError` naming ``path`` and the line at fault.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise TraceFormatError(f"{path}:{line}: not valid UTF-8 ({exc.reason})") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        first = next(reader, None)
        if first is None or tuple(h.strip() for h in first) != header:
            raise TraceFormatError(f"{path}:1: expected header {','.join(header)!r}, got {first!r}")
        for rec in reader:
            if not rec:
                continue
            if len(rec) != len(header):
                raise TraceFormatError(
                    f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(rec)}"
                )
            yield reader.line_num, rec
    except csv.Error as exc:
        raise TraceFormatError(f"{path}:{reader.line_num}: {exc}") from exc


def read_trace(path: str) -> list[ScanVector]:
    """Read a trace CSV into scans, in one pass over its records.

    Rows that share a timestamp form one scan, and timestamps must be finite
    and must not decrease.  A tower repeated within one timestamp keeps its
    last row, and a scan takes the ground truth of its last row.  A
    header-only file gives ``[]``.

    Raises:
        TraceFormatError: naming ``path`` and the line at fault, for a bad
            header, a wrong field count, an unparsable field, an empty tower
            id, an ASU outside [0, 31], a decreasing or non-finite timestamp,
            or an eighth distinct tower in one scan.
    """
    scans: list[ScanVector] = []
    readings: dict[str, int] = {}
    t = -math.inf  # timestamp of the scan being gathered
    truth: GeoPoint | None = None
    for line, (t_s, lat_s, lon_s, tower_id, asu_s) in _read_records(path, TRACE_HEADER):
        try:
            row_t = float(t_s)
            if not math.isfinite(row_t):
                raise ValueError(f"timestamp {t_s!r} is not finite")
            if row_t < t:
                raise ValueError(f"timestamp {row_t} after {t}: rows not sorted by timestamp")
            check_tower_id(tower_id)
            asu = int(asu_s)
            _check_asu(asu)
            row_truth = GeoPoint(float(lat_s), float(lon_s)) if lat_s or lon_s else None
        except ValueError as exc:
            raise TraceFormatError(f"{path}:{line}: {exc}") from exc
        if row_t != t:
            if readings:
                scans.append(ScanVector(t, readings, truth))
            readings = {}
            t = row_t
        readings[tower_id] = asu
        truth = row_truth
        if len(readings) > MAX_READINGS:
            raise TraceFormatError(f"{path}:{line}: more than {MAX_READINGS} towers at t={t}")
    if readings:
        scans.append(ScanVector(t, readings, truth))
    return scans


def write_tower_locations(towers: Mapping[str, GeoPoint], path: str) -> None:
    """Write a ``tower_id,lat,lon`` CSV (sorted by tower id)."""
    write_csv(path, TOWER_HEADER, ((tower_id, repr(p.lat), repr(p.lon))
                                   for tower_id, p in sorted(towers.items())))


def read_tower_locations(path: str) -> dict[str, GeoPoint]:
    """Read a ``tower_id,lat,lon`` CSV.

    Raises:
        TraceFormatError: naming ``path`` and the line at fault, for a bad
            header, a wrong field count, an empty tower id, an unparsable
            or out-of-range coordinate, or a tower id listed twice.
    """
    towers: dict[str, GeoPoint] = {}
    for line, (tower_id, lat_s, lon_s) in _read_records(path, TOWER_HEADER):
        if tower_id in towers:
            raise TraceFormatError(f"{path}:{line}: tower {tower_id!r} listed twice")
        try:
            check_tower_id(tower_id)
            towers[tower_id] = GeoPoint(float(lat_s), float(lon_s))
        except ValueError as exc:
            raise TraceFormatError(f"{path}:{line}: {exc}") from exc
    return towers
