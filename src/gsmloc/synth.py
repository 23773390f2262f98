"""Synthetic GSM world: towers, propagation, and 1 Hz war-drive traces.

Received power follows a log-distance path-loss model plus spatially
correlated shadowing.  Shadowing is a static field: per tower, a seeded
lattice of Gaussian values is interpolated bilinearly, so the same position
always sees the same shadowing.  Fingerprinting presupposes exactly this
kind of repeatable RF environment; training and test visits to a spot must
observe correlated signal strengths.  All lattices are drawn when the world
is constructed.

On top of the static field, trace generation adds small i.i.d. per-reading
measurement noise (seeded per trace), so independently generated training
and test traces differ the way two real drives would.  It is drawn as one
(scans, towers) matrix, the same stream as one draw per tower per scan.

Everything is deterministic given (world seed, route): regenerating a trace
yields identical bytes.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geo import (
    MAX_READINGS,
    SENSITIVITY_DBM,
    GeoPoint,
    PlanarPoint,
    ScanVector,
    dbm_to_asu,
    unproject,
)


@dataclass(frozen=True)
class PathLossParams:
    """Log-distance propagation constants.

    p0_dbm: loss at the reference distance d0.
    exponent: path-loss exponent n (2 = free space, up to 5 dense urban).
    shadow_sigma_db: standard deviation of the static shadowing field.
    shadow_grid_spacing: lattice node spacing of the shadowing field;
        controls its spatial correlation length.
    """

    p0_dbm: float = 30.0
    d0: float = 10.0
    exponent: float = 3.0
    shadow_sigma_db: float = 6.0
    shadow_grid_spacing: float = 50.0

    def __post_init__(self) -> None:
        if not 2.0 <= self.exponent <= 5.0:
            raise ValueError("path-loss exponent must be in [2, 5]")
        if self.shadow_sigma_db < 0:
            raise ValueError("shadow_sigma_db must be >= 0")
        if self.d0 <= 0 or self.shadow_grid_spacing <= 0:
            raise ValueError("d0 and shadow_grid_spacing must be > 0")


@dataclass(frozen=True)
class Tower:
    tower_id: str
    location: PlanarPoint
    tx_power_dbm: float


@dataclass(frozen=True)
class Route:
    """A drive: piecewise-linear waypoints traversed at constant speed."""

    waypoints: tuple[PlanarPoint, ...]
    speed: float

    def __post_init__(self) -> None:
        if len(self.waypoints) < 2:
            raise ValueError("route needs at least 2 waypoints")
        if self.speed <= 0:
            raise ValueError("route speed must be > 0")

    @property
    def length(self) -> float:
        return sum(a.distance_to(b) for a, b in zip(self.waypoints, self.waypoints[1:]))


@dataclass(frozen=True, eq=False)
class SynthWorld:
    """Immutable tower layout plus propagation parameters and master seed.

    ``measurement_noise_db`` is the default per-reading jitter added on top
    of the static field when generating traces; it models the second-scale
    RSSI fluctuation a stationary phone reports.  The shadowing lattice,
    drawn at construction, has one layer per tower, seeded from (seed, 1,
    tower index), with nodes one ``shadow_grid_spacing`` apart and beyond
    the bounds.
    """

    bounds: tuple[float, float, float, float]  # (x_min, y_min, x_max, y_max)
    towers: tuple[Tower, ...]
    pathloss: PathLossParams
    seed: int
    geo_origin: GeoPoint = GeoPoint(30.0, 31.0)
    measurement_noise_db: float = 2.0
    _shadow: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        x_min, y_min, x_max, y_max = self.bounds
        if x_max <= x_min or y_max <= y_min:
            raise ValueError("bounds must have positive extent")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        inside = [
            t
            for t in self.towers
            if x_min <= t.location.x <= x_max and y_min <= t.location.y <= y_max
        ]
        if not inside:
            raise ValueError("at least one tower must lie inside the bounds")
        h = self.pathloss.shadow_grid_spacing
        nx = int(math.ceil((x_max - x_min + 2 * h) / h)) + 1
        ny = int(math.ceil((y_max - y_min + 2 * h) / h)) + 1
        shadow = np.stack(
            [
                np.random.default_rng(np.random.SeedSequence([self.seed, 1, rank])).normal(
                    0.0, self.pathloss.shadow_sigma_db, size=(ny, nx)
                )
                for rank in range(len(self.towers))
            ]
        )
        object.__setattr__(self, "_shadow", shadow)

    def tower_locations_geo(self) -> dict[str, GeoPoint]:
        """Tower positions as geodetic points (for the tower CSV)."""
        return {t.tower_id: unproject(self.geo_origin, t.location) for t in self.towers}


def _field_dbm(world: SynthWorld, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Static received power in dBm at points ``(x, y)``, shape (points, towers).

    Uses ``math.hypot`` and ``math.log10``: numpy's differ in the last bit on
    about 1% and 3% of inputs, enough to move a reading across an ASU boundary.
    """
    pl = world.pathloss
    tx, ty, power = np.array([(t.location.x, t.location.y, t.tx_power_dbm) for t in world.towers]).T
    dx = tx - x[:, None]
    dy = ty - y[:, None]
    d = np.fromiter(map(math.hypot, dx.flat, dy.flat), float, dx.size)
    ratio = np.maximum(d, pl.d0) / pl.d0
    log_ratio = np.fromiter(map(math.log10, ratio), float, ratio.size).reshape(dx.shape)
    dbm = power - (pl.p0_dbm + 10.0 * pl.exponent * log_ratio)
    if pl.shadow_sigma_db > 0:
        v = world._shadow
        _, ny, nx = v.shape
        h = pl.shadow_grid_spacing
        gx = (x - (world.bounds[0] - h)) / h
        gy = (y - (world.bounds[1] - h)) / h
        i = np.clip(np.floor(gx).astype(np.int64), 0, nx - 2)
        j = np.clip(np.floor(gy).astype(np.int64), 0, ny - 2)
        fx = np.clip(gx - i, 0.0, 1.0)[:, None]
        fy = np.clip(gy - j, 0.0, 1.0)[:, None]
        dbm += (1 - fy) * ((1 - fx) * v[:, j, i].T + fx * v[:, j, i + 1].T) + fy * (
            (1 - fx) * v[:, j + 1, i].T + fx * v[:, j + 1, i + 1].T
        )
    return dbm


def received_dbm(world: SynthWorld, tower: Tower, p: PlanarPoint) -> float:
    """Static received power at a position: path loss plus shadowing.

    Deterministic in (world seed, tower, position); repeated calls at the
    same point return the same value.  ``tower`` must be in ``world.towers``.
    """
    rank = world.towers.index(tower)
    return float(_field_dbm(world, np.array([p.x]), np.array([p.y]))[0, rank])


def _scans(
    world: SynthWorld, times: Sequence[float], x: np.ndarray, y: np.ndarray, dbm: np.ndarray
) -> list[ScanVector]:
    """A :func:`scan_at` scan per row of ``dbm``; raises at the first silent row."""
    ids = [t.tower_id for t in world.towers]
    scans: list[ScanVector] = []
    for t, px, py, row in zip(times, x.tolist(), y.tolist(), dbm.tolist()):
        audible = [(v, tid) for v, tid in zip(row, ids) if v >= SENSITIVITY_DBM]
        if not audible:
            raise ValueError(f"no tower audible at ({px:.1f}, {py:.1f})")
        audible.sort(key=lambda it: (-it[0], it[1]))
        readings = {tid: dbm_to_asu(v) for v, tid in audible[:MAX_READINGS]}
        truth = unproject(world.geo_origin, PlanarPoint(px, py))
        scans.append(ScanVector(t, readings, truth=truth))
    return scans


def scan_at(
    world: SynthWorld,
    p: PlanarPoint,
    t: float,
    *,
    noise_rng: np.random.Generator | None = None,
    noise_sigma_db: float = 0.0,
) -> ScanVector:
    """One scan at a position: the up-to-7 strongest audible towers.

    Towers below the receiver sensitivity (-113 dBm, ASU 0) are dropped,
    the rest sorted by decreasing power (ties by tower id), truncated to 7
    and quantized to ASU.  When ``noise_rng`` is given, one Gaussian draw
    per tower (in world order, audible or not) perturbs each reading.

    Raises:
        ValueError: if no tower is audible at ``p``.
    """
    x, y = np.array([p.x]), np.array([p.y])
    dbm = _field_dbm(world, x, y)
    if noise_rng is not None and noise_sigma_db > 0:
        dbm += noise_rng.normal(0.0, noise_sigma_db, size=len(world.towers))
    return _scans(world, [t], x, y, dbm)[0]


def _route_noise_seed(world: SynthWorld, route: Route) -> np.random.SeedSequence:
    coords = np.array([(w.x, w.y) for w in route.waypoints], dtype=float)
    digest = zlib.crc32(coords.tobytes() + np.float64(route.speed).tobytes())
    return np.random.SeedSequence([world.seed, 2, digest])


def generate_trace(
    world: SynthWorld,
    route: Route,
    *,
    noise_sigma_db: float | None = None,
    noise_seed: int | None = None,
) -> list[ScanVector]:
    """Drive the route at 1 scan per second; ground truth rides along.

    The position advances along the waypoints at the route speed; the trace
    ends at the last waypoint, so a route of length L yields
    ceil(L / speed) + 1 scans.  Measurement noise defaults to the world's
    ``measurement_noise_db`` and is seeded from (world seed, route) unless
    ``noise_seed`` overrides it, so distinct routes give independent traces
    while regeneration is byte-identical.
    """
    if noise_sigma_db is None:
        noise_sigma_db = world.measurement_noise_db
    pts = route.waypoints
    seg_lengths = np.array([a.distance_to(b) for a, b in zip(pts, pts[1:])])
    cumulative = np.concatenate([[0.0], np.cumsum(seg_lengths)])
    total = float(cumulative[-1])
    if total <= 0:
        raise ValueError("route has zero length")

    n_steps = int(math.ceil(total / route.speed - 1e-9))
    t = np.arange(n_steps + 1.0)
    dist = np.minimum(t * route.speed, total)
    seg = np.minimum(np.searchsorted(cumulative, dist, side="right") - 1, len(seg_lengths) - 1)
    frac = (dist - cumulative[seg]) / seg_lengths[seg]
    w = np.array([(p.x, p.y) for p in pts])
    x, y = (w[seg] + frac[:, None] * (w[seg + 1] - w[seg])).T
    dbm = _field_dbm(world, x, y)
    if noise_sigma_db > 0:
        seed = (
            np.random.SeedSequence([world.seed, 2, noise_seed])
            if noise_seed is not None
            else _route_noise_seed(world, route)
        )
        dbm += np.random.default_rng(seed).normal(0.0, noise_sigma_db, size=dbm.shape)
    return _scans(world, t.tolist(), x, y, dbm)


# ---------------------------------------------------------------------------
# Presets: a rural and an urban world shaped after published testbed stats
# (area, tower count, drive length).  Both drives follow the same "street
# grid" of parallel rows: training covers every street (the rural drive
# doubles back to reach its trace length), the test drive retraces streets
# in the opposite direction one lane over.  Transmit power varies per tower
# and its base level is tuned so a scan hears roughly 5-6 towers.
# ---------------------------------------------------------------------------

_RURAL = {
    "side": 1400.0,  # 1.96 km^2
    "n_towers": 51,
    "exponent": 3.0,
    "shadow_sigma_db": 6.0,
    "shadow_grid_spacing": 60.0,
    "tx_power_dbm": -42.0,
    "tx_spread_db": 32.0,
    "measurement_noise_db": 4.5,
    "speed": 12.0,
    "train_scans": 1599,
    "test_scans": 573,
    "margin": 50.0,
    "street_spacing": 180.0,
    "lane_offset": 15.0,
}

_URBAN = {
    "side": 2335.0,  # 5.45 km^2
    "n_towers": 137,
    "exponent": 3.5,
    "shadow_sigma_db": 8.0,
    "shadow_grid_spacing": 60.0,
    "tx_power_dbm": -32.0,
    "tx_spread_db": 32.0,
    "measurement_noise_db": 4.5,
    "speed": 6.0,
    "train_scans": 3090,
    "test_scans": 1239,
    "margin": 120.0,
    "street_spacing": 250.0,
    "lane_offset": 15.0,
}

PRESETS = {"rural": _RURAL, "urban": _URBAN}


def _serpentine(side: float, margin: float, spacing: float, offset: float) -> list[PlanarPoint]:
    lo, hi = margin, side - margin
    waypoints: list[PlanarPoint] = []
    rows = int(math.floor((hi - lo) / spacing)) + 1
    for i in range(rows):
        y = lo + i * spacing + offset
        xs = (hi, lo) if i % 2 else (lo, hi)
        for x in xs:
            waypoints.append(PlanarPoint(x, y))
    return waypoints


def _trim_polyline(waypoints: Sequence[PlanarPoint], target: float) -> list[PlanarPoint]:
    out = [waypoints[0]]
    acc = 0.0
    for a, b in zip(waypoints, waypoints[1:]):
        seg = a.distance_to(b)
        if acc + seg >= target:
            frac = (target - acc) / seg
            out.append(PlanarPoint(a.x + frac * (b.x - a.x), a.y + frac * (b.y - a.y)))
            return out
        acc += seg
        out.append(b)
    raise ValueError(f"polyline shorter ({acc:.0f} m) than requested {target:.0f} m")


def make_preset(name: str, seed: int = 0) -> tuple[SynthWorld, dict[str, Route]]:
    """Build a named world plus its training and test drive routes.

    ``rural`` is a ~2 km^2 area with 51 towers and a 12 m/s drive; ``urban``
    is ~5.45 km^2 with 137 towers, steeper path loss, stronger shadowing
    and a 6 m/s drive.  Route lengths are cut so the 1 Hz traces hit the
    intended training/test scan counts exactly, and the test drive stays on
    the training streets (opposite direction, one lane over) the way two
    passes over the same area would.

    Raises:
        ValueError: for an unknown preset name.
    """
    cfg = PRESETS.get(name)
    if cfg is None:
        raise ValueError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
    side = cfg["side"]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    positions = [PlanarPoint(rng.uniform(0.0, side), rng.uniform(0.0, side)) for _ in range(cfg["n_towers"])]
    spread = cfg["tx_spread_db"]
    powers = [cfg["tx_power_dbm"] + rng.uniform(-spread / 2, spread / 2) for _ in positions]
    towers = tuple(
        Tower(tower_id=f"T{i:03d}", location=p, tx_power_dbm=tx)
        for i, (p, tx) in enumerate(zip(positions, powers))
    )
    world = SynthWorld(
        bounds=(0.0, 0.0, side, side),
        towers=towers,
        pathloss=PathLossParams(
            exponent=cfg["exponent"],
            shadow_sigma_db=cfg["shadow_sigma_db"],
            shadow_grid_spacing=cfg["shadow_grid_spacing"],
        ),
        seed=seed,
        measurement_noise_db=cfg["measurement_noise_db"],
    )

    speed = cfg["speed"]
    streets = _serpentine(side, cfg["margin"], cfg["street_spacing"], 0.0)
    train_target = speed * (cfg["train_scans"] - 1)
    if Route(tuple(streets), speed).length >= train_target:
        train_path = streets
    else:
        train_path = streets + list(reversed(streets))[1:]  # drive back the same way
    train = Route(tuple(_trim_polyline(train_path, train_target)), speed)

    lane = _serpentine(side, cfg["margin"], cfg["street_spacing"], cfg["lane_offset"])
    test_path = list(reversed(lane))
    test = Route(tuple(_trim_polyline(test_path, speed * (cfg["test_scans"] - 1))), speed)
    return world, {"train": train, "test": test}
