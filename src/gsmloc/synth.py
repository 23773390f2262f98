"""Synthetic GSM world: towers, propagation, and 1 Hz war-drive traces.

Received power follows a log-distance path-loss model plus spatially
correlated shadowing.  The loss is ``P0_DBM`` out to the reference distance
``D0_M``, which also clamps the near field, plus 10 times the world's
``exponent`` dB per decade beyond it; both constants are the same for every
world, and ``P0_DBM`` only offsets every tower's transmit power.  Planar
positions map to geodetic ones about ``GEO_ORIGIN``.  Every other setting,
and every rule for it, is a :class:`SynthWorld` field.

Shadowing is a static field: per tower, a seeded lattice of Gaussian values
is interpolated bilinearly, so the same position always sees the same
shadowing.  Fingerprinting presupposes exactly this kind of repeatable RF
environment; training and test visits to a spot must observe correlated
signal strengths.  All lattices are drawn when the world is constructed.

On top of the static field, trace generation adds small i.i.d. per-reading
measurement noise, the world's ``measurement_noise_db``, seeded from (world
seed, route), so the training and test traces differ the way two real drives
would.  A trace is synthesized in fixed blocks of scans; each block draws its
(scans, towers) noise from the trace's one generator, the same stream as one
draw per tower per scan.  A numpy estimate of each block's field picks the
pairs that can be heard, and only those get the exact path loss
(``math.hypot``, ``math.log10``), so a trace matches the all-pairs field bit
for bit.  One tower's exact power at one point, :func:`received_dbm`, comes
from the same path-loss and shadowing helpers, audible or not.

A trace is a function of (world, route) alone: regenerating it yields
identical bytes.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .estimators import check_count
from .geo import (
    ASU_MAX,
    ASU_MIN,
    MAX_READINGS,
    EARTH_RADIUS_M,
    SENSITIVITY_DBM,
    GeoPoint,
    PlanarPoint,
    ScanVector,
    check_tower_id,
    float_sum,
    unproject,
)

P0_DBM = 30.0  # path loss (dB) at the reference distance D0_M
D0_M = 10.0  # reference distance (m); nearer points get the loss at D0_M
GEO_ORIGIN = GeoPoint(30.0, 31.0)  # where every world's planar origin lies
#: :func:`unproject`'s meters per radian of longitude about ``GEO_ORIGIN``.
_LON_SCALE_M = EARTH_RADIUS_M * math.cos(math.radians(GEO_ORIGIN.lat))
#: Scans synthesized together: bounds the (scans, towers) working arrays.
_BLOCK_SCANS = 256
#: A pair whose numpy power estimate lies more than this below the
#: sensitivity is never heard.  numpy's and math's hypot and log10 differ by
#: a few ulp, about 1e-13 dB on these powers.
_PRUNE_MARGIN_DB = 1e-6


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
        if not 0.0 < self.speed < math.inf:
            raise ValueError(f"route speed must be > 0 and finite, got {self.speed!r}")
        if not all(math.isfinite(c) for p in self.waypoints for c in (p.x, p.y)):
            raise ValueError("route waypoints must be finite")

    @property
    def length(self) -> float:
        return float_sum(a.distance_to(b) for a, b in zip(self.waypoints, self.waypoints[1:]))


@dataclass(frozen=True, eq=False)
class SynthWorld:
    """Immutable tower layout plus propagation parameters and master seed.

    A tower of transmit power P is received at distance d with
    ``P - (P0_DBM + 10 * exponent * log10(max(d, D0_M) / D0_M))`` dBm plus
    the static shadowing; ``exponent`` is 2 in free space and up to 5 in
    dense urban clutter.  The shadowing lattice, drawn at construction, has
    one layer per tower, seeded from (seed, 1, tower index), with nodes one
    ``shadow_grid_spacing`` apart and beyond the bounds, of standard
    deviation ``shadow_sigma_db``; the spacing sets the field's correlation
    length.  ``measurement_noise_db`` is the standard deviation of the
    per-reading jitter that :func:`generate_trace` adds on top of the static
    field; it models the second-scale RSSI fluctuation a stationary phone
    reports.

    Raises:
        ValueError: naming the field, for bounds that are not finite or have
            no extent, a seed not an integer >= 0, an exponent outside [2, 5],
            a noise or shadowing sigma that is negative or not finite, a
            lattice spacing that is not finite and > 0, a ``tower_id`` that fails
            :func:`~gsmloc.geo.check_tower_id` or names two towers, a tower whose location
            or ``tx_power_dbm`` is not finite, or no tower inside the bounds.
    """

    bounds: tuple[float, float, float, float]  # (x_min, y_min, x_max, y_max)
    towers: tuple[Tower, ...]
    seed: int
    measurement_noise_db: float = 2.0
    exponent: float = 3.0
    shadow_sigma_db: float = 6.0
    shadow_grid_spacing: float = 50.0
    _shadow: np.ndarray = field(init=False, repr=False)
    _xyp: np.ndarray = field(init=False, repr=False)  # (3, towers): x, y, transmit power
    _by_id: np.ndarray = field(init=False, repr=False)  # tower ranks in tower-id order
    _ids: tuple[str, ...] = field(init=False, repr=False)  # tower ids in that order

    def __post_init__(self) -> None:
        x_min, y_min, x_max, y_max = self.bounds
        if not all(map(math.isfinite, self.bounds)):
            raise ValueError(f"bounds must be finite, got {self.bounds!r}")
        if x_max <= x_min or y_max <= y_min:
            raise ValueError("bounds must have positive extent")
        check_count("seed", self.seed, minimum=0)
        if not 2.0 <= self.exponent <= 5.0:
            raise ValueError(f"exponent must be in [2, 5], got {self.exponent!r}")
        for name in ("measurement_noise_db", "shadow_sigma_db"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)!r}")
        if not 0.0 < self.shadow_grid_spacing < math.inf:
            raise ValueError(
                f"shadow_grid_spacing must be finite and > 0, got {self.shadow_grid_spacing!r}")
        ids = [t.tower_id for t in self.towers]
        for tower_id in ids:
            check_tower_id(tower_id)
        by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__))
        sorted_ids = tuple(ids[k] for k in by_id.tolist())
        for a, b in zip(sorted_ids, sorted_ids[1:]):
            if a == b:
                raise ValueError(f"tower_id {a!r} names more than one tower")
        columns = [(t.location.x, t.location.y, t.tx_power_dbm) for t in self.towers]
        x, y, _ = xyp = np.reshape(columns, (-1, 3)).T
        for tower, finite in zip(self.towers, np.isfinite(xyp).all(axis=0).tolist()):
            if not finite:
                raise ValueError(f"tower {tower.tower_id!r} location and tx_power_dbm must be finite")
        if not ((x_min <= x) & (x <= x_max) & (y_min <= y) & (y <= y_max)).any():
            raise ValueError("at least one tower must lie inside the bounds")
        h = self.shadow_grid_spacing
        nx = int(math.ceil((x_max - x_min + 2 * h) / h)) + 1
        ny = int(math.ceil((y_max - y_min + 2 * h) / h)) + 1
        shadow = np.stack(
            [
                np.random.default_rng(np.random.SeedSequence([self.seed, 1, rank])).normal(
                    0.0, self.shadow_sigma_db, size=(ny, nx)
                )
                for rank in range(len(self.towers))
            ]
        )
        for name, array in (("_shadow", shadow), ("_xyp", xyp), ("_by_id", by_id)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "_ids", sorted_ids)

    def tower_locations_geo(self) -> dict[str, GeoPoint]:
        """Tower positions as geodetic points (for the tower CSV)."""
        return {t.tower_id: unproject(GEO_ORIGIN, t.location) for t in self.towers}


def _exact_loss_db(exponent: float, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Log-distance path loss at flat tower offsets, with ``math.hypot`` and ``math.log10``.

    numpy's hypot and log10 differ from these in the last bit on about 1% and
    3% of inputs, enough to move a reading across an ASU boundary.
    """
    d = np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), float, len(dx))
    ratio = (np.maximum(d, D0_M) / D0_M).tolist()
    return P0_DBM + 10.0 * exponent * np.fromiter(map(math.log10, ratio), float, len(ratio))


def _shadow_db(world: SynthWorld, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bilinear shadowing of every tower at points ``(x, y)``, shape (points, towers)."""
    v = world._shadow
    _, ny, nx = v.shape
    h = world.shadow_grid_spacing
    gx = (x - (world.bounds[0] - h)) / h
    gy = (y - (world.bounds[1] - h)) / h
    i = np.clip(np.floor(gx).astype(np.int64), 0, nx - 2)
    j = np.clip(np.floor(gy).astype(np.int64), 0, ny - 2)
    fx = np.clip(gx - i, 0.0, 1.0)[:, None]
    fy = np.clip(gy - j, 0.0, 1.0)[:, None]
    return (1 - fy) * ((1 - fx) * v[:, j, i].T + fx * v[:, j, i + 1].T) + fy * (
        (1 - fx) * v[:, j + 1, i].T + fx * v[:, j + 1, i + 1].T
    )


def received_dbm(world: SynthWorld, tower: Tower, p: PlanarPoint) -> float:
    """Static received power at a position: path loss plus shadowing.

    Deterministic in (world seed, tower, position); repeated calls at the
    same point return the same value.  ``tower`` must be in ``world.towers``.
    Audible or not, it comes from the trace path's helpers in
    :func:`_heard_dbm`'s order: the very value a noiseless scan quantizes.
    """
    rank = world.towers.index(tower)
    tx, ty, power = world._xyp[:, rank]
    dbm = power - _exact_loss_db(world.exponent, np.array([tx - p.x]), np.array([ty - p.y]))[0]
    return float(dbm + _shadow_db(world, np.array([p.x]), np.array([p.y]))[0, rank])


def _heard_dbm(
    world: SynthWorld, x: np.ndarray, y: np.ndarray, noise: np.ndarray | None
) -> np.ndarray:
    """Static received power plus ``noise`` on the pairs that can be heard, -inf elsewhere.

    A numpy estimate of each pair's power keeps the pairs within
    ``_PRUNE_MARGIN_DB`` of the sensitivity; only those get transmit power
    less :func:`_exact_loss_db`, plus :func:`_shadow_db` and then the noise,
    so every audible pair is bit-identical to :func:`received_dbm` plus noise.
    """
    tx, ty, power = world._xyp
    dx = tx - x[:, None]
    dy = ty - y[:, None]
    log_ratio = np.log10(np.maximum(np.hypot(dx, dy), D0_M) / D0_M)
    dbm = power - (P0_DBM + 10.0 * world.exponent * log_ratio)
    terms = [_shadow_db(world, x, y)]
    if noise is not None:
        terms.append(noise)
    for term in terms:
        dbm += term
    rows, cols = np.nonzero(dbm >= SENSITIVITY_DBM - _PRUNE_MARGIN_DB)
    heard = power[cols] - _exact_loss_db(world.exponent, dx[rows, cols], dy[rows, cols])
    for term in terms:
        heard += term[rows, cols]
    dbm.fill(-np.inf)
    dbm[rows, cols] = heard
    return dbm


def _block_scans(
    world: SynthWorld,
    times: Sequence[float],
    x: np.ndarray,
    y: np.ndarray,
    noise_rng: np.random.Generator | None,
) -> list[ScanVector]:
    """A :func:`scan_at` scan at each ``(times[k], x[k], y[k])``; raises at the first silent one.

    The noise is one (points, towers) draw of the world's ``measurement_noise_db``.
    """
    noise = None
    if noise_rng is not None and world.measurement_noise_db > 0:
        noise = noise_rng.normal(0.0, world.measurement_noise_db, size=(len(x), len(world.towers)))
    dbm = _heard_dbm(world, x, y, noise)

    # strongest first, ties by tower id: a stable sort over columns in id order
    ranked = dbm[:, world._by_id]
    top = np.argsort(-ranked, axis=1, kind="stable")[:, :MAX_READINGS]
    top_dbm = np.take_along_axis(ranked, top, axis=1)
    counts = (top_dbm >= SENSITIVITY_DBM).sum(axis=1)
    silent = np.flatnonzero(counts == 0)
    if len(silent):
        raise ValueError(f"no tower audible at ({x[silent[0]]:.1f}, {y[silent[0]]:.1f})")
    # dbm_to_asu's arithmetic; -inf past a row's count clamps to ASU 0 and is never read
    asu = np.clip(np.floor((top_dbm - SENSITIVITY_DBM) / 2.0 + 0.5), ASU_MIN, ASU_MAX)
    # unproject(GEO_ORIGIN, .) on the whole block: np.degrees multiplies by math.degrees' 180/pi.
    lat = GEO_ORIGIN.lat + np.degrees(y / EARTH_RADIUS_M)
    lon = GEO_ORIGIN.lon + np.degrees(x / _LON_SCALE_M)
    names = world._ids
    scans: list[ScanVector] = []
    for t, p_lat, p_lon, n, kept, levels in zip(
        times, lat.tolist(), lon.tolist(), counts.tolist(), top.tolist(), asu.astype(int).tolist()
    ):
        readings = {names[k]: level for k, level in zip(kept[:n], levels[:n])}
        scans.append(ScanVector(t, readings, truth=GeoPoint(p_lat, p_lon)))
    return scans


def scan_at(
    world: SynthWorld,
    p: PlanarPoint,
    t: float,
    *,
    noise_rng: np.random.Generator | None = None,
) -> ScanVector:
    """One scan at a position: the up-to-7 strongest audible towers.

    Towers below the receiver sensitivity (-113 dBm, ASU 0) are dropped,
    the rest sorted by decreasing power (ties by tower id), truncated to 7
    and quantized to ASU.  With ``noise_rng``, one draw of the world's
    ``measurement_noise_db`` per tower (in world order, audible or not) perturbs each reading.

    Raises:
        ValueError: if no tower is audible at ``p``.
    """
    return _block_scans(world, [t], np.array([p.x]), np.array([p.y]), noise_rng)[0]


def _route_noise_seed(world: SynthWorld, route: Route) -> np.random.SeedSequence:
    coords = np.array([(w.x, w.y) for w in route.waypoints], dtype=float)
    digest = zlib.crc32(coords.tobytes() + np.float64(route.speed).tobytes())
    return np.random.SeedSequence([world.seed, 2, digest])


def generate_trace(world: SynthWorld, route: Route) -> list[ScanVector]:
    """Drive the route at 1 scan per second; ground truth rides along.

    The position advances along the waypoints at the route speed; the trace
    ends at the last waypoint, so a route of length L yields
    ceil(L / speed) + 1 scans.  The measurement noise is the world's
    ``measurement_noise_db``, seeded from (world seed, route): the trace is a
    function of (world, route) alone, distinct routes give independent
    traces, and regeneration is byte-identical.
    """
    pts = route.waypoints
    seg_lengths = np.array([a.distance_to(b) for a, b in zip(pts, pts[1:])])
    cumulative = np.concatenate([[0.0], np.cumsum(seg_lengths)])
    total = float(cumulative[-1])
    if total <= 0:
        raise ValueError("route has zero length")

    n_steps = int(math.ceil(total / route.speed - 1e-9))
    t = np.arange(n_steps + 1.0)
    dist = np.minimum(t * route.speed, total)
    last = np.flatnonzero(seg_lengths)[-1]  # the end's segment, not a repeated final waypoint
    seg = np.minimum(np.searchsorted(cumulative, dist, side="right") - 1, last)
    frac = (dist - cumulative[seg]) / seg_lengths[seg]
    w = np.array([(p.x, p.y) for p in pts])
    x, y = (w[seg] + frac[:, None] * (w[seg + 1] - w[seg])).T
    rng = np.random.default_rng(_route_noise_seed(world, route))
    scans: list[ScanVector] = []
    for start in range(0, len(t), _BLOCK_SCANS):
        block = slice(start, start + _BLOCK_SCANS)
        scans += _block_scans(world, t[block].tolist(), x[block], y[block], rng)
    return scans


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
        ValueError: for an unknown preset name, or a seed that is not an integer >= 0.
    """
    cfg = PRESETS.get(name)
    if cfg is None:
        raise ValueError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
    check_count("seed", seed, minimum=0)
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
        seed=seed,
        measurement_noise_db=cfg["measurement_noise_db"],
        exponent=cfg["exponent"],
        shadow_sigma_db=cfg["shadow_sigma_db"],
        shadow_grid_spacing=cfg["shadow_grid_spacing"],
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
