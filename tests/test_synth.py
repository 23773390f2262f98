import dataclasses
import io
import math
import warnings

import numpy as np
import pytest

from gsmloc.geo import SENSITIVITY_DBM, PlanarPoint, dbm_to_asu, project
from gsmloc.synth import (
    _BLOCK_SCANS,
    GEO_ORIGIN,
    Route,
    SynthWorld,
    Tower,
    _heard_dbm,
    _route_noise_seed,
    _trim_polyline,
    generate_trace,
    make_preset,
    received_dbm,
    scan_at,
)
from oracles import scalar_received_dbm, scalar_scan, scalar_trace


def flat_world(towers, *, shadow=0.0, seed=0, bounds=(0.0, 0.0, 1000.0, 1000.0), exponent=3.0):
    return SynthWorld(
        bounds=bounds,
        towers=tuple(towers),
        seed=seed,
        exponent=exponent,
        shadow_sigma_db=shadow,
    )


class TestReceivedPower:
    def test_reference_distance(self):
        tower = Tower("T0", PlanarPoint(0.0, 0.0), -20.0)
        world = flat_world([tower])
        # within d0 the loss is exactly p0
        assert received_dbm(world, tower, PlanarPoint(10.0, 0.0)) == pytest.approx(-50.0)
        assert received_dbm(world, tower, PlanarPoint(3.0, 0.0)) == pytest.approx(-50.0)

    def test_ten_times_reference_distance(self):
        tower = Tower("T0", PlanarPoint(0.0, 0.0), -20.0)
        world = flat_world([tower])
        got = received_dbm(world, tower, PlanarPoint(100.0, 0.0))
        assert got == pytest.approx(-20.0 - 30.0 - 30.0)

    def test_static_field_repeatable(self):
        tower = Tower("T0", PlanarPoint(500.0, 500.0), -20.0)
        world = flat_world([tower], shadow=6.0)
        p = PlanarPoint(321.0, 654.0)
        assert received_dbm(world, tower, p) == received_dbm(world, tower, p)

    def test_shadowing_varies_in_space(self):
        tower = Tower("T0", PlanarPoint(0.0, 0.0), -20.0)
        world = flat_world([tower], shadow=6.0)
        # equidistant points differ only through the shadowing field
        a = received_dbm(world, tower, PlanarPoint(400.0, 0.0))
        b = received_dbm(world, tower, PlanarPoint(0.0, 400.0))
        assert a != b

    def test_validation(self):
        tower = Tower("T0", PlanarPoint(0.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            flat_world([tower], exponent=1.5)
        with pytest.raises(ValueError):
            flat_world([tower], shadow=-1.0)
        with pytest.raises(ValueError,
                           match=r"^shadow_grid_spacing 0\.0 is not a positive finite number$"):
            SynthWorld((0.0, 0.0, 1000.0, 1000.0), (tower,), seed=0, shadow_grid_spacing=0.0)
        with pytest.raises(ValueError):
            flat_world([Tower("T0", PlanarPoint(5000.0, 0.0), 0.0)])  # outside bounds


class TestScanAt:
    def test_single_tower_in_range(self):
        towers = [Tower("T0", PlanarPoint(0.0, 0.0), -20.0), Tower("T1", PlanarPoint(999.0, 999.0), -90.0)]
        world = flat_world(towers)
        sv = scan_at(world, PlanarPoint(10.0, 0.0), 0.0)
        assert set(sv.readings) == {"T0"}

    def test_ten_audible_keeps_seven_strongest(self):
        towers = [Tower(f"T{i}", PlanarPoint(10.0 * i, 0.0), -20.0) for i in range(10)]
        world = flat_world(towers)
        p = PlanarPoint(0.0, 0.0)
        sv = scan_at(world, p, 0.0)
        assert len(sv.readings) == 7
        strengths = {t.tower_id: received_dbm(world, t, p) for t in towers}
        kept = sorted(sv.readings, key=lambda tid: (-strengths[tid], tid))
        expected = sorted(strengths, key=lambda tid: (-strengths[tid], tid))[:7]
        assert sorted(kept) == sorted(expected)

    def test_ties_broken_by_tower_id(self):
        # 20 towers exactly 100 m away, listed in reverse id order: all tie
        offsets = [(sx * a, sy * b) for a, b in ((28, 96), (96, 28), (60, 80), (80, 60))
                   for sx in (1, -1) for sy in (1, -1)]
        offsets += [(100, 0), (-100, 0), (0, 100), (0, -100)]
        ids = [f"T{i:02d}" for i in reversed(range(len(offsets)))]
        towers = [Tower(tid, PlanarPoint(500.0 + dx, 500.0 + dy), -20.0)
                  for tid, (dx, dy) in zip(ids, offsets)]
        world = flat_world(towers)
        sv = scan_at(world, PlanarPoint(500.0, 500.0), 0.0)
        assert list(sv.readings) == [f"T{i:02d}" for i in range(7)]
        assert list(sv.readings.items()) == scalar_scan(world, PlanarPoint(500.0, 500.0))

    def test_exact_threshold_included_as_asu_zero(self):
        # tx - p0 - 10*3*log10(100/10) = tx - 60; tx = -53 lands exactly at -113
        tower = Tower("T0", PlanarPoint(0.0, 0.0), -53.0)
        world = flat_world([tower])
        sv = scan_at(world, PlanarPoint(100.0, 0.0), 0.0)
        assert sv.readings == {"T0": 0}

    def test_below_threshold_errors(self):
        tower = Tower("T0", PlanarPoint(0.0, 0.0), -54.0)
        world = flat_world([tower])
        with pytest.raises(ValueError, match="audible"):
            scan_at(world, PlanarPoint(100.0, 0.0), 0.0)

    def test_quantization_matches_field(self):
        towers = [Tower(f"T{i}", PlanarPoint(100.0 * i, 50.0), -30.0) for i in range(5)]
        world = flat_world(towers, shadow=4.0)
        p = PlanarPoint(222.0, 111.0)
        sv = scan_at(world, p, 0.0)
        by_id = {t.tower_id: t for t in towers}
        for tid, asu in sv.readings.items():
            assert asu == dbm_to_asu(received_dbm(world, by_id[tid], p))

    def test_truth_attached(self):
        tower = Tower("T0", PlanarPoint(0.0, 0.0), -20.0)
        world = flat_world([tower])
        p = PlanarPoint(25.0, 35.0)
        sv = scan_at(world, p, 7.0)
        back = project(GEO_ORIGIN, sv.truth)
        assert math.hypot(back.x - p.x, back.y - p.y) < 1e-6


class TestGenerateTrace:
    @staticmethod
    def _world():
        towers = [Tower(f"T{i}", PlanarPoint(200.0 * i, 100.0), -20.0) for i in range(5)]
        return flat_world(towers, shadow=3.0, seed=5)

    def test_kinematics_100m_at_10mps(self):
        route = Route((PlanarPoint(0.0, 0.0), PlanarPoint(100.0, 0.0)), 10.0)
        trace = generate_trace(self._world(), route)
        assert len(trace) == 11
        assert [s.timestamp for s in trace] == [float(t) for t in range(11)]

    def test_fast_vehicle_two_scans(self):
        route = Route((PlanarPoint(0.0, 0.0), PlanarPoint(100.0, 0.0)), 500.0)
        trace = generate_trace(self._world(), route)
        assert len(trace) == 2

    def test_regeneration_identical(self):
        world = self._world()
        route = Route((PlanarPoint(0.0, 0.0), PlanarPoint(300.0, 400.0)), 7.0)
        t1 = generate_trace(world, route)
        t2 = generate_trace(world, route)
        assert t1 == t2

    def test_truth_on_polyline(self):
        world = self._world()
        waypoints = (PlanarPoint(0.0, 0.0), PlanarPoint(100.0, 0.0), PlanarPoint(100.0, 80.0))
        route = Route(waypoints, 9.0)
        trace = generate_trace(world, route)
        for sv in trace:
            p = project(GEO_ORIGIN, sv.truth)
            d = min(
                _point_segment_distance(p, a, b)
                for a, b in zip(waypoints, waypoints[1:])
            )
            assert d < 1e-6

    @pytest.mark.parametrize("repeats", [1, 2])
    def test_route_ending_on_a_repeated_waypoint_ends_there(self, repeats):
        # The end fell on the zero-length last segment: a 0/0 fraction, a NaN
        # position and "no tower audible at (nan, nan)".
        world = self._world()
        end = PlanarPoint(10.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = generate_trace(world, Route((_ORIGIN_XY, end) + (end,) * repeats, 3.0))
            plain = generate_trace(world, Route((_ORIGIN_XY, end), 3.0))
        assert [s.truth for s in trace] == [s.truth for s in plain]
        assert project(GEO_ORIGIN, trace[-1].truth).x == pytest.approx(10.0, abs=1e-6)

    def test_monotone_audibility_under_power_increase(self):
        towers = [Tower(f"T{i}", PlanarPoint(123.0 * i, 77.0 * i), -45.0) for i in range(8)]
        noiseless = dict(measurement_noise_db=0.0)
        world_lo = dataclasses.replace(flat_world(towers, shadow=4.0, seed=9), **noiseless)
        boosted = [
            Tower(t.tower_id, t.location, t.tx_power_dbm + (6.0 if t.tower_id == "T3" else 0.0))
            for t in towers
        ]
        world_hi = dataclasses.replace(flat_world(boosted, shadow=4.0, seed=9), **noiseless)
        route = Route((PlanarPoint(0.0, 0.0), PlanarPoint(600.0, 500.0)), 25.0)
        lo = generate_trace(world_lo, route)
        hi = generate_trace(world_hi, route)
        for a, b in zip(lo, hi):
            if "T3" in a.readings:
                assert "T3" in b.readings


def _point_segment_distance(p, a, b):
    ax, ay, bx, by = a.x, a.y, b.x, b.y
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    t = 0.0 if L2 == 0 else max(0.0, min(1.0, ((p.x - ax) * dx + (p.y - ay) * dy) / L2))
    return math.hypot(p.x - (ax + t * dx), p.y - (ay + t * dy))


_T0 = Tower("T0", PlanarPoint(0.0, 0.0), -20.0)
_ORIGIN_XY = PlanarPoint(0.0, 0.0)


@pytest.mark.parametrize("make,message", [
    pytest.param(lambda: Route((_ORIGIN_XY,), 10.0), "at least 2 waypoints", id="one_waypoint"),
    pytest.param(lambda: Route((_ORIGIN_XY, PlanarPoint(100.0, 0.0)), 0.0),
                 r"^speed 0\.0 is not a positive finite number$", id="speed_0"),
    pytest.param(lambda: Route((_ORIGIN_XY, PlanarPoint(100.0, 0.0)), math.nan),
                 "^speed nan is not a positive finite number$", id="speed_nan"),
    pytest.param(lambda: Route((_ORIGIN_XY, PlanarPoint(100.0, 0.0)), math.inf),
                 "^speed inf is not a positive finite number$", id="speed_inf"),
    pytest.param(lambda: Route((_ORIGIN_XY, PlanarPoint(math.nan, 0.0)), 10.0),
                 "waypoints must be finite", id="waypoint_nan"),
    pytest.param(lambda: Route((_ORIGIN_XY, PlanarPoint(100.0, -math.inf)), 10.0),
                 "waypoints must be finite", id="waypoint_inf"),
    pytest.param(lambda: flat_world([_T0], bounds=(0.0, 0.0, 1000.0, 0.0)),
                 "bounds must have positive extent", id="zero_extent_bounds"),
    pytest.param(lambda: flat_world([_T0], seed=-1), "^seed must be an integer >= 0, got -1$",
                 id="negative_seed"),
    pytest.param(lambda: generate_trace(flat_world([_T0]), Route((_ORIGIN_XY, _ORIGIN_XY), 10.0)),
                 "route has zero length", id="equal_waypoints"),
])
def test_bad_route_or_world_refused(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("seed,tower_id,message", [
    pytest.param(-1, "T0", "^seed must be an integer >= 0, got -1$", id="seed_-1"),
    pytest.param(1.5, "T0", r"^seed must be an integer >= 0, got 1\.5$", id="seed_1.5"),
    pytest.param(True, "T0", "^seed must be an integer >= 0, got True$", id="seed_True"),
    pytest.param(0, "", "^tower_id must be non-empty$", id="empty_tower_id"),
])
def test_world_seed_or_tower_id_refused_before_any_draw(monkeypatch, seed, tower_id, message):
    # A seed of 1.5 raised numpy's TypeError at the first draw and True was
    # accepted; an empty id failed only inside generate_trace.
    def refuse(*args, **kwargs):
        raise AssertionError("drew from a SeedSequence before checking the world")

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    with pytest.raises(ValueError, match=message):
        flat_world([Tower(tower_id, PlanarPoint(0.0, 0.0), -20.0)], seed=seed)


@pytest.mark.parametrize("name,value", [
    ("measurement_noise_db", -1.0),
    ("measurement_noise_db", math.nan),
    ("measurement_noise_db", math.inf),
    ("shadow_sigma_db", math.nan),
    ("shadow_sigma_db", math.inf),
    ("shadow_grid_spacing", math.nan),
    ("shadow_grid_spacing", math.inf),
    ("bounds", (0.0, 0.0, math.inf, 1000.0)),
    ("bounds", (-math.inf, 0.0, 1000.0, 1000.0)),
    ("bounds", (0.0, 0.0, 1000.0, math.nan)),
])
def test_world_setting_not_finite_or_negative_refused(name, value):
    settings = {"bounds": (0.0, 0.0, 1000.0, 1000.0), "towers": (_T0,), "seed": 0, name: value}
    message = (f"^{name} {value} is not a positive finite number$"
               if name == "shadow_grid_spacing" else f"^{name} must")
    with pytest.raises(ValueError, match=message):
        SynthWorld(**settings)


def test_two_towers_with_one_id_refused():
    # Accepted, a scan would keep one reading for "T0" and lose the other tower.
    twin = Tower("T0", PlanarPoint(5.0, 5.0), -20.0)
    with pytest.raises(ValueError, match="^tower_id 'T0' names more than one tower$"):
        flat_world([_T0, Tower("T1", PlanarPoint(9.0, 0.0), -20.0), twin])


@pytest.mark.parametrize("ids", [(5,), ("T0", 5)], ids=["int", "mixed"])
def test_tower_id_not_a_str_refused(ids):
    # Int ids would reach every scan, and a mixed pair broke the id sort.
    towers = [Tower(tid, PlanarPoint(5.0 * k, 5.0), -20.0) for k, tid in enumerate(ids)]
    with pytest.raises(ValueError, match="^tower_id must be a str, got 5$"):
        flat_world(towers)


@pytest.mark.parametrize("location,tx_power_dbm", [
    (PlanarPoint(math.nan, 0.0), -20.0),
    (PlanarPoint(0.0, math.inf), -20.0),
    (PlanarPoint(0.0, 0.0), math.nan),
    (PlanarPoint(0.0, 0.0), -math.inf),
])
def test_tower_not_finite_refused(location, tx_power_dbm):
    # Accepted, such a tower would never be heard, without an error.
    bad = Tower("A", location, tx_power_dbm)
    with pytest.raises(ValueError, match="^tower 'A' location and tx_power_dbm must be finite$"):
        flat_world([bad, Tower("B", PlanarPoint(10.0, 10.0), -20.0)])


class TestPresets:
    def test_trim_polyline_refuses_a_target_past_its_end(self):
        path = [PlanarPoint(0.0, 0.0), PlanarPoint(100.0, 0.0), PlanarPoint(100.0, 50.0)]
        assert _trim_polyline(path, 120.0) == [*path[:2], PlanarPoint(100.0, 20.0)]
        with pytest.raises(ValueError, match=r"^polyline shorter \(150 m\) than requested 200 m$"):
            _trim_polyline(path, 200.0)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            make_preset("suburban", 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_not_an_integer_from_0_refused_before_any_draw(self, monkeypatch, seed):
        def refuse(*args, **kwargs):
            raise AssertionError("drew from a SeedSequence before checking the seed")

        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        with pytest.raises(ValueError, match=rf"^seed must be an integer >= 0, got {seed!r}$"):
            make_preset("rural", seed)

    def test_rural_shape(self):
        world, routes = make_preset("rural", seed=0)
        assert len(world.towers) == 51
        x0, y0, x1, y1 = world.bounds
        assert (x1 - x0) * (y1 - y0) == pytest.approx(1.96e6)
        train = generate_trace(world, routes["train"])
        test = generate_trace(world, routes["test"])
        assert len(train) == 1599
        assert len(test) == 573

    def test_urban_shape(self):
        world, routes = make_preset("urban", seed=0)
        assert len(world.towers) == 137
        x0, y0, x1, y1 = world.bounds
        assert (x1 - x0) * (y1 - y0) == pytest.approx(5.45e6, rel=1e-3)

    def test_rural_audibility_in_range(self):
        world, routes = make_preset("rural", seed=0)
        train = generate_trace(world, routes["train"])
        counts = [len(s.readings) for s in train]
        assert 4.0 <= np.mean(counts) <= 7.0

    def test_preset_traces_deterministic_bytes(self):
        def trace_bytes(seed):
            world, routes = make_preset("rural", seed=seed)
            buf = io.StringIO()
            # write_trace wants a path; go through a temp buffer instead
            scans = generate_trace(world, routes["train"])
            for s in scans:
                buf.write(f"{s.timestamp!r},{sorted(s.readings.items())!r},{s.truth!r}\n")
            return buf.getvalue().encode()

        assert trace_bytes(3) == trace_bytes(3)
        assert trace_bytes(3) != trace_bytes(4)


def _oracle_world(shadow):
    rng = np.random.default_rng(11)
    towers = tuple(
        Tower(f"T{i}", PlanarPoint(rng.uniform(0, 600), rng.uniform(0, 400)), rng.uniform(-50, -20))
        for i in range(9)
    )
    return SynthWorld((0.0, 0.0, 600.0, 400.0), towers, seed=3,
                      shadow_sigma_db=shadow, shadow_grid_spacing=45.0)


# Points inside and around the bounds, on lattice nodes, and far outside
# (clamped to the lattice edge, some beyond every tower's range).
_ORACLE_POINTS = [
    PlanarPoint(x, y) for x, y in np.random.default_rng(12).uniform(-50, 650, (40, 2))
] + [
    PlanarPoint(-45.0, -45.0),
    PlanarPoint(0.0, 0.0),
    PlanarPoint(90.0, 135.0),
    PlanarPoint(-900.0, 200.0),
    PlanarPoint(300.0, 5000.0),
    PlanarPoint(2e4, -2e4),
]


class TestFieldOracle:
    """The array field against the scalar per-tower, per-point references."""

    @pytest.mark.parametrize("shadow", [0.0, 6.0])
    def test_received_dbm_bit_identical(self, shadow):
        world = _oracle_world(shadow)
        points = _ORACLE_POINTS + [world.towers[4].location]
        for p in points:
            for rank, tower in enumerate(world.towers):
                assert received_dbm(world, tower, p) == scalar_received_dbm(world, rank, p)

    @pytest.mark.parametrize("shadow", [0.0, 6.0])
    def test_scan_at_matches_oracle(self, shadow):
        world = dataclasses.replace(_oracle_world(shadow), measurement_noise_db=4.0)
        ours, ref = np.random.default_rng(5), np.random.default_rng(5)
        for t, p in enumerate(_ORACLE_POINTS):
            expected = scalar_scan(world, p, ref)
            if expected is None:
                with pytest.raises(ValueError, match="no tower audible"):
                    scan_at(world, p, float(t), noise_rng=ours)
                continue
            sv = scan_at(world, p, float(t), noise_rng=ours)
            assert list(sv.readings.items()) == expected
            assert sv.timestamp == float(t)
        assert ours.normal() == ref.normal()  # both consumed one draw per tower per scan

    def test_generate_trace_matches_stepwise_oracle(self):
        world = dataclasses.replace(_oracle_world(6.0), measurement_noise_db=3.0)
        waypoints = (
            PlanarPoint(-30.0, 20.0),
            PlanarPoint(500.0, 60.0),
            PlanarPoint(480.0, 390.0),
            PlanarPoint(40.0, 300.0),
        )
        route = Route(waypoints, 11.0)
        trace = generate_trace(world, route)
        expected = scalar_trace(world, route, _route_noise_seed(world, route))
        assert len(trace) == len(expected)
        for t, (sv, (x, y, readings)) in enumerate(zip(trace, expected)):
            assert sv.timestamp == float(t)
            assert list(sv.readings.items()) == readings
            back = project(GEO_ORIGIN, sv.truth)
            assert math.hypot(back.x - x, back.y - y) < 1e-6

    def test_tower_outside_world_rejected(self):
        world = _oracle_world(6.0)
        with pytest.raises(ValueError):
            received_dbm(world, Tower("X", PlanarPoint(1.0, 1.0), -20.0), PlanarPoint(2.0, 2.0))


class TestPrunedFieldOracle:
    """Trace synthesis computes the exact path loss only where a tower may be heard."""

    @staticmethod
    def _assert_heard_pairs_exact(world, points, noise):
        x = np.array([p.x for p in points])
        y = np.array([p.y for p in points])
        got = _heard_dbm(world, x, y, noise)
        kept = 0
        for k, p in enumerate(points):
            for rank in range(len(world.towers)):
                want = scalar_received_dbm(world, rank, p) + noise[k, rank]
                if want >= SENSITIVITY_DBM:
                    assert got[k, rank] == want, (k, rank)
                else:
                    assert got[k, rank] in (want, -math.inf), (k, rank)
                kept += got[k, rank] != -math.inf
        return kept

    @pytest.mark.parametrize("sigma", [0.0, 4.0])
    @pytest.mark.parametrize("shadow", [0.0, 6.0])
    def test_heard_pairs_bit_identical(self, shadow, sigma):
        world = _oracle_world(shadow)
        tower = world.towers[4].location
        points = _ORACLE_POINTS + [tower, PlanarPoint(tower.x + 3.0, tower.y - 4.0)]
        noise = np.zeros((len(points), len(world.towers)))
        if sigma:
            noise = np.random.default_rng(6).normal(0.0, sigma, (len(points), len(world.towers)))
        kept = self._assert_heard_pairs_exact(world, points, noise)
        assert 0 < kept < len(points) * len(world.towers)  # some pairs are pruned

    def test_reading_exactly_at_the_threshold_kept(self):
        # tx - p0 - 10*3*log10(100/10) = -53 - 30 - 30 = -113 exactly
        world = flat_world([Tower("T0", PlanarPoint(0.0, 0.0), -53.0)])
        noise = np.zeros((1, 1))
        got = _heard_dbm(world, np.array([100.0]), np.array([0.0]), noise)
        assert got.tolist() == [[SENSITIVITY_DBM]]
        assert self._assert_heard_pairs_exact(world, [PlanarPoint(100.0, 0.0)], noise) == 1

    def test_route_over_blocks_matches_stepwise_oracle(self):
        world = dataclasses.replace(_oracle_world(6.0), measurement_noise_db=3.0)
        waypoints = (PlanarPoint(-30.0, 20.0), PlanarPoint(500.0, 60.0), PlanarPoint(40.0, 300.0))
        route = Route(waypoints, 1.9)
        trace = generate_trace(world, route)
        expected = scalar_trace(world, route, _route_noise_seed(world, route))
        assert len(trace) > 2 * _BLOCK_SCANS
        assert [list(sv.readings.items()) for sv in trace] == [r for _, _, r in expected]

    def test_silent_spot_past_the_first_block(self):
        # audible out to about 1259 m without noise; at 2 m/s that is past the first block
        tower = Tower("T0", PlanarPoint(0.0, 0.0), -20.0)
        world = flat_world([tower], bounds=(0.0, 0.0, 2000.0, 100.0))
        route = Route((PlanarPoint(0.0, 0.0), PlanarPoint(2000.0, 0.0)), 2.0)
        expected = scalar_trace(world, route, _route_noise_seed(world, route))
        first_silent = next(k for k, (_, _, r) in enumerate(expected) if r is None)
        assert first_silent > _BLOCK_SCANS
        x, y, _ = expected[first_silent]
        with pytest.raises(ValueError, match=rf"^no tower audible at \({x:.1f}, {y:.1f}\)$"):
            generate_trace(world, route)


class TestGoldenTraces:
    def test_rural_seed5_has_a_silent_spot(self):
        world, routes = make_preset("rural", seed=5)
        with pytest.raises(ValueError, match=r"^no tower audible at \(62\.0, 50\.0\)$"):
            generate_trace(world, routes["train"])
