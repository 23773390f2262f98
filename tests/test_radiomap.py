import copy
import dataclasses
import json
import math
import pickle
import random
import re
import warnings
from types import SimpleNamespace

import pytest

from conftest import ORIGIN, scan_at_planar
from gsmloc.estimators import LocationEstimate
from gsmloc.geo import GeoPoint, PlanarPoint, ProjectionRangeWarning, ScanVector, project, unproject
from gsmloc.radiomap import (
    MAP_FORMAT_VERSION,
    FingerprintPoint,
    GridCell,
    MapFormatError,
    SmoothingParams,
    TowerHistogram,
    ablate_towers,
    build_radio_map,
    load_radio_map,
    planar_truths,
    save_radio_map,
)
from gsmloc.synth import generate_trace, make_preset
from oracles import likelihood_from_counts, map_cells, random_instance, scalar_radio_map

import numpy as np


class TestBuild:
    def test_four_corner_points_one_cell(self):
        scans = [
            scan_at_planar(t, x, y, {"A": 10})
            for t, (x, y) in enumerate([(1.0, 1.0), (69.0, 1.0), (1.0, 69.0), (69.0, 69.0)])
        ]
        rm = build_radio_map(scans, 70.0, origin=ORIGIN)
        assert rm.n_cells == 1
        (cell,) = map_cells(rm).values()
        assert cell["centroid"] == pytest.approx((35.0, 35.0), abs=1e-9)
        assert cell["histograms"]["A"][10] == 4
        assert sum(cell["histograms"]["A"]) == 4

    def test_two_points_two_cells(self):
        scans = [
            scan_at_planar(0, 10.0, 10.0, {"A": 5}),
            scan_at_planar(1, 100.0, 10.0, {"A": 6}),
        ]
        rm = build_radio_map(scans, 70.0, origin=ORIGIN)
        assert rm.n_cells == 2
        assert all(len(c["points"]) == 1 for c in map_cells(rm).values())

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_radio_map([], 70.0)

    @pytest.mark.parametrize("ids", [("A", 5), (5,)], ids=["mixed", "int"])
    def test_tower_location_ids_not_str_refused(self, ids):
        # An int key would save as "5" and load as another map; mixed keys broke the sort.
        towers = {tid: GeoPoint(30.001, 31.0) for tid in ids}
        with pytest.raises(ValueError, match="^tower_id must be a str, got 5$"):
            build_radio_map([scan_at_planar(0, 1.0, 1.0, {"A": 5})], 70.0, origin=ORIGIN,
                            tower_locations=towers)

    def test_missing_truth_names_timestamp(self):
        from gsmloc.geo import ScanVector

        scans = [scan_at_planar(0, 1.0, 1.0, {"A": 5}), ScanVector(17.5, {"A": 5})]
        with pytest.raises(ValueError, match=r"^scan at t=17\.5 has no ground truth$"):
            build_radio_map(scans, 70.0)

    def test_bad_grid_length(self):
        with pytest.raises(ValueError):
            build_radio_map([scan_at_planar(0, 1.0, 1.0, {"A": 5})], 0.0)

    @staticmethod
    def _corner_scans():
        return [scan_at_planar(t, x, y, {"A": 5})
                for t, (x, y) in enumerate([(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)])]

    @pytest.mark.parametrize("grid_length", [1e-9, 1e-300])
    def test_grid_length_whose_cell_keys_overflow_refused(self, grid_length):
        # at 1e-9 the int64 key row * width + col would wrap: 1e11 rows times 1e11 columns
        message = rf"^grid_length {re.escape(str(grid_length))} puts a cell index at 2\*\*31 or more$"
        with pytest.raises(ValueError, match=message):
            build_radio_map(self._corner_scans(), grid_length, origin=ORIGIN)

    def test_fine_grid_keys_exact(self):
        scans = self._corner_scans()
        xy = [project(ORIGIN, s.truth) for s in scans]
        ax, ay = min(p.x for p in xy), min(p.y for p in xy)
        want = sorted((math.floor((p.y - ay) / 1e-6), math.floor((p.x - ax) / 1e-6)) for p in xy)
        rm = build_radio_map(scans, 1e-6, origin=ORIGIN)
        assert list(rm.keys) == want == [(0, 0), (0, want[1][1]), (want[2][0], 0)]
        assert min(want[1][1], want[2][0]) >= 99_999_999  # about 100 m / 1e-6 m

    @pytest.mark.parametrize("grid_length", [math.nan, math.inf, 0.0, -1.0])
    def test_grid_length_not_positive_finite_refused_before_array_work(self, grid_length):
        message = rf"^grid_length {re.escape(str(grid_length))} is not a positive finite number$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                build_radio_map(self._corner_scans(), grid_length, origin=ORIGIN)

    def test_total_points_equals_scan_count(self):
        rng = np.random.default_rng(3)
        rm, _ = random_instance(rng)
        cells = map_cells(rm).values()
        n_scans = sum(len(c["points"]) for c in cells)
        rebuilt_total = sum(sum(sum(h) for h in c["histograms"].values()) for c in cells)
        readings_total = sum(len(readings) for c in cells for _, _, readings in c["points"])
        assert rebuilt_total == readings_total
        assert n_scans >= rm.n_cells  # every cell holds at least one point

    def test_grid_assignment_consistent(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            rm, _ = random_instance(rng)
            g = rm.grid_length
            for (row, col), cell in map_cells(rm).items():
                for x, y, _ in cell["points"]:
                    assert rm.anchor_x + col * g <= x < rm.anchor_x + (col + 1) * g
                    assert rm.anchor_y + row * g <= y < rm.anchor_y + (row + 1) * g

    def test_histograms_match_member_readings(self):
        rng = np.random.default_rng(5)
        rm, _ = random_instance(rng)
        for cell in map_cells(rm).values():
            per_tower = {}
            for _, _, readings in cell["points"]:
                for tid, asu in readings.items():
                    per_tower.setdefault(tid, []).append(asu)
            assert set(per_tower) == set(cell["histograms"])
            for tid, values in per_tower.items():
                assert sum(cell["histograms"][tid]) == len(values)
                for asu in values:
                    assert cell["histograms"][tid][asu] >= 1

    def test_shuffled_rebuild_identical(self):
        rng = np.random.default_rng(7)
        scans = [
            scan_at_planar(t, rng.uniform(0, 200), rng.uniform(0, 200), {"A": 5, "B": 9})
            for t in range(40)
        ]
        rm1 = build_radio_map(scans, 70.0, origin=ORIGIN)
        shuffled = scans[:]
        random.Random(0).shuffle(shuffled)
        shuffled.sort(key=lambda s: s.timestamp)
        rm2 = build_radio_map(shuffled, 70.0, origin=ORIGIN)
        assert rm1 == rm2

    def test_strip_points(self):
        scans = [scan_at_planar(0, 1.0, 1.0, {"A": 5})]
        rm = build_radio_map(scans, 70.0, origin=ORIGIN, strip_points=True)
        assert rm.point_xy.shape == (0, 2) and rm.n_read.shape == (0,)
        assert rm.reading_tower.shape == rm.reading_asu.shape == (0,)
        assert rm.point_offsets.tolist() == [0, 0]
        assert all(c["points"] == [] for c in map_cells(rm).values())

    def test_default_origin_is_truth_centroid(self):
        scans = [
            scan_at_planar(0, 0.0, 0.0, {"A": 5}),
            scan_at_planar(1, 100.0, 0.0, {"A": 5}),
        ]
        origin, xy = planar_truths(scans)
        lats = [s.truth.lat for s in scans]
        lons = [s.truth.lon for s in scans]
        assert origin.lat == pytest.approx(sum(lats) / 2)
        assert origin.lon == pytest.approx(sum(lons) / 2)
        assert xy.tolist() == [[p.x, p.y] for p in (project(origin, s.truth) for s in scans)]
        assert build_radio_map(scans, 70.0).origin == origin

    def test_default_origin_of_an_empty_trace_raises(self):
        # It divided by the zero truth count: a ZeroDivisionError, not a data error.
        with pytest.raises(ValueError, match="^cannot take an origin from an empty trace$"):
            planar_truths([])
        origin, xy = planar_truths([], ORIGIN)  # a given origin needs no truths
        assert origin == ORIGIN and xy.shape == (0, 2)

    def test_default_origin_adds_the_truths_left_to_right(self):
        # 60 + 1e-15 rounds to 60, so the mean is 0.0; Python 3.12's compensated
        # sum() would keep the 1e-15 and move the origin, so every projected truth.
        scans = [ScanVector(float(t), {"A": 5}, GeoPoint(lat, 31.0))
                 for t, lat in enumerate((60.0, 1e-15, -60.0))]
        with pytest.warns(ProjectionRangeWarning):
            origin, _ = planar_truths(scans)
        assert origin.lat == 0.0


    def test_far_trace_warns_once(self):
        # 351 scans about 11 km east of the origin, each at its own distance.
        scans = [scan_at_planar(t, 11_000.0 + 3.0 * t, 5.0 * (t % 20), {"A": 10})
                 for t in range(351)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build_radio_map(scans, 70.0, origin=ORIGIN)
        ranged = [w for w in caught if issubclass(w.category, ProjectionRangeWarning)]
        assert len(ranged) == 1
        assert "351 of 351 points" in str(ranged[0].message)


def _oracle_trace(seed: int, n_scans: int = 240) -> list[ScanVector]:
    """A random trace over a 600 x 250 m strip: readings in random tower order, ASU 0 common."""
    rng = np.random.default_rng(seed)
    towers = [f"T{i:02d}" for i in range(12)]
    scans = []
    for t in range(n_scans):
        p = PlanarPoint(rng.uniform(0.0, 600.0), rng.uniform(0.0, 250.0))
        chosen = rng.choice(len(towers), size=int(rng.integers(1, 8)), replace=False)
        readings = {towers[c]: 0 if rng.random() < 0.2 else int(rng.integers(1, 32))
                    for c in chosen}
        scans.append(ScanVector(float(t), readings, truth=unproject(ORIGIN, p)))
    return scans


class TestScalarOracle:
    """``build_radio_map`` and ``ablate_towers`` equal the one-scan-at-a-time oracle."""

    def test_random_traces_hold_what_the_cases_need(self):
        scans = _oracle_trace(0)
        assert any(list(s.readings) != sorted(s.readings) for s in scans)
        assert sum(asu == 0 for s in scans for asu in s.readings.values()) > 50

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("grid_length", [50.0, 70.0, 110.0])
    @pytest.mark.parametrize("strip_points", [False, True])
    def test_build(self, seed, grid_length, strip_points):
        scans = _oracle_trace(seed)
        towers = {f"T{i:02d}": unproject(ORIGIN, PlanarPoint(50.0 * i, 20.0 * i))
                  for i in range(12)}
        for origin in (ORIGIN, None):
            built = build_radio_map(scans, grid_length, origin=origin, tower_locations=towers,
                                    strip_points=strip_points)
            assert built == scalar_radio_map(scans, grid_length, origin=origin,
                                             tower_locations=towers, strip_points=strip_points)

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("grid_length", [50.0, 110.0])
    @pytest.mark.parametrize("strip_points", [False, True])
    def test_after_ablate_towers(self, seed, grid_length, strip_points):
        scans = _oracle_trace(seed)
        built = build_radio_map(scans, grid_length, origin=ORIGIN, strip_points=strip_points)
        ablated = ablate_towers(built, 0.5, seed)
        dropped = set(built.tower_ids) - set(ablated.tower_ids)
        assert len(dropped) == 6
        assert ablated == scalar_radio_map(scans, grid_length, origin=ORIGIN,
                                           strip_points=strip_points, dropped=dropped)

    @pytest.mark.parametrize("preset", ["rural", "urban"])
    def test_preset_seed_0(self, preset):
        world, routes = make_preset(preset, 0)
        train = generate_trace(world, routes["train"])
        towers = world.tower_locations_geo()
        assert build_radio_map(train, 70.0, tower_locations=towers) == scalar_radio_map(
            train, 70.0, tower_locations=towers)


def _reloaded(rm, path):
    save_radio_map(rm, path)
    return load_radio_map(path)


def _oracle_map(strip_points=False):
    return build_radio_map(_oracle_trace(0), 70.0, origin=ORIGIN, strip_points=strip_points)


@pytest.mark.parametrize("make,has_points", [
    pytest.param(lambda path: _oracle_map(), True, id="built"),
    pytest.param(lambda path: _reloaded(_oracle_map(), path), True, id="loaded"),
    pytest.param(lambda path: ablate_towers(_oracle_map(), 0.5, 1), True, id="ablated_0.5_1"),
    pytest.param(lambda path: ablate_towers(_oracle_map(), 0.4, 7), True, id="ablated_0.4_7"),
    pytest.param(lambda path: _reloaded(ablate_towers(_oracle_map(), 0.4, 7), path), True,
                 id="ablated_loaded"),
    pytest.param(lambda path: _oracle_map(strip_points=True), False, id="stripped"),
    pytest.param(lambda path: _reloaded(_oracle_map(strip_points=True), path), False,
                 id="stripped_loaded"),
])
def test_cells_view_equals_the_oracle_reader(tmp_path, make, has_points):
    """The GridCell view holds what the arrays hold, as ``map_cells`` reads them."""
    rm = make(str(tmp_path / "map.json"))
    view = {key: {"centroid": (c.centroid.x, c.centroid.y),
                  "histograms": {tid: list(h.counts) for tid, h in c.histograms.items()},
                  "points": [(p.location.x, p.location.y, p.readings) for p in c.points]}
            for key, c in rm.cells.items()}
    assert list(view) == list(rm.keys)
    assert view == map_cells(rm)
    assert (len(rm.point_xy) > 0) == has_points


def _base_map():
    """Two cells, (0, 0) hearing towers A and B and (0, 1) hearing A, with points kept."""
    scans = [scan_at_planar(0, 1.0, 1.0, {"A": 10, "B": 4}),
             scan_at_planar(1, 101.0, 1.0, {"A": 7})]
    towers = {"A": GeoPoint(30.001, 31.0)}
    return build_radio_map(scans, 70.0, origin=ORIGIN, tower_locations=towers)


def _map_with(**fields):
    """The RadioMap constructor on :func:`_base_map`'s fields, ``fields`` replacing some.

    The base arrays: keys ((0, 0), (0, 1)); towers A and B in columns 0 and
    1; histograms (0, 0)/A at ASU 10, (0, 0)/B at 4 and (0, 1)/A at 7; one
    point per cell, reading {A: 10, B: 4} and {A: 7}: ``n_read`` [2, 1],
    ``reading_tower`` [0, 1, 0] and ``reading_asu`` [10, 4, 7].
    """
    return dataclasses.replace(_base_map(), **fields)


def _counts(**bins):
    """A 32-bin counts row with the given ASU bins (``a5=3``: three readings at ASU 5)."""
    counts = [0] * 32
    for name, count in bins.items():
        counts[int(name[1:])] = count
    return counts


EIGHT = [f"T{i}" for i in range(8)]  # tower columns 2..9 next to A and B


class TestRules:
    """Each rule RadioMap checks, broken once on an otherwise valid map."""

    def test_unbroken_map_constructs(self):
        rm = _map_with()
        assert rm == _base_map()
        assert list(rm.keys) == [(0, 0), (0, 1)]

    @pytest.mark.parametrize("fields,message", [
        pytest.param(dict(counts=[[1] * 31] * 3), "32 bins", id="31_bins"),
        pytest.param(dict(counts=[_counts(), _counts(a4=1), _counts(a7=1)]),
                     "at least one reading", id="all_counts_zero"),
        pytest.param(dict(counts=[_counts(a3=-1, a5=2), _counts(a4=1), _counts(a7=1)]),
                     "non-negative", id="negative_count"),
        pytest.param(dict(counts=[_counts(a3=-2**32, a10=1), _counts(a4=1), _counts(a7=1)]),
                     "non-negative", id="negative_count_wrapping_int32"),
        pytest.param(dict(counts=[_counts(a10=2**31), _counts(a4=1), _counts(a7=1)]),
                     "does not fit in int32", id="count_2_31"),
        pytest.param(dict(hist_tower=[0, 2, 0]), r"not in 'towers'.*columns \[2\]",
                     id="unknown_histogram_tower"),
        pytest.param(dict(reading_asu=[-2, 4, 7]), "outside ASU", id="asu_minus_2"),
        pytest.param(dict(reading_asu=[32, 4, 7]), "outside ASU", id="asu_32"),
        pytest.param(dict(n_read=[0, 1], reading_tower=[0], reading_asu=[7]),
                     r"1\.\.7 readings", id="no_readings"),
        pytest.param(dict(tower_ids=("A", "B", *EIGHT), n_read=[8, 1],
                          reading_tower=[*range(8), 0], reading_asu=[10, 4, *[5] * 6, 7]),
                     r"1\.\.7 readings", id="eight_readings"),
        pytest.param(dict(reading_tower=[0, 0, 0]), "reads one tower twice", id="tower_twice"),
        pytest.param(dict(reading_tower=[1, 0, 0], reading_asu=[4, 10, 7]),
                     "out of column order", id="readings_out_of_column_order"),
        pytest.param(dict(reading_tower=[0, 2, 0]), r"not in 'towers'.*columns \[2\]",
                     id="unknown_reading_tower"),
        pytest.param(dict(n_read=[2, 2]), "reading counts disagree", id="n_read_sum_too_high"),
        pytest.param(dict(centroids=[[math.nan, 1.0], [101.0, 1.0]]), "finite",
                     id="nan_centroid"),
        pytest.param(dict(grid_length=math.inf), "finite", id="inf_grid_length"),
        pytest.param(dict(hist_cell=[1], hist_tower=[0], counts=[_counts(a7=1)]),
                     r"cell \(0, 0\) holds no histogram", id="empty_cell"),
        pytest.param(dict(keys=((0, 1), (0, 0))), "keys are not sorted",
                     id="keys_unsorted"),
        pytest.param(dict(hist_tower=[1, 0, 0], counts=[_counts(a4=1), _counts(a10=1),
                                                         _counts(a7=1)]),
                     r"one per \(cell, tower\) pair", id="histograms_unsorted"),
        pytest.param(dict(hist_cell=[0, 1, 2]), r"one per \(cell, tower\) pair",
                     id="histogram_cell_outside_keys"),
        pytest.param(dict(point_offsets=[0, 1, 3]), "shape or offsets", id="offsets_past_end"),
        pytest.param(dict(centroids=[[1.0, 1.0]]), "shape or offsets", id="centroid_missing"),
        pytest.param(dict(n_read=[2, 1, 0]), "reading counts disagree", id="n_read_extra_point"),
        pytest.param(dict(tower_ids=(0, 1)), "tower_id must be a str", id="int_towers"),
        pytest.param(dict(tower_ids=(1, "A")), "tower_id must be a str", id="mixed_towers"),
        pytest.param(dict(tower_ids=("B", "A")), "'towers' must be sorted, each tower once",
                     id="unsorted_towers"),
        pytest.param(dict(tower_ids=("A", "A")), "'towers' must be sorted, each tower once",
                     id="repeated_tower"),
        pytest.param(dict(tower_locations={5: PlanarPoint(0.0, 0.0)}), "tower_id must be a str",
                     id="int_tower_location"),
        pytest.param(dict(tower_locations={"": PlanarPoint(0.0, 0.0)}),
                     "tower_id must be non-empty", id="empty_tower_location"),
    ])
    def test_broken_rule_raises(self, fields, message):
        with pytest.raises(ValueError, match=message):
            _map_with(**fields)


class TestValueTypes:
    """The value types held one per scan, estimate, cell, point or histogram are slotted."""

    @staticmethod
    def _values():
        """A map with tower locations, and one instance of each slotted type."""
        rm = _base_map()
        cell = rm.cells[(0, 0)]
        scan = scan_at_planar(0, 1.0, 1.0, {"A": 10, "B": 4})
        estimate = LocationEstimate(cell.centroid, -3.5, (((0, 0), 1.0),))
        return rm, [scan.truth, cell.centroid, scan, estimate, cell.points[0],
                    cell.histograms["A"], cell]

    def test_no_instance_dict(self):
        _, values = self._values()
        assert [type(v) for v in values] == [GeoPoint, PlanarPoint, ScanVector, LocationEstimate,
                                             FingerprintPoint, TowerHistogram, GridCell]
        for value in values:
            assert not hasattr(value, "__dict__"), type(value).__name__

    @pytest.mark.parametrize("copy_of", [
        pytest.param(lambda obj: pickle.loads(pickle.dumps(obj)), id="pickle"),
        pytest.param(copy.deepcopy, id="deepcopy"),
    ])
    def test_copies_equal(self, copy_of):
        rm, values = self._values()
        assert rm.tower_locations
        copied_map, copied = copy_of((rm, values))
        assert copied == values
        assert copied_map == rm and copied_map.tower_locations == rm.tower_locations
        assert copied_map.cells == rm.cells


class TestEquality:
    def test_load_round_trip_compares_equal(self, tmp_path):
        rm = _base_map()
        path = tmp_path / "map.json"
        save_radio_map(rm, str(path))
        back = load_radio_map(str(path))
        assert back == rm and rm == back and not back != rm

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda rm: dict(counts=[_counts(a10=2), _counts(a4=1), _counts(a7=1)]),
                     id="one_count"),
        pytest.param(lambda rm: dict(reading_asu=[11, 4, 7]), id="one_reading_asu"),
        pytest.param(lambda rm: dict(reading_tower=[0, 1, 1]), id="one_reading_tower"),
        pytest.param(lambda rm: dict(centroids=[[np.nextafter(rm.centroids[0, 0], np.inf),
                                                 rm.centroids[0, 1]], rm.centroids[1]]),
                     id="one_centroid_ulp"),
        pytest.param(lambda rm: dict(tower_locations={
            "A": PlanarPoint(rm.tower_locations["A"].x,
                             np.nextafter(rm.tower_locations["A"].y, np.inf))}),
                     id="one_tower_location"),
    ])
    def test_one_difference_compares_unequal(self, edit):
        rm = _base_map()
        other = dataclasses.replace(rm, **edit(rm))
        assert other != rm and rm != other
        assert not other == rm

    def test_non_map_is_not_equal(self):
        rm = _base_map()
        assert rm.__eq__(object()) is NotImplemented
        assert (rm == "map") is False and (rm != None) is True  # noqa: E711
        assert rm != rm.cells


class TestAsuZero:
    """A reading at ASU 0 is heard, unlike a tower the point did not hear."""

    def test_survives_build_save_load(self, tmp_path):
        scans = [scan_at_planar(0, 1.0, 1.0, {"A": 0, "B": 5}),
                 scan_at_planar(1, 2.0, 1.0, {"A": 0})]
        rm = build_radio_map(scans, 70.0, origin=ORIGIN)
        path = tmp_path / "map.json"
        save_radio_map(rm, str(path))
        back = load_radio_map(str(path))
        assert back == rm
        ((key, cell),) = map_cells(back).items()
        assert [readings for _, _, readings in cell["points"]] == [{"A": 0, "B": 5}, {"A": 0}]
        assert cell["histograms"]["A"][0] == 2
        _, readings = back.cell_point_arrays(key)
        a, b = back.tower_index()["A"], back.tower_index()["B"]
        assert readings[:, a].tolist() == [0, 0] and readings[:, b].tolist() == [5, 0]

    def test_survives_ablate_towers(self):
        scans = [scan_at_planar(0, 1.0, 1.0, {"A": 0, "B": 0, "C": 0, "D": 0}),
                 scan_at_planar(1, 2.0, 1.0, {"A": 3, "B": 0, "C": 6, "D": 0})]
        rm = ablate_towers(build_radio_map(scans, 70.0, origin=ORIGIN), 0.5, 0)
        kept = sorted(rm.tower_ids)
        assert len(kept) == 2
        (cell,) = map_cells(rm).values()
        assert cell["points"][0][2] == dict.fromkeys(kept, 0)
        assert rm.n_read[0] == 2 and rm.reading_asu[:2].tolist() == [0, 0]
        assert [sum(cell["histograms"][t]) for t in kept] == [2, 2]


class TestHistogram:
    def test_requires_32_bins(self):
        with pytest.raises(ValueError, match="32 bins"):
            _map_with(counts=[[1] * 31] * 3)

    def test_requires_a_count(self):
        with pytest.raises(ValueError, match="at least one reading"):
            _map_with(counts=[_counts()] * 3)

    def test_mean(self):
        asus = [10, 10, 10, 20]
        rm = build_radio_map(
            [scan_at_planar(t, 1.0, 1.0, {"A": asu}) for t, asu in enumerate(asus)], 70.0, origin=ORIGIN
        )
        assert rm.mean_asu_matrix().tolist() == [[12.5]]

    def test_mean_norm2(self):
        scans = [scan_at_planar(0, 1.0, 1.0, {"A": 10, "B": 4}),
                 scan_at_planar(1, 2.0, 1.0, {"A": 15}),
                 scan_at_planar(2, 101.0, 1.0, {"B": 3})]
        rm = build_radio_map(scans, 70.0, origin=ORIGIN)
        assert rm.mean_asu_matrix().tolist() == [[12.5, 4.0], [0.0, 3.0]]
        assert rm.mean_asu_norm2().tolist() == [12.5**2 + 16.0, 9.0]
        assert not rm.mean_asu_norm2().flags.writeable


class TestCellLikelihood:
    @staticmethod
    def _cell_with(counts_map, n=None):
        scans = []
        t = 0
        for asu, count in counts_map.items():
            for _ in range(count):
                scans.append(scan_at_planar(t, 1.0, 1.0, {"A": asu}))
                t += 1
        rm = build_radio_map(scans, 70.0, origin=ORIGIN)
        return next(iter(map_cells(rm).values()))

    def test_laplace_smoothing_value(self):
        cell = self._cell_with({10: 4})
        sm = SmoothingParams(alpha=0.5)
        assert likelihood_from_counts(cell, "A", 10, sm) == pytest.approx(4.5 / 20.0, abs=1e-15)

    def test_uniform_histogram_alpha_zero(self):
        cell = self._cell_with({asu: 1 for asu in range(32)})
        sm = SimpleNamespace(alpha=0.0, p_min=1e-4)  # the oracle's alpha; the package refuses 0
        for asu in (0, 7, 31):
            assert likelihood_from_counts(cell, "A", asu, sm) == pytest.approx(1 / 32, abs=1e-15)

    def test_unheard_tower_floor(self):
        cell = self._cell_with({10: 4})
        sm = SmoothingParams()
        assert likelihood_from_counts(cell, "ZZZ", 10, sm) == 1e-4

    def test_sums_to_one_alpha_zero(self):
        cell = self._cell_with({3: 2, 9: 5, 30: 1})
        sm = SimpleNamespace(alpha=0.0, p_min=1e-4)  # the oracle's alpha; the package refuses 0
        total = sum(likelihood_from_counts(cell, "A", asu, sm) for asu in range(32))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_sums_to_one_alpha_positive(self):
        cell = self._cell_with({3: 2, 9: 5})
        sm = SmoothingParams(alpha=0.5)
        total = sum(likelihood_from_counts(cell, "A", asu, sm) for asu in range(32))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_table_matches_scalar_op(self):
        rng = np.random.default_rng(2)
        rm, _ = random_instance(rng)
        sm = SmoothingParams()
        table = rm.log_likelihood_table(sm)
        tower_index = rm.tower_index()
        cells = map_cells(rm)
        for ci, key in enumerate(rm.cell_keys()):
            cell = cells[key]
            for tid, t in tower_index.items():
                for asu in range(32):
                    expected = math.log(likelihood_from_counts(cell, tid, asu, sm))
                    assert table[t, asu, ci] == pytest.approx(expected, rel=1e-12)

    def test_one_table_per_smoothing(self):
        rm, _ = random_instance(np.random.default_rng(3))
        first = rm.log_likelihood_table(SmoothingParams())
        cells = map_cells(rm)
        # An int alpha passes the rule; the table must not do integer arithmetic on it.
        for sm in (SmoothingParams(alpha=2.0, p_min=1e-3), SmoothingParams(alpha=0.1),
                   SmoothingParams(alpha=1)):
            table = rm.log_likelihood_table(sm)
            for ci, key in enumerate(rm.cell_keys()):
                for tid, t in rm.tower_index().items():
                    expected = [math.log(likelihood_from_counts(cells[key], tid, a, sm)) for a in range(32)]
                    assert table[t, :, ci].tolist() == pytest.approx(expected, rel=1e-12)
            assert table.shape == (len(rm.tower_index()) + 1, 32, rm.n_cells)
            assert (table[-1] == math.log(sm.p_min)).all()
        assert rm.log_likelihood_table(SmoothingParams()) is first


def _first_counts(doc):
    return doc["counts"][0]


def _set_first_asu(doc, value):
    doc["reading_asu"][0] = value


def _repeat_a_tower(doc):
    """The first point with two readings or more reads its first tower twice."""
    n_read = doc["n_read"]
    first = sum(n_read[:next(i for i, n in enumerate(n_read) if n >= 2)])
    doc["reading_tower"][first + 1] = doc["reading_tower"][first]


def _negative_count(doc):
    """Point 0 claims -1 readings and point 1 the rest, so the total still agrees."""
    n_read = doc["n_read"]
    n_read[0], n_read[1] = -1, n_read[0] + n_read[1] + 1


def _wrapping_histogram(doc):
    """Four empty bins of the first histogram each 2**62: its int64 total wraps back to its count."""
    counts = _first_counts(doc)
    for asu in [asu for asu, count in enumerate(counts) if count == 0][:4]:
        counts[asu] = 2**62


def _wrapping_counts(doc):
    """Four counts each 2**62 higher: their int64 sum wraps back to the number of readings."""
    for i in range(4):
        doc["n_read"][i] += 2**62


#: A map file in the version-1 layout: one object per cell, readings keyed by tower id.
V1_MAP = {"version": 1, "kind": "radio_map", "origin": {"lat": 30.0, "lon": 31.0},
          "grid_length_m": 70.0, "grid_anchor": {"x": 0.0, "y": 0.0}, "towers": ["A"],
          "cells": [{"row": 0, "col": 0, "centroid": {"x": 1.0, "y": 1.0},
                     "histograms": {"A": [0] * 10 + [1] + [0] * 21},
                     "points": [{"x": 1.0, "y": 1.0, "readings": {"A": 10}}]}]}


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        rm, _ = random_instance(rng)
        path = tmp_path / "map.json"
        save_radio_map(rm, str(path))
        assert load_radio_map(str(path)) == rm

    def test_round_trip_with_tower_locations(self, tmp_path):
        scans = [scan_at_planar(0, 1.0, 1.0, {"A": 5})]
        rm = build_radio_map(
            scans, 70.0, origin=ORIGIN, tower_locations={"A": GeoPoint(30.001, 31.0)}
        )
        path = tmp_path / "map.json"
        save_radio_map(rm, str(path))
        assert load_radio_map(str(path)) == rm

    def test_save_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(17)
        rm, _ = random_instance(rng)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_radio_map(rm, str(p1))
        save_radio_map(rm, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_version_rejected(self, tmp_path):
        rng = np.random.default_rng(19)
        rm, _ = random_instance(rng)
        path = tmp_path / "map.json"
        save_radio_map(rm, str(path))
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match="version"):
            load_radio_map(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(23)
        rm, _ = random_instance(rng)
        path = tmp_path / "map.json"
        save_radio_map(rm, str(path))
        data = path.read_text()
        path.write_text(data[: len(data) // 2])
        with pytest.raises(MapFormatError):
            load_radio_map(str(path))

    def test_version_1_file_rejected(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(V1_MAP))
        with pytest.raises(MapFormatError, match=r"unsupported format version 1 \(expected 2\)"):
            load_radio_map(str(path))

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_bytes(b'{"version": 2, "kind": "radio_map", "keys": ["\xff\xfe"]}')
        with pytest.raises(MapFormatError, match="UTF-8"):
            load_radio_map(str(path))

    @staticmethod
    def _saved_doc(tmp_path):
        rm, _ = random_instance(np.random.default_rng(29))
        path = tmp_path / "map.json"
        save_radio_map(rm, str(path))
        return path, json.loads(path.read_text())

    def test_tower_missing_from_towers_list_rejected(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        doc["towers"].pop()
        path.write_text(json.dumps(doc))
        column = len(doc["towers"])
        with pytest.raises(MapFormatError, match=rf"not in 'towers': columns \[{column}\]"):
            load_radio_map(str(path))

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda d: d["towers"].reverse(), id="reversed"),
        pytest.param(lambda d: d["towers"].append(d["towers"][-1]), id="repeated"),
    ])
    def test_towers_not_sorted_and_distinct_rejected(self, tmp_path, edit):
        path, doc = self._saved_doc(tmp_path)
        assert len(doc["towers"]) > 1
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match="'towers' must be sorted, each tower once"):
            load_radio_map(str(path))

    @pytest.mark.parametrize("kind", [int, float])
    def test_towers_that_are_not_strings_rejected(self, tmp_path, kind):
        # Sorted, so they pass the order check; loaded, every scan's tower would score at the floor.
        path, doc = self._saved_doc(tmp_path)
        doc["towers"] = [kind(i) for i in range(len(doc["towers"]))]
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match=rf"tower_id must be a str, got {kind(0)}"):
            load_radio_map(str(path))

    @pytest.mark.parametrize("first, message", [
        pytest.param("", "tower_id must be non-empty", id="empty"),
        pytest.param(5, "tower_id must be a str, got 5", id="mixed"),
        pytest.param([], "malformed radio map", id="list"),
    ])
    def test_bad_first_tower_id_rejected(self, tmp_path, first, message):
        # The map checks every id ahead of the order check, whose sort raises TypeError on
        # mixed ids; a JSON array is refused as unhashable by the set of ids.
        path, doc = self._saved_doc(tmp_path)
        doc["towers"][0] = first
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match=message):
            load_radio_map(str(path))

    @pytest.mark.parametrize("column", [-1, "n_towers"])
    def test_reading_column_out_of_range_rejected(self, tmp_path, column):
        path, doc = self._saved_doc(tmp_path)
        column = len(doc["towers"]) if column == "n_towers" else column
        doc["reading_tower"][0] = column
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match=rf"not in 'towers': columns \[{column}\]"):
            load_radio_map(str(path))

    @pytest.mark.parametrize("edit,message", [
        pytest.param(lambda d: d["n_read"].pop(), "reading counts disagree", id="count_missing"),
        pytest.param(lambda d: d["n_read"].append(0), "reading counts disagree", id="count_extra"),
        pytest.param(lambda d: d["n_read"].__setitem__(0, d["n_read"][0] + 1),
                     "reading counts disagree", id="count_too_high"),
        pytest.param(lambda d: d["reading_asu"].pop(), "reading counts disagree",
                     id="asu_missing"),
        pytest.param(_negative_count, r"1\.\.7 readings", id="count_negative"),
        pytest.param(_wrapping_counts, r"1\.\.7 readings", id="counts_wrapping_int64"),
        pytest.param(_repeat_a_tower, "reads one tower twice", id="tower_twice"),
    ])
    def test_reading_counts_disagreeing_with_the_points_rejected(self, tmp_path, edit, message):
        path, doc = self._saved_doc(tmp_path)
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match=message):
            load_radio_map(str(path))

    @pytest.mark.parametrize("asu", [-1, 32, 256])  # 256 would wrap to 0 in int8
    def test_point_reading_outside_asu_range_rejected(self, tmp_path, asu):
        path, doc = self._saved_doc(tmp_path)
        _set_first_asu(doc, asu)
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match="outside ASU"):
            load_radio_map(str(path))

    def test_cell_without_histograms_rejected(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        rm = load_radio_map(str(path))
        assert (5, 5) not in rm.keys
        doc["keys"].append([5, 5])
        doc["centroids"].append([360.0, 360.0])
        doc["point_offsets"].append(doc["point_offsets"][-1])
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match=r"cell \(5, 5\) holds no histogram"):
            load_radio_map(str(path))
        with pytest.raises(ValueError, match=r"cell \(5, 5\) holds no histogram"):
            dataclasses.replace(rm, keys=(*rm.keys, (5, 5)),
                                centroids=[*rm.centroids, (360.0, 360.0)],
                                point_offsets=[*rm.point_offsets, rm.point_offsets[-1]])

    def test_duplicate_cell_rejected(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        doc["keys"][1] = doc["keys"][0]
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match="keys are not sorted"):
            load_radio_map(str(path))

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda d: d.update(grid_length_m=0.0), id="grid_length_zero"),
        pytest.param(lambda d: d.update(grid_length_m=-70.0), id="grid_length_negative"),
        pytest.param(lambda d: d.update(grid_length_m=math.nan), id="grid_length_nan"),
        pytest.param(lambda d: d.update(grid_length_m=math.inf), id="grid_length_inf"),
        pytest.param(lambda d: d["grid_anchor"].update(y=math.nan), id="anchor_nan"),
        pytest.param(lambda d: d["centroids"][0].__setitem__(0, math.nan), id="centroid_nan"),
        pytest.param(lambda d: d["point_xy"][-1].__setitem__(0, math.inf), id="point_inf"),
        pytest.param(
            lambda d: d.update(tower_locations={t: {"x": 0.0, "y": -math.inf} for t in d["towers"]}),
            id="tower_location_inf",
        ),
    ])
    def test_non_finite_or_out_of_range_number_rejected(self, tmp_path, edit):
        path, doc = self._saved_doc(tmp_path)
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match="finite"):
            load_radio_map(str(path))

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda d: d["centroids"][0].__setitem__(0, "5.0"), id="centroid_string"),
        pytest.param(lambda d: d["point_xy"][0].__setitem__(0, "5.0"), id="point_string"),
        pytest.param(lambda d: d["keys"][0].__setitem__(0, d["keys"][0][0] + 0.7), id="row_float"),
        pytest.param(lambda d: d["keys"][0].__setitem__(0, str(d["keys"][0][0])), id="row_string"),
        pytest.param(lambda d: _first_counts(d).__setitem__(0, 2.6), id="count_float"),
        pytest.param(lambda d: _first_counts(d).__setitem__(0, "3"), id="count_string"),
        pytest.param(lambda d: _first_counts(d).__setitem__(0, True), id="count_bool"),
        pytest.param(lambda d: _set_first_asu(d, 3.9), id="asu_float"),
        pytest.param(lambda d: _set_first_asu(d, "3"), id="asu_string"),
        pytest.param(lambda d: d.update(grid_length_m="70"), id="grid_length_string"),
        pytest.param(lambda d: d["grid_anchor"].update(x=str(d["grid_anchor"]["x"])),
                     id="anchor_string"),
        pytest.param(lambda d: d.update(tower_locations={t: {"x": "1.0", "y": 0.0}
                                                         for t in d["towers"]}),
                     id="tower_location_string"),
        pytest.param(lambda d: d.update(counts=[n for row in d["counts"] for n in row]),
                     id="histograms_array"),
        pytest.param(lambda d: d.update(reading_asu=[[asu] for asu in d["reading_asu"]]),
                     id="readings_array"),
        pytest.param(lambda d: d.update(tower_locations=[]), id="tower_locations_array"),
        pytest.param(lambda d: d.update(keys={}), id="cells_object"),
        pytest.param(lambda d: d.update(point_xy=[[x, y, 0.0] for x, y in d["point_xy"]]),
                     id="point_of_three"),
    ])
    def test_wrongly_typed_field_rejected(self, tmp_path, edit):
        path, doc = self._saved_doc(tmp_path)
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError):
            load_radio_map(str(path))

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda d: _first_counts(d).__setitem__(0, 2**70), id="count_beyond_int64"),
        pytest.param(lambda d: d["centroids"][0].__setitem__(0, 10**400),
                     id="centroid_beyond_float"),
    ])
    def test_number_too_large_rejected(self, tmp_path, edit):
        path, doc = self._saved_doc(tmp_path)
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match="too large"):
            load_radio_map(str(path))

    @pytest.mark.parametrize("edit", [
        pytest.param(_wrapping_histogram, id="histogram_wrapping_int64"),
        pytest.param(lambda d: _first_counts(d).__setitem__(0, 2**31), id="count_2_31"),
    ])
    def test_count_beyond_int32_rejected(self, tmp_path, edit):
        path, doc = self._saved_doc(tmp_path)
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match="does not fit in int32"):
            load_radio_map(str(path))

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"version": MAP_FORMAT_VERSION, "kind": "gp_grid"}))
        with pytest.raises(MapFormatError, match="kind 'gp_grid', expected 'radio_map'"):
            load_radio_map(str(path))

    def test_histogram_of_31_counts_rejected(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        _first_counts(doc).pop()
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match="expected rows of 32 numbers"):
            load_radio_map(str(path))

    def test_top_level_array_rejected(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        path.write_text(json.dumps([doc]))
        with pytest.raises(MapFormatError, match="expected a JSON object at top level"):
            load_radio_map(str(path))

    @pytest.mark.parametrize("preset", ["rural", "urban"])
    def test_loaded_preset_map_saves_the_same_bytes(self, tmp_path, preset):
        world, routes = make_preset(preset, 0)
        train = generate_trace(world, routes["train"])
        towers = world.tower_locations_geo()
        built = build_radio_map(train, 70.0, tower_locations=towers)
        maps = {"full": built, "ablated_0.4_7": ablate_towers(built, 0.4, 7),
                "stripped": build_radio_map(train, 70.0, tower_locations=towers, strip_points=True)}
        for name, rm in maps.items():
            saved, again = tmp_path / f"{name}.json", tmp_path / f"{name}.again.json"
            save_radio_map(rm, str(saved))
            save_radio_map(load_radio_map(str(saved)), str(again))
            assert saved.read_bytes() == again.read_bytes(), name

    def test_stripped_map_round_trip(self, tmp_path):
        scans = [scan_at_planar(0, 1.0, 1.0, {"A": 5})]
        rm = build_radio_map(scans, 70.0, origin=ORIGIN, strip_points=True)
        path = tmp_path / "map.json"
        save_radio_map(rm, str(path))
        back = load_radio_map(str(path))
        assert back == rm
        assert back.point_xy.shape == (0, 2)
