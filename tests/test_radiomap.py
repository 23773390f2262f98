import dataclasses
import json
import math
import random

import pytest

from conftest import ORIGIN, scan_at_planar
from gsmloc.geo import GeoPoint, PlanarPoint
from gsmloc.radiomap import (
    FingerprintPoint,
    GridCell,
    MapFormatError,
    RadioMap,
    SmoothingParams,
    TowerHistogram,
    build_radio_map,
    load_radio_map,
    save_radio_map,
)
from oracles import likelihood_from_counts, random_instance

import numpy as np


class TestBuild:
    def test_four_corner_points_one_cell(self):
        scans = [
            scan_at_planar(t, x, y, {"A": 10})
            for t, (x, y) in enumerate([(1.0, 1.0), (69.0, 1.0), (1.0, 69.0), (69.0, 69.0)])
        ]
        rm = build_radio_map(scans, 70.0, origin=ORIGIN)
        assert rm.n_cells == 1
        ((key, cell),) = rm.cells.items()
        assert cell.centroid.x == pytest.approx(35.0, abs=1e-9)
        assert cell.centroid.y == pytest.approx(35.0, abs=1e-9)
        assert cell.histograms["A"].counts[10] == 4
        assert cell.histograms["A"].total == 4

    def test_two_points_two_cells(self):
        scans = [
            scan_at_planar(0, 10.0, 10.0, {"A": 5}),
            scan_at_planar(1, 100.0, 10.0, {"A": 6}),
        ]
        rm = build_radio_map(scans, 70.0, origin=ORIGIN)
        assert rm.n_cells == 2
        assert all(len(c.points) == 1 for c in rm.cells.values())

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_radio_map([], 70.0)

    def test_missing_truth_names_timestamp(self):
        from gsmloc.geo import ScanVector

        scans = [scan_at_planar(0, 1.0, 1.0, {"A": 5}), ScanVector(17.5, {"A": 5})]
        with pytest.raises(ValueError, match="17.5"):
            build_radio_map(scans, 70.0)

    def test_bad_grid_length(self):
        with pytest.raises(ValueError):
            build_radio_map([scan_at_planar(0, 1.0, 1.0, {"A": 5})], 0.0)

    def test_total_points_equals_scan_count(self):
        rng = np.random.default_rng(3)
        rm, _ = random_instance(rng)
        n_scans = sum(len(c.points) for c in rm.cells.values())
        rebuilt_total = sum(
            sum(h.total for h in c.histograms.values()) for c in rm.cells.values()
        )
        readings_total = sum(
            len(p.readings) for c in rm.cells.values() for p in c.points
        )
        assert rebuilt_total == readings_total
        assert n_scans >= rm.n_cells  # every cell holds at least one point

    def test_grid_assignment_consistent(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            rm, _ = random_instance(rng)
            g = rm.grid_length
            for (row, col), cell in rm.cells.items():
                for p in cell.points:
                    assert rm.anchor_x + col * g <= p.location.x < rm.anchor_x + (col + 1) * g
                    assert rm.anchor_y + row * g <= p.location.y < rm.anchor_y + (row + 1) * g

    def test_histograms_match_member_readings(self):
        rng = np.random.default_rng(5)
        rm, _ = random_instance(rng)
        for cell in rm.cells.values():
            per_tower = {}
            for p in cell.points:
                for tid, asu in p.readings.items():
                    per_tower.setdefault(tid, []).append(asu)
            assert set(per_tower) == set(cell.histograms)
            for tid, values in per_tower.items():
                assert cell.histograms[tid].total == len(values)
                for asu in values:
                    assert cell.histograms[tid].counts[asu] >= 1

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
        assert not rm.has_points
        assert all(c.points == () for c in rm.cells.values())

    def test_default_origin_is_truth_centroid(self):
        scans = [
            scan_at_planar(0, 0.0, 0.0, {"A": 5}),
            scan_at_planar(1, 100.0, 0.0, {"A": 5}),
        ]
        rm = build_radio_map(scans, 70.0)
        lats = [s.truth.lat for s in scans]
        lons = [s.truth.lon for s in scans]
        assert rm.origin.lat == pytest.approx(sum(lats) / 2)
        assert rm.origin.lon == pytest.approx(sum(lons) / 2)


def _base_map():
    """Two cells, (0, 0) hearing towers A and B and (0, 1) hearing A, with points kept."""
    scans = [scan_at_planar(0, 1.0, 1.0, {"A": 10, "B": 4}),
             scan_at_planar(1, 101.0, 1.0, {"A": 7})]
    towers = {"A": GeoPoint(30.001, 31.0)}
    return build_radio_map(scans, 70.0, origin=ORIGIN, tower_locations=towers)


def _map_with(grid_length=70.0, tower_ids=(), **first_cell):
    """The RadioMap constructor on :func:`_base_map`'s fields, with cell (0, 0)
    taking ``first_cell``'s fields and ``tower_ids`` added to its towers."""
    rm = _base_map()
    cells = {**rm.cells, (0, 0): dataclasses.replace(rm.cells[(0, 0)], **first_cell)}
    return RadioMap(rm.origin, grid_length, rm.anchor_x, rm.anchor_y, cells,
                    rm.tower_ids | set(tower_ids), rm.tower_locations)


def _counts(**bins):
    """A 32-bin histogram with the given ASU bins (``a5=3``: three readings at ASU 5)."""
    counts = [0] * 32
    for name, count in bins.items():
        counts[int(name[1:])] = count
    return TowerHistogram(tuple(counts))


def _point(readings):
    return (FingerprintPoint(PlanarPoint(1.0, 1.0), readings),)


class TestRules:
    """Each rule RadioMap checks, broken once on an otherwise valid map."""

    def test_unbroken_map_constructs(self):
        rm = _map_with()
        assert rm == _base_map()
        assert sorted(rm.cells) == [(0, 0), (0, 1)]

    @pytest.mark.parametrize("fields,message", [
        pytest.param(dict(histograms={"A": TowerHistogram((1,) * 31)}), "32 bins", id="31_bins"),
        pytest.param(dict(histograms={"A": _counts(), "B": _counts(a4=1)}), "at least one reading",
                     id="all_counts_zero"),
        pytest.param(dict(histograms={"A": _counts(a3=-1, a5=2)}), "non-negative",
                     id="negative_count"),
        pytest.param(dict(histograms={"A": _counts(a5=1), "Z": _counts(a5=1)}),
                     r"not in 'towers'.*'Z'", id="unknown_histogram_tower"),
        pytest.param(dict(points=_point({"A": 5, "Z": 5})), r"not in 'towers'.*'Z'",
                     id="unknown_point_tower"),
        pytest.param(dict(points=_point({"A": -1})), "outside ASU", id="asu_minus_1"),
        pytest.param(dict(points=_point({"A": 32})), "outside ASU", id="asu_32"),
        pytest.param(dict(points=_point({})), r"1\.\.7 readings", id="no_readings"),
        pytest.param(dict(points=_point({f"T{i}": 5 for i in range(8)}),
                          tower_ids={f"T{i}" for i in range(8)}), r"1\.\.7 readings",
                     id="eight_readings"),
        pytest.param(dict(centroid=PlanarPoint(math.nan, 1.0)), "finite", id="nan_centroid"),
        pytest.param(dict(grid_length=math.inf), "finite", id="inf_grid_length"),
        pytest.param(dict(histograms={}), r"cell \(0, 0\) holds no histogram", id="empty_cell"),
    ])
    def test_broken_rule_raises(self, fields, message):
        with pytest.raises(ValueError, match=message):
            _map_with(**fields)


class TestHistogram:
    def test_requires_32_bins(self):
        with pytest.raises(ValueError, match="32 bins"):
            _map_with(histograms={"A": TowerHistogram((1,) * 31), "B": TowerHistogram((1,) * 31)})

    def test_requires_a_count(self):
        with pytest.raises(ValueError, match="at least one reading"):
            _map_with(histograms={"A": TowerHistogram((0,) * 32)})

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
        return next(iter(rm.cells.values()))

    def test_laplace_smoothing_value(self):
        cell = self._cell_with({10: 4})
        sm = SmoothingParams(alpha=0.5)
        assert likelihood_from_counts(cell, "A", 10, sm) == pytest.approx(4.5 / 20.0, abs=1e-15)

    def test_uniform_histogram_alpha_zero(self):
        cell = self._cell_with({asu: 1 for asu in range(32)})
        sm = SmoothingParams(alpha=0.0)
        for asu in (0, 7, 31):
            assert likelihood_from_counts(cell, "A", asu, sm) == pytest.approx(1 / 32, abs=1e-15)

    def test_unheard_tower_floor(self):
        cell = self._cell_with({10: 4})
        sm = SmoothingParams()
        assert likelihood_from_counts(cell, "ZZZ", 10, sm) == 1e-4

    def test_sums_to_one_alpha_zero(self):
        cell = self._cell_with({3: 2, 9: 5, 30: 1})
        sm = SmoothingParams(alpha=0.0)
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
        keys = rm.cell_keys()
        for ci, key in enumerate(keys):
            cell = rm.cells[key]
            for tid, t in tower_index.items():
                for asu in range(32):
                    expected = math.log(likelihood_from_counts(cell, tid, asu, sm))
                    assert table[t, asu, ci] == pytest.approx(expected, rel=1e-12)

    def test_one_table_per_smoothing(self):
        rm, _ = random_instance(np.random.default_rng(3))
        first = rm.log_likelihood_table(SmoothingParams())
        for sm in (SmoothingParams(alpha=2.0, p_min=1e-3), SmoothingParams(alpha=0.1)):
            table = rm.log_likelihood_table(sm)
            for ci, key in enumerate(rm.cell_keys()):
                for tid, t in rm.tower_index().items():
                    expected = [math.log(likelihood_from_counts(rm.cells[key], tid, a, sm)) for a in range(32)]
                    assert table[t, :, ci].tolist() == pytest.approx(expected, rel=1e-12)
            assert table.shape == (len(rm.tower_index()) + 1, 32, rm.n_cells)
            assert (table[-1] == math.log(sm.p_min)).all()
        assert rm.log_likelihood_table(SmoothingParams()) is first


def _first_counts(doc):
    return next(iter(doc["cells"][0]["histograms"].values()))


def _set_first_asu(doc, value):
    readings = doc["cells"][0]["points"][0]["readings"]
    readings[next(iter(readings))] = value


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

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_bytes(b'{"version": 1, "kind": "radio_map", "cells": ["\xff\xfe"]}')
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
        missing = doc["towers"].pop(0)
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match=f"not in 'towers'.*{missing}"):
            load_radio_map(str(path))

    @pytest.mark.parametrize("asu", [-1, 32])
    def test_point_reading_outside_asu_range_rejected(self, tmp_path, asu):
        path, doc = self._saved_doc(tmp_path)
        readings = doc["cells"][0]["points"][0]["readings"]
        readings[next(iter(readings))] = asu
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match="outside ASU"):
            load_radio_map(str(path))

    def test_cell_without_histograms_rejected(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        rm = load_radio_map(str(path))
        assert (5, 5) not in rm.cells
        doc["cells"].append({"row": 5, "col": 5, "centroid": {"x": 360.0, "y": 360.0},
                             "histograms": {}})
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match=r"cell \(5, 5\) holds no histogram"):
            load_radio_map(str(path))
        empty = GridCell(PlanarPoint(360.0, 360.0), (), {})
        with pytest.raises(ValueError, match=r"cell \(5, 5\) holds no histogram"):
            dataclasses.replace(rm, cells={**rm.cells, (5, 5): empty})

    def test_duplicate_cell_rejected(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        row, col = doc["cells"][0]["row"], doc["cells"][0]["col"]
        doc["cells"].append(dict(doc["cells"][-1], row=row, col=col))
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match=rf"cell \({row}, {col}\) appears more than once"):
            load_radio_map(str(path))

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda d: d.update(grid_length_m=0.0), id="grid_length_zero"),
        pytest.param(lambda d: d.update(grid_length_m=-70.0), id="grid_length_negative"),
        pytest.param(lambda d: d.update(grid_length_m=math.nan), id="grid_length_nan"),
        pytest.param(lambda d: d.update(grid_length_m=math.inf), id="grid_length_inf"),
        pytest.param(lambda d: d["grid_anchor"].update(y=math.nan), id="anchor_nan"),
        pytest.param(lambda d: d["cells"][0]["centroid"].update(x=math.nan), id="centroid_nan"),
        pytest.param(lambda d: d["cells"][-1]["points"][0].update(x=math.inf), id="point_inf"),
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
        pytest.param(lambda d: d["cells"][0]["centroid"].update(x="5.0"), id="centroid_string"),
        pytest.param(lambda d: d["cells"][0]["points"][0].update(x="5.0"), id="point_string"),
        pytest.param(lambda d: d["cells"][0].update(row=d["cells"][0]["row"] + 0.7), id="row_float"),
        pytest.param(lambda d: d["cells"][0].update(row=str(d["cells"][0]["row"])), id="row_string"),
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
        pytest.param(lambda d: d["cells"][0].update(histograms=[]), id="histograms_array"),
        pytest.param(lambda d: d["cells"][0]["points"][0].update(readings=[]),
                     id="readings_array"),
        pytest.param(lambda d: d.update(tower_locations=[]), id="tower_locations_array"),
        pytest.param(lambda d: d.update(cells={}), id="cells_object"),
    ])
    def test_wrongly_typed_field_rejected(self, tmp_path, edit):
        path, doc = self._saved_doc(tmp_path)
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError):
            load_radio_map(str(path))

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"version": 1, "kind": "gp_grid"}))
        with pytest.raises(MapFormatError, match="kind"):
            load_radio_map(str(path))

    def test_stripped_map_round_trip(self, tmp_path):
        scans = [scan_at_planar(0, 1.0, 1.0, {"A": 5})]
        rm = build_radio_map(scans, 70.0, origin=ORIGIN, strip_points=True)
        path = tmp_path / "map.json"
        save_radio_map(rm, str(path))
        back = load_radio_map(str(path))
        assert back == rm
        assert not back.has_points
