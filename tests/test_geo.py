import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsmloc.geo import (
    EARTH_RADIUS_M,
    GeoPoint,
    PlanarPoint,
    ProjectionRangeWarning,
    ScanVector,
    TraceFormatError,
    asu_to_dbm,
    dbm_to_asu,
    float_sum,
    project,
    project_array,
    read_tower_locations,
    read_trace,
    unproject,
    write_tower_locations,
    write_trace,
)


class TestAsuConversion:
    @pytest.mark.parametrize("asu,dbm", [(0, -113.0), (10, -93.0), (31, -51.0)])
    def test_known_values(self, asu, dbm):
        assert asu_to_dbm(asu) == dbm

    def test_full_table(self):
        for asu in range(32):
            assert asu_to_dbm(asu) == 2 * asu - 113

    @pytest.mark.parametrize("bad", [-1, 32, 100])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            asu_to_dbm(bad)

    @pytest.mark.parametrize("dbm,asu", [(-113.0, 0), (-51.0, 31), (-200.0, 0), (50.0, 31)])
    def test_quantizer(self, dbm, asu):
        assert dbm_to_asu(dbm) == asu

    def test_round_half_away_from_zero(self):
        # -112 dBm sits exactly halfway between ASU 0 and 1
        assert dbm_to_asu(-112.0) == 1
        assert dbm_to_asu(-112.1) == 0

    @given(st.integers(min_value=0, max_value=31))
    def test_exact_inverse_on_integer_range(self, asu):
        assert dbm_to_asu(asu_to_dbm(asu)) == asu


class TestFloatSum:
    """``float_sum`` adds as ``sum()`` did up to Python 3.11, with no compensation."""

    def test_adds_left_to_right(self):
        assert float_sum([1e16, 1.0, 1.0]) == 1e16  # a compensated sum gives 1e16 + 2
        assert float_sum(iter([0.1] * 10)) == 0.9999999999999999

    def test_starts_from_zero(self):
        assert math.copysign(1.0, float_sum([-0.0])) == 1.0
        assert float_sum([]) == 0.0 and type(float_sum([])) is float


class TestProjection:
    def test_identity_at_origin(self, origin):
        assert project(origin, origin) == PlanarPoint(0.0, 0.0)

    def test_one_millidegree_north(self, origin):
        p = project(origin, GeoPoint(origin.lat + 0.001, origin.lon))
        expected = EARTH_RADIUS_M * math.radians(0.001)  # 111.1949266 m
        assert p.x == pytest.approx(0.0, abs=1e-9)
        assert p.y == pytest.approx(expected, abs=1e-6)
        assert expected == pytest.approx(111.19, abs=0.01)

    @settings(max_examples=300)
    @given(
        st.floats(min_value=-7000, max_value=7000),
        st.floats(min_value=-7000, max_value=7000),
    )
    def test_round_trip_within_10km(self, x, y):
        origin = GeoPoint(30.0, 31.0)
        geo = unproject(origin, PlanarPoint(x, y))
        back = project(origin, geo)
        assert math.hypot(back.x - x, back.y - y) < 0.1

    def test_range_warning(self, origin):
        with pytest.warns(ProjectionRangeWarning):
            project(origin, GeoPoint(origin.lat + 0.2, origin.lon))

    @settings(max_examples=300)
    @given(
        st.floats(min_value=-80.0, max_value=80.0),
        st.floats(min_value=-179.0, max_value=179.0),
        st.lists(st.tuples(st.floats(min_value=-0.2, max_value=0.2),
                           st.floats(min_value=-0.3, max_value=0.3)), max_size=12),
    )
    def test_array_form_equals_scalar_form(self, lat0, lon0, offsets):
        # Offsets up to 0.2 deg of latitude and 0.3 of longitude reach past 10 km.
        origin = GeoPoint(lat0, lon0)
        points = [GeoPoint(lat0 + dlat, lon0 + dlon) for dlat, dlon in offsets]
        _assert_array_form_equals_scalar_form(origin, points)

    def test_array_form_at_the_range_edge(self, origin):
        # Points a few ulps either side of PROJECTION_RANGE_M, where np.hypot and
        # math.hypot could disagree in the last place.
        edge = []
        for angle in np.linspace(0.0, 2.0 * math.pi, 37):
            p = unproject(origin, PlanarPoint(1e4 * math.cos(angle), 1e4 * math.sin(angle)))
            lat, lon = p.lat, p.lon
            for _ in range(4):
                edge.append(GeoPoint(lat, lon))
                lat, lon = np.nextafter(lat, -math.inf), np.nextafter(lon, math.inf)
        beyond = [math.hypot(q.x, q.y) > 1e4 for q in (_project_quiet(origin, p) for p in edge)]
        assert 0 < sum(beyond) < len(edge)
        for p in edge:
            _assert_array_form_equals_scalar_form(origin, [p])
        _assert_array_form_equals_scalar_form(origin, edge)

    def test_array_form_of_no_points(self, origin):
        assert project_array(origin, []).shape == (0, 2)

    def test_geopoint_validation(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(0.0, 181.0)


def _project_quiet(origin, p):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ProjectionRangeWarning)
        return project(origin, p)


def _range_warnings(call) -> tuple[list, int]:
    """``call()``'s result and how many ProjectionRangeWarnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, sum(issubclass(w.category, ProjectionRangeWarning) for w in caught)


def _assert_array_form_equals_scalar_form(origin, points):
    """project_array equals project bit for bit and warns once exactly when project warns."""
    xy, n_array = _range_warnings(lambda: project_array(origin, points))
    scalar, n_scalar = _range_warnings(lambda: [project(origin, p) for p in points])
    assert xy.shape == (len(points), 2) and xy.dtype == np.float64
    expected = np.array([(q.x, q.y) for q in scalar], dtype=float).reshape(-1, 2)
    assert xy.tobytes() == expected.tobytes()
    assert n_array == (1 if n_scalar else 0)


def _trace(tmp_path, *rows):
    """Write the trace header and ``rows`` as a trace CSV; return its path."""
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(("timestamp,lat,lon,tower_id,asu", *rows)) + "\n")
    return str(path)


class TestScanTypes:
    def test_scan_row_rejects_empty_tower(self, tmp_path):
        with pytest.raises(TraceFormatError, match=":2: tower_id must be non-empty"):
            read_trace(_trace(tmp_path, "0.0,,,,10"))

    def test_scan_row_rejects_bad_asu(self, tmp_path):
        with pytest.raises(TraceFormatError, match=r":2: ASU reading 32 outside \[0, 31\]"):
            read_trace(_trace(tmp_path, "0.0,,,A,32"))

    def test_scan_vector_rejects_eight_readings(self):
        with pytest.raises(ValueError):
            ScanVector(0.0, {f"T{i}": 5 for i in range(8)})

    def test_scan_vector_rejects_empty(self):
        with pytest.raises(ValueError):
            ScanVector(0.0, {})

    def test_scan_vector_rejects_empty_tower_id(self):
        with pytest.raises(ValueError, match="tower_id must be non-empty"):
            ScanVector(0.0, {"A": 5, "": 7})

    @pytest.mark.parametrize("tower_id", [5, 0, 1.5, None, b"A"])
    def test_scan_vector_rejects_tower_id_not_a_str(self, tower_id):
        # A trace file reads every id back as a str: an int id 5 would come back
        # as "5", a tower no map built in memory knows.
        with pytest.raises(ValueError, match="^tower_id must be a str, got "):
            ScanVector(0.0, {"A": 5, tower_id: 7})

    @pytest.mark.parametrize("asu", [True, 5.0])
    def test_scan_vector_rejects_non_int_asu(self, asu):
        with pytest.raises(TypeError, match="ASU reading must be an int"):
            ScanVector(0.0, {"A": asu})


class TestGrouping:
    """``read_trace`` merges rows that share a timestamp into one scan."""

    def test_three_rows_one_scan(self, tmp_path):
        scans = read_trace(_trace(tmp_path, *(f"5.0,,,{t},10" for t in ("A", "B", "C"))))
        assert len(scans) == 1
        assert scans[0].readings == {"A": 10, "B": 10, "C": 10}

    def test_two_timestamps_two_scans(self, tmp_path):
        scans = read_trace(_trace(tmp_path, "5.0,,,A,10", "6.0,,,A,11"))
        assert [s.timestamp for s in scans] == [5.0, 6.0]

    def test_duplicate_tower_last_wins(self, tmp_path):
        rows = [f"5.0,,,T{i},10" for i in range(7)]
        rows.append("5.0,,,T3,25")  # 8 rows, one duplicated tower
        scans = read_trace(_trace(tmp_path, *rows))
        assert len(scans) == 1
        assert len(scans[0].readings) == 7
        assert scans[0].readings["T3"] == 25

    def test_unsorted_rows_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match=":3:.*sorted"):
            read_trace(_trace(tmp_path, "6.0,,,A,10", "5.0,,,A,10"))

    def test_never_more_than_seven_readings(self, tmp_path):
        for scan in read_trace(_trace(tmp_path, *(f"1.0,,,T{i},3" for i in range(7)))):
            assert 1 <= len(scan.readings) <= 7
            assert len(set(scan.readings)) == len(scan.readings)

    def test_empty_input(self, tmp_path):
        assert read_trace(_trace(tmp_path)) == []

    def test_eighth_tower_rejected_with_line(self, tmp_path):
        rows = ["0.0,,,A,5"] + [f"1.0,,,T{i},5" for i in range(8)]
        with pytest.raises(TraceFormatError, match=":10: more than 7 towers at t=1.0"):
            read_trace(_trace(tmp_path, *rows))

    @pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
    def test_non_finite_timestamp_rejected(self, tmp_path, stamp):
        with pytest.raises(TraceFormatError, match=":3:.*not finite"):
            read_trace(_trace(tmp_path, "0.0,,,A,5", f"{stamp},,,A,5"))

    def test_truth_of_last_row_kept(self, tmp_path):
        scans = read_trace(_trace(tmp_path, "2.0,30.0,31.0,A,5", "2.0,30.5,31.5,B,6"))
        assert scans[0].truth == GeoPoint(30.5, 31.5)


class TestTraceFiles:
    def test_round_trip_with_truth(self, tmp_path, origin):
        scans = [
            ScanVector(0.0, {"B": 3, "A": 17}, truth=GeoPoint(30.001, 31.002)),
            ScanVector(1.0, {"A": 18}, truth=GeoPoint(30.0011, 31.0021)),
        ]
        path = tmp_path / "trace.csv"
        write_trace(scans, str(path))
        assert read_trace(str(path)) == scans

    def test_round_trip_keeps_each_scans_reading_order(self, tmp_path):
        # The probabilistic posterior sums in reading order, so a sorted
        # file would move estimates in the last bits.
        scans = [ScanVector(0.0, {"T7": 3, "T1": 17, "T4": 9}), ScanVector(1.0, {"B": 1, "A": 2})]
        path = tmp_path / "trace.csv"
        write_trace(scans, str(path))
        assert [list(s.readings.items()) for s in read_trace(str(path))] == [
            list(s.readings.items()) for s in scans]

    def test_round_trip_without_truth(self, tmp_path):
        scans = [ScanVector(3.5, {"A": 9})]
        path = tmp_path / "trace.csv"
        write_trace(scans, str(path))
        back = read_trace(str(path))
        assert back == scans
        assert back[0].truth is None

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,lat,lon,cell,asu\n1,,,,5\n")
        with pytest.raises(TraceFormatError, match=":1: expected header"):
            read_trace(str(path))

    def test_bad_field_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,lat,lon,tower_id,asu\n1.0,,,A,notanumber\n")
        with pytest.raises(TraceFormatError, match=":2:"):
            read_trace(str(path))

    def test_tower_csv_round_trip(self, tmp_path):
        towers = {"T1": GeoPoint(30.01, 31.01), "T0": GeoPoint(30.0, 31.0)}
        path = tmp_path / "towers.csv"
        write_tower_locations(towers, str(path))
        assert read_tower_locations(str(path)) == towers

    @pytest.mark.parametrize(
        "rows,line",
        [
            (["1.0,,,A,5", "1.0,,,B"], 3),  # wrong field count
            (["1.0,30.0,,A,5"], 2),  # half a ground truth
            (["1.0,91.0,31.0,A,5"], 2),  # latitude out of range
            (["1.0,,,A,5.5"], 2),  # fractional ASU
            (["1.0,,,A,5", "", "x,,,A,5"], 4),  # blank lines still count
            (["1.0,,,A" + "x" * 131_072 + ",5"], 2),  # csv.Error: field larger than limit
        ],
    )
    def test_malformed_row_names_its_line(self, tmp_path, rows, line):
        with pytest.raises(TraceFormatError, match=f"trace.csv:{line}:"):
            read_trace(_trace(tmp_path, *rows))

    def test_non_utf8_trace_names_its_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"timestamp,lat,lon,tower_id,asu\n1.0,,,A,5\n2.0,,,\xff,5\n")
        with pytest.raises(TraceFormatError, match=":3: not valid UTF-8"):
            read_trace(str(path))

    def test_tower_csv_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "towers.csv"
        path.write_text("tower_id,lat,lon\nT0,30.0,31.0\nT0,30.5,31.5\n")
        with pytest.raises(TraceFormatError, match=":3: tower 'T0' listed twice"):
            read_tower_locations(str(path))

    @pytest.mark.parametrize("row,message", [
        pytest.param(",30.0,31.0", "tower_id must be non-empty", id="empty_id"),
        pytest.param("T1,north,31.0", "could not convert string to float", id="unparsable_lat"),
        pytest.param("T1,95.0,31.0", r"latitude 95.0 outside", id="lat_out_of_range"),
    ])
    def test_tower_csv_bad_field_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "towers.csv"
        path.write_text(f"tower_id,lat,lon\nT0,30.0,31.0\n{row}\n")
        with pytest.raises(TraceFormatError, match=f":3: {message}"):
            read_tower_locations(str(path))

    def test_tower_csv_bad_row_names_its_line(self, tmp_path):
        path = tmp_path / "towers.csv"
        path.write_text("tower_id,lat,lon\nT0,30.0,31.0\nT1,30.5\n")
        with pytest.raises(TraceFormatError, match=":3: expected 3 fields"):
            read_tower_locations(str(path))
