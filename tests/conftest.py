import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))  # estimate_digests, bench_record

from gsmloc.geo import GeoPoint, PlanarPoint, ScanVector, unproject
from gsmloc.radiomap import build_radio_map

ORIGIN = GeoPoint(30.0, 31.0)


def scan_at_planar(t, x, y, readings, origin=ORIGIN):
    """A ScanVector whose ground truth sits at planar (x, y)."""
    return ScanVector(float(t), dict(readings), truth=unproject(origin, PlanarPoint(x, y)))


@pytest.fixture
def origin():
    return ORIGIN


@pytest.fixture
def small_map():
    """Three 50 m cells in a row with distinctive single-tower histograms."""
    scans = [
        scan_at_planar(0, 10.0, 10.0, {"A": 10, "B": 4}),
        scan_at_planar(1, 30.0, 20.0, {"A": 12, "B": 5}),
        scan_at_planar(2, 60.0, 10.0, {"A": 20, "B": 10}),
        scan_at_planar(3, 80.0, 30.0, {"A": 22, "B": 12}),
        scan_at_planar(4, 110.0, 20.0, {"A": 28, "B": 20}),
        scan_at_planar(5, 140.0, 30.0, {"A": 30, "B": 22}),
    ]
    return build_radio_map(scans, 50.0, origin=ORIGIN)
