import copy

import numpy as np
import pytest

from conftest import ORIGIN, scan_at_planar
from gsmloc.bench import (
    EvalReport,
    ablate_towers,
    evaluate,
    preset_params,
    sweep_density,
    sweep_grid_length,
    sweep_params,
    sweep_tower_drop,
    thin_fingerprint,
    window_at,
    write_cdf_csv,
    write_report_csv,
)
from gsmloc.estimators import EstimatorParams, LocationEstimate, probabilistic_locate
from gsmloc.geo import PlanarPoint, project, read_trace, unproject
from gsmloc.radiomap import SmoothingParams, build_radio_map, load_radio_map, save_radio_map


@pytest.fixture
def training_scans():
    rng = np.random.default_rng(101)
    scans = []
    for t in range(120):
        x, y = rng.uniform(0, 300), rng.uniform(0, 300)
        readings = {
            f"T{i}": int(np.clip(28 - 0.05 * np.hypot(x - 80 * i, y - 60 * i), 0, 31))
            for i in range(4)
        }
        scans.append(scan_at_planar(t, x, y, readings))
    return scans


@pytest.fixture
def test_scans():
    rng = np.random.default_rng(202)
    scans = []
    for t in range(40):
        x, y = rng.uniform(0, 300), rng.uniform(0, 300)
        readings = {
            f"T{i}": int(np.clip(28 - 0.05 * np.hypot(x - 80 * i, y - 60 * i), 0, 31))
            for i in range(4)
        }
        scans.append(scan_at_planar(1000 + t, x, y, readings))
    return scans


def perfect_estimator(model, window):
    return LocationEstimate(project(model.origin, window[-1].truth))


class TestEvaluate:
    def test_perfect_estimator_zero_error(self, training_scans, test_scans):
        rm = build_radio_map(training_scans, 70.0, origin=ORIGIN)
        report = evaluate(rm, test_scans, perfect_estimator, time_repeats=1)
        assert report.median_error_m == pytest.approx(0.0, abs=1e-9)
        assert report.p95_error_m == pytest.approx(0.0, abs=1e-9)

    def test_uniform_errors_order_statistics(self, training_scans):
        rm = build_radio_map(training_scans, 70.0, origin=ORIGIN)
        scans = [scan_at_planar(1000 + i, 150.0, 150.0, {"T0": 10}) for i in range(100)]
        offsets = {s.timestamp: float(i + 1) for i, s in enumerate(scans)}

        def offset_estimator(model, window):
            truth = project(model.origin, window[-1].truth)
            return LocationEstimate(PlanarPoint(truth.x + offsets[window[-1].timestamp], truth.y))

        report = evaluate(rm, scans, offset_estimator, time_repeats=1)
        # errors are exactly 1..100 m
        assert 50.0 <= report.median_error_m <= 51.0
        assert 95.0 <= report.p95_error_m <= 96.0

    def test_cdf_consistent_and_complete(self, training_scans, test_scans):
        rm = build_radio_map(training_scans, 70.0, origin=ORIGIN)
        report = evaluate(rm, test_scans, "probabilistic", EstimatorParams(), time_repeats=1)
        fracs = [f for _, f in report.error_cdf]
        errs = [e for e, _ in report.error_cdf]
        assert fracs[-1] == 1.0
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))
        assert all(b >= a for a, b in zip(errs, errs[1:]))
        assert len(report.error_cdf) == len(test_scans)
        # median recomputable from the CDF within one sample step
        median_from_cdf = float(np.percentile(errs, 50))
        assert report.median_error_m == pytest.approx(median_from_cdf)

    def test_does_not_mutate_map(self, training_scans, test_scans):
        rm = build_radio_map(training_scans, 70.0, origin=ORIGIN)
        snapshot = copy.deepcopy(rm)
        evaluate(rm, test_scans, "probabilistic", EstimatorParams(), time_repeats=1)
        evaluate(rm, test_scans, "hybrid", EstimatorParams(k=1), time_repeats=1)
        evaluate(rm, test_scans, "deterministic", EstimatorParams(k=3), time_repeats=1)
        assert rm == snapshot

    def test_error_statistics_reproducible(self, training_scans, test_scans):
        rm = build_radio_map(training_scans, 70.0, origin=ORIGIN)
        r1 = evaluate(rm, test_scans, "probabilistic", EstimatorParams(), time_repeats=1)
        r2 = evaluate(rm, test_scans, "probabilistic", EstimatorParams(), time_repeats=1)
        assert r1.median_error_m == r2.median_error_m
        assert r1.error_cdf == r2.error_cdf

    def test_requires_truth(self, training_scans):
        from gsmloc.geo import ScanVector

        rm = build_radio_map(training_scans, 70.0, origin=ORIGIN)
        with pytest.raises(ValueError, match="ground truth"):
            evaluate(rm, [ScanVector(0.0, {"T0": 5})], "probabilistic")

    def test_empty_test_set(self, training_scans):
        rm = build_radio_map(training_scans, 70.0, origin=ORIGIN)
        with pytest.raises(ValueError, match="empty"):
            evaluate(rm, [], "probabilistic")

    def test_unknown_technique(self, training_scans, test_scans):
        rm = build_radio_map(training_scans, 70.0, origin=ORIGIN)
        with pytest.raises(ValueError, match="unknown technique"):
            evaluate(rm, test_scans, "quantum")


class TestSweeps:
    def test_single_value_equals_plain_evaluate(self, training_scans, test_scans):
        reports = sweep_grid_length(
            training_scans, test_scans, [70.0], origin=ORIGIN, time_repeats=1
        )
        rm = build_radio_map(training_scans, 70.0, origin=ORIGIN)
        single = evaluate(rm, test_scans, "probabilistic", time_repeats=1)
        assert len(reports) == 1
        assert reports[0].median_error_m == single.median_error_m
        assert reports[0].error_cdf == single.error_cdf

    def test_grid_sweep_rows(self, training_scans, test_scans):
        reports = sweep_grid_length(
            training_scans, test_scans, [50.0, 150.0], origin=ORIGIN, time_repeats=1
        )
        assert [r.grid_m for r in reports] == [50.0, 150.0]

    def test_ns_and_k_sweeps(self, training_scans, test_scans):
        rm = build_radio_map(training_scans, 70.0, origin=ORIGIN)
        ns_configs = [EstimatorParams(n_samples=ns) for ns in (1, 3)]
        ns_reports = sweep_params(rm, test_scans, ns_configs, time_repeats=1)
        assert [r.n_samples for r in ns_reports] == [1, 3]
        k_configs = [EstimatorParams(k=k) for k in (1, 2, 4)]
        k_reports = sweep_params(rm, test_scans, k_configs, time_repeats=1)
        assert [r.k for r in k_reports] == [1, 2, 4]

    def test_empty_values_rejected(self, training_scans, test_scans):
        rm = build_radio_map(training_scans, 70.0, origin=ORIGIN)
        with pytest.raises(ValueError):
            sweep_params(rm, test_scans, [])
        with pytest.raises(ValueError):
            sweep_grid_length(training_scans, test_scans, [])

    def test_tower_drop_and_density_single_value_equal_plain_evaluate(
        self, training_scans, test_scans
    ):
        rm = build_radio_map(training_scans, 70.0, origin=ORIGIN)
        single = evaluate(rm, test_scans, "probabilistic", time_repeats=1)
        dropped = sweep_tower_drop(rm, test_scans, [0.0], time_repeats=1)
        kept = sweep_density(
            training_scans, test_scans, [1.0], grid_length=70.0, origin=ORIGIN, time_repeats=1
        )
        for reports in (dropped, kept):
            assert len(reports) == 1
            assert reports[0].error_cdf == single.error_cdf

    def test_tower_drop_and_density_seed_per_value(self, training_scans, test_scans):
        rm = build_radio_map(training_scans, 70.0, origin=ORIGIN)
        seeds = [int(np.random.SeedSequence([9, i]).generate_state(1)[0]) for i in range(2)]
        dropped = sweep_tower_drop(rm, test_scans, [0.5, 0.25], base_seed=9, time_repeats=1)
        kept = sweep_density(training_scans, test_scans, [0.5, 0.6], grid_length=70.0,
                             origin=ORIGIN, base_seed=9, time_repeats=1)
        for i, (drop, keep) in enumerate(zip((0.5, 0.25), (0.5, 0.6))):
            ablated = ablate_towers(rm, drop, seeds[i])
            thinned = build_radio_map(
                thin_fingerprint(training_scans, keep, seeds[i]), 70.0, origin=ORIGIN
            )
            for report, radio_map in ((dropped[i], ablated), (kept[i], thinned)):
                direct = evaluate(radio_map, test_scans, "probabilistic", time_repeats=1)
                assert report.error_cdf == direct.error_cdf

    def test_tower_drop_and_density_empty_values_rejected(self, training_scans, test_scans):
        rm = build_radio_map(training_scans, 70.0, origin=ORIGIN)
        with pytest.raises(ValueError):
            sweep_tower_drop(rm, test_scans, [])
        with pytest.raises(ValueError):
            sweep_density(training_scans, test_scans, [], grid_length=70.0)


class TestAblateTowers:
    def test_zero_fraction_identity(self, training_scans):
        rm = build_radio_map(training_scans, 70.0, origin=ORIGIN)
        assert ablate_towers(rm, 0.0, seed=1) == rm

    def test_half_of_ten_towers(self):
        scans = [
            scan_at_planar(t, 10.0 * t, 5.0, {f"T{i}": 10 for i in range(7)})
            for t in range(10)
        ] + [
            scan_at_planar(10 + t, 10.0 * t, 200.0, {f"T{i}": 10 for i in range(3, 10)})
            for t in range(10)
        ]
        rm = build_radio_map(scans, 70.0, origin=ORIGIN)
        assert len(rm.tower_ids) == 10
        out = ablate_towers(rm, 0.5, seed=2)
        assert len(out.tower_ids) == 5

    def test_histograms_and_points_filtered(self, training_scans):
        rm = build_radio_map(training_scans, 70.0, origin=ORIGIN)
        out = ablate_towers(rm, 0.5, seed=3)
        for cell in out.cells.values():
            assert set(cell.histograms) <= out.tower_ids
            for p in cell.points:
                assert set(p.readings) <= out.tower_ids
                assert p.readings

    def test_centroids_recomputed(self, training_scans):
        rm = build_radio_map(training_scans, 70.0, origin=ORIGIN)
        out = ablate_towers(rm, 0.5, seed=4)
        for key, cell in out.cells.items():
            xs = [p.location.x for p in cell.points]
            ys = [p.location.y for p in cell.points]
            assert cell.centroid.x == pytest.approx(sum(xs) / len(xs))
            assert cell.centroid.y == pytest.approx(sum(ys) / len(ys))

    def test_cannot_drop_everything(self, training_scans):
        rm = build_radio_map(training_scans, 70.0, origin=ORIGIN)
        with pytest.raises(ValueError):
            ablate_towers(rm, 0.9, seed=5)  # rounds to all 4 towers
        with pytest.raises(ValueError):
            ablate_towers(rm, 1.0, seed=5)

    def test_seeded_and_deterministic(self, training_scans):
        rm = build_radio_map(training_scans, 70.0, origin=ORIGIN)
        assert ablate_towers(rm, 0.5, seed=6) == ablate_towers(rm, 0.5, seed=6)

    def test_builds_its_own_log_table(self, training_scans):
        rm = build_radio_map(training_scans, 70.0, origin=ORIGIN)
        smoothing = SmoothingParams()
        full = rm.log_likelihood_table(smoothing)
        out = ablate_towers(rm, 0.5, seed=7)
        table = out.log_likelihood_table(smoothing)
        assert table.shape == (len(out.tower_ids) + 1, full.shape[1], out.n_cells)
        assert rm.log_likelihood_table(smoothing) is full

    def test_stripped_map_keeps_stored_centroids(self, training_scans):
        rm = build_radio_map(training_scans, 70.0, origin=ORIGIN, strip_points=True)
        stored = dict(zip(rm.cell_keys(), rm.centroid_array().tolist()))
        for seed in range(4):
            out = ablate_towers(rm, 0.5, seed=seed)
            assert out.n_cells > 0
            for key, centroid in zip(out.cell_keys(), out.centroid_array().tolist()):
                assert centroid == stored[key]

    def test_emptied_point_dropped_and_centroid_recomputed(self):
        # One cell: a point hearing only A and one hearing only B.  Dropping
        # either tower empties one point; the cell keeps the other tower.
        scans = [scan_at_planar(0, 1.0, 1.0, {"A": 5}), scan_at_planar(1, 41.0, 21.0, {"B": 7})]
        rm = build_radio_map(scans, 70.0, origin=ORIGIN)
        ((key, cell),) = rm.cells.items()
        seen = set()
        for seed in range(8):
            out = ablate_towers(rm, 0.5, seed=seed)
            ((kept,),) = [out.tower_ids]
            seen.add(kept)
            (survivor,) = [p for p in cell.points if kept in p.readings]
            assert out.cell_keys() == (key,)
            assert out.cells[key].points == (survivor,)
            assert out.cells[key].centroid == survivor.location
            assert out.cells[key].centroid != cell.centroid
        assert seen == {"A", "B"}


def test_cells_view_stays_unbuilt(tmp_path, training_scans, test_scans):
    """No package path builds the GridCell view: it costs memory, and only
    the benchmark reference reads it."""
    towers = {f"T{i}": unproject(ORIGIN, PlanarPoint(80.0 * i, 60.0 * i)) for i in range(4)}
    rm = build_radio_map(training_scans, 70.0, origin=ORIGIN, tower_locations=towers)
    path = str(tmp_path / "map.json")
    save_radio_map(rm, path)
    loaded = load_radio_map(path)
    ablated = ablate_towers(rm, 0.5, seed=1)
    assert loaded == rm and ablated != rm
    maps = {id(m): m for m in (rm, loaded, ablated)}
    for technique in ("probabilistic", "hybrid", "deterministic", "cellid"):
        # Cell-ID cannot place a scan whose strongest tower was ablated.
        for m in (rm, loaded) if technique == "cellid" else (rm, loaded, ablated):
            evaluate(m, test_scans, technique, EstimatorParams(k=2), time_repeats=1)

    def recording(model, window):
        maps[id(model)] = model
        return probabilistic_locate(model, window)

    kw = dict(technique=recording, time_repeats=1)
    sweep_grid_length(training_scans, test_scans, [50.0, 70.0], origin=ORIGIN, **kw)
    sweep_density(training_scans, test_scans, [0.5], grid_length=70.0, origin=ORIGIN, **kw)
    sweep_tower_drop(rm, test_scans, [0.0, 0.5], **kw)
    sweep_params(rm, test_scans, [EstimatorParams(k=1)], **kw)
    assert len(maps) == 7  # plus two grid lengths, one density and one drop of 0.5
    assert all("cells" not in m.__dict__ for m in maps.values())


class TestThinFingerprint:
    def test_keep_all(self, training_scans):
        assert thin_fingerprint(training_scans, 1.0, seed=1) == list(training_scans)

    def test_keep_fraction_count(self, training_scans):
        out = thin_fingerprint(training_scans, 0.4, seed=1)
        assert len(out) == round(0.4 * len(training_scans))

    def test_order_preserved(self, training_scans):
        out = thin_fingerprint(training_scans, 0.5, seed=2)
        stamps = [s.timestamp for s in out]
        assert stamps == sorted(stamps)

    def test_bad_fraction(self, training_scans):
        with pytest.raises(ValueError):
            thin_fingerprint(training_scans, 0.0, seed=1)
        with pytest.raises(ValueError):
            thin_fingerprint(training_scans, 1.5, seed=1)


class TestCsvOutput:
    def test_report_csv(self, tmp_path, training_scans, test_scans):
        rm = build_radio_map(training_scans, 70.0, origin=ORIGIN)
        reports = [evaluate(rm, test_scans, "probabilistic", time_repeats=1)]
        path = tmp_path / "report.csv"
        write_report_csv(reports, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "technique,grid_m,ns,k,median_err_m,p95_err_m,mean_ms"
        fields = lines[1].split(",")
        assert fields[0] == "probabilistic"
        assert float(fields[4]) == reports[0].median_error_m

    def test_cdf_csv(self, tmp_path, training_scans, test_scans):
        rm = build_radio_map(training_scans, 70.0, origin=ORIGIN)
        report = evaluate(rm, test_scans, "probabilistic", time_repeats=1)
        path = tmp_path / "cdf.csv"
        write_cdf_csv(report, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "error_m,cum_frac"
        assert len(lines) == 1 + len(report.error_cdf)
        assert float(lines[-1].split(",")[1]) == 1.0

    def test_report_invariants_enforced(self):
        with pytest.raises(ValueError):
            EvalReport("x", 70.0, 1, 1, 1.0, 2.0, 0.1, error_cdf=((1.0, 0.5),))
        with pytest.raises(ValueError, match="abscissae must be sorted"):
            EvalReport("x", 70.0, 1, 1, 1.0, 2.0, 0.1, error_cdf=((2.0, 0.5), (1.0, 1.0)))


def test_window_at_ends_at_the_scan_and_holds_up_to_n_samples():
    scans = list(range(5))
    assert [window_at(scans, i, 3) for i in range(5)] == [
        [0], [0, 1], [0, 1, 2], [1, 2, 3], [2, 3, 4]]
    assert window_at(scans, 4, 1) == [4]


def test_preset_params_lookup():
    p = preset_params("rural", "probabilistic")
    assert p.k == 2
    with pytest.raises(ValueError):
        preset_params("rural", "quantum")
