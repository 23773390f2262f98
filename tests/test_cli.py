import csv
import json

import numpy as np
import pytest

from conftest import scan_at_planar
from gsmloc.bench import PRESET_GP_SPACING_M
from gsmloc import cli
from gsmloc.cli import main
from gsmloc.geo import write_trace, write_tower_locations, GeoPoint


@pytest.fixture
def tiny_trace(tmp_path):
    """A small dense trace with 4 towers, cheap enough for GP fitting."""
    rng = np.random.default_rng(404)
    scans = []
    for t in range(60):
        x, y = rng.uniform(0, 200), rng.uniform(0, 200)
        readings = {
            f"T{i}": int(np.clip(28 - 0.08 * np.hypot(x - 70 * i, y - 50 * i), 0, 31))
            for i in range(4)
        }
        scans.append(scan_at_planar(t, x, y, readings))
    path = tmp_path / "train.csv"
    write_trace(scans, str(path))
    towers = tmp_path / "towers.csv"
    write_tower_locations(
        {f"T{i}": GeoPoint(30.0 + 0.0005 * i, 31.0) for i in range(4)}, str(towers)
    )
    return path, towers


@pytest.fixture
def no_synthesis(monkeypatch):
    """Fails the test if the CLI synthesizes a world."""
    def refuse(*args, **kwargs):
        raise AssertionError("synthesized before checking the arguments")

    monkeypatch.setattr(cli, "make_preset", refuse)


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["locate", "--scans", "x.csv"])  # --map and --technique missing
        assert exc.value.code == 1

    @pytest.mark.parametrize("param,value", [("ns", "x"), ("k", "2.5")])
    def test_unparsable_sweep_value_is_1(self, tmp_path, capsys, param, value):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--param", param, "--values", "1", value, "--out", str(tmp_path)])
        assert exc.value.code == 1
        assert f"--param {param} takes int values" in capsys.readouterr().err

    @pytest.mark.parametrize("values, message", [
        pytest.param(["1", "x"], "invalid literal for int() with base 10: 'x'", id="unparsable"),
        pytest.param(["0"], "n_samples must be an integer >= 1, got 0", id="below_1"),
    ])
    def test_sweep_value_error_comes_from_the_sweep_subcommand(self, tmp_path, capsys, values,
                                                                 message):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--param", "ns", "--values", *values, "--out", str(tmp_path)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: gsmloc sweep [-h] --param")
        assert f"\ngsmloc sweep: error: --param ns takes int values: {message}\n" in err

    @pytest.mark.parametrize("command", ["synth", "sweep"])
    def test_preset_choices_are_the_synthesized_presets(self, monkeypatch, command):
        monkeypatch.setitem(cli.PRESETS, "suburban", cli.PRESETS["rural"])
        argv = [command, "--preset", "suburban", "--out", "out"]
        if command == "sweep":
            argv += ["--param", "k", "--values", "1"]
        assert cli._build_parser().parse_args(argv).preset == "suburban"

    @pytest.mark.parametrize("param", ["ns", "k"])
    def test_sweep_value_below_1_is_1(self, tmp_path, capsys, param):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--param", param, "--values", "1", "0", "--out", str(tmp_path)])
        assert exc.value.code == 1
        field = {"ns": "n_samples", "k": "k"}[param]
        assert f"{field} must be an integer >= 1, got 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["locate", "evaluate"])
    @pytest.mark.parametrize("flag, field", [("--ns", "n_samples"), ("--k", "k")])
    def test_count_below_1_is_1_before_any_file_is_read(self, tmp_path, capsys, command, flag,
                                                         field):
        missing = str(tmp_path / "missing.csv")
        with pytest.raises(SystemExit) as exc:
            main([command, "--map", missing, "--scans", missing, "--technique", "probabilistic",
                  flag, "0"])
        assert exc.value.code == 1
        assert f"{field} must be an integer >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--param", "grid", "--values", "70", "--ns", "0"],
                                      ["--param", "towers", "--values", "0", "--k", "0"],
                                      ["--param", "ns", "--values", "0"]])
    def test_sweep_count_below_1_is_1_before_synthesis(self, tmp_path, no_synthesis, argv):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *argv, "--out", str(tmp_path / "out")])
        assert exc.value.code == 1

    @pytest.mark.parametrize("param, values, message", [
        pytest.param("grid", ["70", "0"], "grid_length 0.0 is not a positive finite number",
                     id="grid_0"),
        pytest.param("grid", ["nan"], "grid_length nan is not a positive finite number",
                     id="grid_nan"),
        pytest.param("density", ["0.5", "0"], "keep_fraction must be in (0, 1], got 0.0",
                     id="density_0"),
        pytest.param("density", ["1.5"], "keep_fraction must be in (0, 1], got 1.5",
                     id="density_1.5"),
        pytest.param("towers", ["0.2", "1"], "drop_fraction must be in [0, 1), got 1.0",
                     id="towers_1"),
        pytest.param("towers", ["-0.1"], "drop_fraction must be in [0, 1), got -0.1",
                     id="towers_-0.1"),
    ])
    def test_sweep_value_out_of_range_is_1_before_synthesis(self, tmp_path, capsys, no_synthesis,
                                                             param, values, message):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--param", param, "--values", *values, "--out", str(tmp_path / "out")])
        assert exc.value.code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["synth", "--preset", "rural"],
                                      ["sweep", "--param", "k", "--values", "1"]])
    def test_negative_seed_is_1_before_synthesis(self, tmp_path, capsys, no_synthesis, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "-1", "--out", str(tmp_path / "out")])
        assert exc.value.code == 1
        assert "argument --seed: seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("spacing", ["0", "nan", "-1"])
    def test_gp_spacing_out_of_range_is_1_before_fitting(self, tiny_trace, tmp_path, capsys,
                                                          monkeypatch, spacing):
        def refuse(*args, **kwargs):
            raise AssertionError("fitted GPs before checking the arguments")

        monkeypatch.setattr(cli.gp, "fit_tower_models", refuse)
        trace, _ = tiny_trace
        with pytest.raises(SystemExit) as exc:
            main(["build", "--traces", str(trace), "--kind", "gp", "--spacing", spacing,
                  "--out", str(tmp_path / "grid.json")])
        assert exc.value.code == 1
        assert "is not a positive finite number" in capsys.readouterr().err

    def test_build_grid_length_0_is_1_before_reading_the_trace(self, tiny_trace, tmp_path,
                                                               capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("read the trace before checking the arguments")

        monkeypatch.setattr(cli, "read_trace", refuse)
        trace, _ = tiny_trace
        with pytest.raises(SystemExit) as exc:
            main(["build", "--traces", str(trace), "--grid-length", "0",
                  "--out", str(tmp_path / "map.json")])
        assert exc.value.code == 1
        assert "grid_length 0.0 is not a positive finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("param, values", [("density", "1"), ("towers", "0"), ("ns", "2"),
                                               ("k", "2")])
    def test_sweep_grid_length_0_is_1_before_synthesis(self, tmp_path, capsys, no_synthesis,
                                                        param, values):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--param", param, "--values", values, "--grid-length", "0",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 1
        assert "grid_length 0.0 is not a positive finite number" in capsys.readouterr().err

    def test_unknown_command_is_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_data_error_is_2(self, capsys):
        rc = main(["build", "--traces", "/nonexistent/trace.csv", "--out", "/tmp/x.json"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_map_missing_a_heard_tower_is_2(self, tmp_path, tiny_trace, capsys):
        trace, _ = tiny_trace
        map_path = tmp_path / "map.json"
        assert main(["build", "--traces", str(trace), "--out", str(map_path)]) == 0
        doc = json.loads(map_path.read_text())
        doc["towers"].remove("T3")
        map_path.write_text(json.dumps(doc))
        rc = main(["locate", "--map", str(map_path), "--scans", str(trace),
                   "--technique", "probabilistic"])
        assert rc == 2
        assert "not in 'towers': columns [3]" in capsys.readouterr().err

    def test_eighth_tower_in_a_scan_is_2_and_names_the_line(self, tmp_path, tiny_trace, capsys):
        trace, _ = tiny_trace
        map_path = tmp_path / "map.json"
        assert main(["build", "--traces", str(trace), "--out", str(map_path)]) == 0
        bad = tmp_path / "eight.csv"
        rows = [f"1.0,,,T{i},5" for i in range(8)]
        bad.write_text("\n".join(["timestamp,lat,lon,tower_id,asu", *rows]) + "\n")
        rc = main(["locate", "--map", str(map_path), "--scans", str(bad),
                   "--technique", "probabilistic"])
        assert rc == 2
        assert f"{bad}:9:" in capsys.readouterr().err

    def test_locate_on_a_trace_without_scans_is_2(self, tmp_path, tiny_trace, capsys):
        trace, _ = tiny_trace
        map_path = tmp_path / "map.json"
        assert main(["build", "--traces", str(trace), "--out", str(map_path)]) == 0
        header_only = tmp_path / "empty.csv"
        header_only.write_text("timestamp,lat,lon,tower_id,asu\n")
        rc = main(["locate", "--map", str(map_path), "--scans", str(header_only),
                   "--technique", "probabilistic"])
        assert rc == 2
        assert f"{header_only}: no scans" in capsys.readouterr().err

    def test_gp_build_on_a_trace_without_scans_is_2(self, tmp_path, capsys):
        header_only = tmp_path / "empty.csv"
        header_only.write_text("timestamp,lat,lon,tower_id,asu\n")
        rc = main(["build", "--traces", str(header_only), "--kind", "gp",
                   "--out", str(tmp_path / "grid.json")])
        assert rc == 2
        assert "gsmloc build: error: cannot take an origin from an empty trace" in capsys.readouterr().err
        assert not (tmp_path / "grid.json").exists()

    @pytest.mark.parametrize("kind,technique,edit,message", [
        pytest.param("map", "probabilistic", lambda d: d.update(keys=[]),
                     "malformed radio map (radio map has no cells)", id="map_no_cells"),
        pytest.param("gp", "gp", lambda d: d.update(towers={}),
                     "malformed GP grid (precomputed grid has no towers)", id="grid_no_towers"),
    ])
    def test_empty_model_file_is_2(self, tmp_path, tiny_trace, capsys, kind, technique, edit,
                                   message):
        trace, _ = tiny_trace
        path = tmp_path / "model.json"
        assert main(["build", "--traces", str(trace), "--kind", kind, "--spacing", "50",
                     "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        rc = main(["locate", "--map", str(path), "--scans", str(trace), "--technique", technique])
        assert rc == 2
        assert f"{path}: {message}" in capsys.readouterr().err


class TestBuildLocateEvaluate:
    def test_build_and_locate(self, tmp_path, tiny_trace, capsys):
        trace, towers = tiny_trace
        map_path = tmp_path / "map.json"
        assert main(["build", "--traces", str(trace), "--grid-length", "70",
                     "--towers", str(towers), "--out", str(map_path)]) == 0
        assert map_path.exists()

        out_path = tmp_path / "est.csv"
        rc = main(["locate", "--map", str(map_path), "--scans", str(trace),
                   "--technique", "probabilistic", "--ns", "3", "--out", str(out_path)])
        assert rc == 0
        rows = list(csv.DictReader(out_path.open()))
        assert len(rows) == 60
        assert set(rows[0]) == {"timestamp", "lat", "lon"}

    def test_locate_cellid(self, tmp_path, tiny_trace, capsys):
        trace, towers = tiny_trace
        map_path = tmp_path / "map.json"
        main(["build", "--traces", str(trace), "--towers", str(towers), "--out", str(map_path)])
        capsys.readouterr()
        rc = main(["locate", "--map", str(map_path), "--scans", str(trace),
                   "--technique", "cellid"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("timestamp,lat,lon")

    def test_evaluate_report(self, tmp_path, tiny_trace, capsys):
        trace, towers = tiny_trace
        map_path = tmp_path / "map.json"
        main(["build", "--traces", str(trace), "--out", str(map_path)])
        capsys.readouterr()
        report_path = tmp_path / "report.csv"
        cdf_path = tmp_path / "cdf.csv"
        rc = main(["evaluate", "--map", str(map_path), "--scans", str(trace),
                   "--technique", "probabilistic", "--report", str(report_path),
                   "--cdf", str(cdf_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "technique,grid_m,ns,k,median_err_m,p95_err_m,mean_ms"
        assert report_path.exists() and cdf_path.exists()

    def test_evaluate_defaults_to_tuned_params(self, tmp_path, tiny_trace, capsys):
        # Hybrid scores the window's freshest scan, so it must default to a
        # one-scan window rather than the probabilistic technique's four.
        trace, _ = tiny_trace
        map_path = tmp_path / "map.json"
        main(["build", "--traces", str(trace), "--out", str(map_path)])
        for technique, ns, k in (("hybrid", "1", "1"), ("deterministic", "4", "8")):
            capsys.readouterr()
            assert main(["evaluate", "--map", str(map_path), "--scans", str(trace),
                         "--technique", technique]) == 0
            row = next(csv.DictReader(capsys.readouterr().out.splitlines()))
            assert (row["technique"], row["grid_m"], row["ns"], row["k"]) == (
                technique, "70.0", ns, k)

    def test_evaluate_stdout_row_equals_report_row(self, tmp_path, tiny_trace, capsys):
        trace, _ = tiny_trace
        map_path = tmp_path / "map.json"
        main(["build", "--traces", str(trace), "--out", str(map_path)])
        capsys.readouterr()
        report_path = tmp_path / "report.csv"
        assert main(["evaluate", "--map", str(map_path), "--scans", str(trace),
                     "--technique", "hybrid", "--k", "2", "--report", str(report_path)]) == 0
        assert capsys.readouterr().out.splitlines() == report_path.read_text().splitlines()

    def test_evaluate_requires_truth(self, tmp_path, capsys):
        from gsmloc.geo import ScanVector

        trace = tmp_path / "no_truth.csv"
        write_trace([ScanVector(0.0, {"T0": 5}), ScanVector(1.0, {"T0": 6})], str(trace))
        map_src = tmp_path / "train.csv"
        write_trace([scan_at_planar(0, 1.0, 1.0, {"T0": 5})], str(map_src))
        map_path = tmp_path / "map.json"
        main(["build", "--traces", str(map_src), "--out", str(map_path)])
        rc = main(["evaluate", "--map", str(map_path), "--scans", str(trace),
                   "--technique", "probabilistic"])
        assert rc == 2

    @pytest.mark.parametrize("kind", ["map", "gp"])
    def test_build_names_a_scan_without_truth(self, tmp_path, capsys, kind):
        from gsmloc.geo import ScanVector

        trace = tmp_path / "train.csv"
        write_trace([scan_at_planar(0, 1.0, 1.0, {"T0": 5}), ScanVector(17.5, {"T0": 6}),
                     scan_at_planar(20, 90.0, 1.0, {"T0": 7})], str(trace))
        rc = main(["build", "--traces", str(trace), "--kind", kind,
                   "--out", str(tmp_path / "out.json")])
        assert rc == 2
        assert "t=17.5 has no ground truth" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_build_gp_and_locate(self, tmp_path, tiny_trace):
        trace, _ = tiny_trace
        grid_path = tmp_path / "grid.json"
        rc = main(["build", "--traces", str(trace), "--kind", "gp",
                   "--spacing", "50", "--out", str(grid_path)])
        assert rc == 0
        out_path = tmp_path / "est.csv"
        rc = main(["locate", "--map", str(grid_path), "--scans", str(trace),
                   "--technique", "gp", "--out", str(out_path)])
        assert rc == 0
        assert len(list(csv.DictReader(out_path.open()))) == 60

    def test_build_gp_spacing_defaults_to_the_rural_preset(self, tmp_path, tiny_trace):
        trace, _ = tiny_trace
        grid_path = tmp_path / "grid.json"
        assert main(["build", "--traces", str(trace), "--kind", "gp", "--out", str(grid_path)]) == 0
        assert json.loads(grid_path.read_text())["spacing_m"] == PRESET_GP_SPACING_M["rural"] == 42.0


class TestSynthAndSweep:
    def test_synth_writes_files(self, tmp_path):
        out = tmp_path / "world"
        assert main(["synth", "--preset", "rural", "--seed", "0", "--out", str(out)]) == 0
        for name in ("train.csv", "test.csv", "towers.csv"):
            assert (out / name).exists()
        rows = list(csv.DictReader((out / "towers.csv").open()))
        assert len(rows) == 51

    def test_sweep_k(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--param", "k", "--values", "1", "2", "--preset", "rural",
                   "--seed", "0", "--out", str(out)])
        assert rc == 0
        lines = (out / "report.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 rows
        assert (out / "cdf_000.csv").exists() and (out / "cdf_001.csv").exists()

    @pytest.mark.parametrize("param, values, technique, column", [
        ("grid", ["60", "90"], "probabilistic", "grid_m"),
        ("ns", ["1", "3"], "probabilistic", "ns"),
        ("ns", ["1", "3"], "cellid", "ns"),
        ("towers", ["0", "0.2"], "probabilistic", None),
        ("density", ["1", "0.5"], "probabilistic", None),
        ("grid", ["60", "90"], "cellid", "grid_m"),
        ("density", ["1", "0.5"], "cellid", None),
    ])
    def test_sweep_writes_a_row_and_cdf_per_value(self, tmp_path, param, values, technique,
                                                  column):
        out = tmp_path / "sweep"
        assert main(["sweep", "--param", param, "--values", *values, "--technique", technique,
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader((out / "report.csv").open()))
        assert [r["technique"] for r in rows] == [technique, technique]
        if column is not None:
            assert [float(r[column]) for r in rows] == [float(v) for v in values]
        assert (out / "cdf_000.csv").exists() and (out / "cdf_001.csv").exists()
