import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from epkit import cli, crossing
from epkit import io as io_mod
from epkit.cli import build_parser, main
from epkit.crossing import classify, sweep_toy
from epkit.io import (IngestError, TrajectoryDataset, ingest_csv,
                      write_trajectory_csv)
from epkit.toymodel import PRESETS, ToyParams


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestIngest:
    def test_well_formed_file(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_lines(path, [
            "scan,re_1,im_1,re_2,im_2",
            "0.0,1.0,0.1,2.0,0.2",
            "0.5,1.1,0.1,1.9,0.2",
            "1.0,1.2,0.1,1.8,0.2",
        ])
        ds = ingest_csv(path)
        assert ds.scan_name == "scan"
        assert ds.scan_values.size == 3
        assert set(ds.modes) == {"1", "2"}
        assert ds.modes["1"][0] == 1.0 + 0.1j

    def test_duplicate_scan_value_names_line(self, tmp_path):
        path = tmp_path / "dup.csv"
        write_lines(path, [
            "scan,re_1,im_1,re_2,im_2",
            "0.0,1,0,2,0",
            "0.5,1,0,2,0",
            "0.5,1,0,2,0",
            "1.0,1,0,2,0",
        ])
        with pytest.raises(IngestError, match="line 4"):
            ingest_csv(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        write_lines(path, [
            "scan,re_1,im_1,re_2,im_2",
            "0.0,1,0,2,0",
            "0.5,1,0,2",
            "1.0,1,0,2,0",
        ])
        with pytest.raises(IngestError, match="line 3"):
            ingest_csv(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, [
            "scan,re_1,im_1,re_2,im_2",
            "0.0,1,0,2,0",
            "0.5,oops,0,2,0",
        ])
        with pytest.raises(IngestError, match="line 3"):
            ingest_csv(path)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "nan"])
    def test_nonfinite_cell_names_line(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        write_lines(path, [
            "scan,re_1,im_1,re_2,im_2",
            "0.0,1,0,2,0",
            "0.5,1,0,2,0",
            f"1.0,1,{cell},2,0",
        ])
        with pytest.raises(IngestError, match="line 4: .* column 'im_1'"):
            ingest_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        write_lines(path, ["scan,re_1,im_1,re_2", "0,1,0,2"])
        with pytest.raises(IngestError, match="line 1"):
            ingest_csv(path)

    def test_decreasing_scan_accepted(self, tmp_path):
        path = tmp_path / "dec.csv"
        write_lines(path, [
            "chi,re_a,im_a,re_b,im_b",
            "1.0,1,0,2,0",
            "0.5,1,0,2,0",
            "0.0,1,0,2,0",
        ])
        ds = ingest_csv(path)
        assert ds.scan_name == "chi"
        traj = ds.to_trajectory()
        assert traj.ts[0] < traj.ts[-1]

    def test_round_trip_classification_identical(self, tmp_path):
        p = ToyParams(g_c=0.05, beta=1.0, gamma1=1.05, gamma2=1.05)
        traj = sweep_toy(p, np.linspace(0.3, 0.8, 501), with_vectors=False)
        direct = classify(traj)

        path = tmp_path / "sweep.csv"
        write_trajectory_csv(path, traj)
        again = classify(ingest_csv(path).to_trajectory())

        assert again.label == direct.label
        assert again.re_min_gap == direct.re_min_gap
        assert again.im_min_gap == direct.im_min_gap
        assert again.re_cross_points == direct.re_cross_points
        assert again.bifurcation_edges == direct.bifurcation_edges

    def test_unknown_mode_is_named(self):
        ds = TrajectoryDataset("s", [0, 1], {"1": [1j, 2j], "2": [2j, 1j]})
        with pytest.raises(ValueError, match="unknown mode 'x'; the dataset "
                                             "has modes 1, 2"):
            ds.to_trajectory("1", "x")

    def test_dataset_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            TrajectoryDataset("s", [0, 1], {"1": [1j, 2j]})
        with pytest.raises(ValueError, match="monotone"):
            TrajectoryDataset("s", [0, 1, 0.5],
                              {"1": [1j] * 3, "2": [2j] * 3})


def run_cli(*argv):
    return main(list(argv))


def readme_cli_commands():
    """The argv of each ``epkit ...`` line of the README's CLI block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## CLI\n")[1]
    block = section.split("```sh\n")[1].split("```")[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines
            if line.startswith("epkit ")]


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_cli_commands()
    assert [argv[1] for argv in commands] == [
        "find-eps", "toy-sweep", "beta-scan", "surface", "encircle",
        "encircle", "project", "ingest-classify", "oracle"]
    for argv in commands:
        assert main(argv[1:]) == 0, argv


class TestCli:
    def test_find_eps_artifact(self, tmp_path):
        assert run_cli("find-eps", "--preset", "double-ep",
                       "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "find_eps.json").read_text())
        assert payload["config"]["command"] == "find-eps"
        alphas = [e["p1"] for e in payload["eps"]]
        assert len(alphas) == 2
        assert abs(alphas[0] - 0.454) < 1e-3
        assert abs(alphas[1] - 0.621) < 1e-3

    def test_find_eps_bracket_from_alpha_zero(self, tmp_path):
        # the one EP left for g_c > e/2, found from a bracket starting at 0
        assert run_cli("find-eps", "--preset", "double-ep", "--g-c", "1.5",
                       "--alpha-bracket", "0", "4", "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "find_eps.json").read_text())
        assert [e["p1"] for e in payload["eps"]] == pytest.approx([1.5641],
                                                                  abs=1e-4)

    def test_find_eps_grid_search_window(self, tmp_path):
        assert run_cli("find-eps", "--window", "0.3", "0.8", "0.9", "1.0",
                       "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "find_eps.json").read_text())
        assert payload["method"] == "grid-search"
        assert len(payload["eps"]) == 2
        assert abs(payload["eps"][0]["p1"] - 0.454) < 1e-3
        assert abs(payload["eps"][1]["p2"] - 1.0) < 1e-4

    def test_toy_sweep_labels(self, tmp_path):
        assert run_cli("toy-sweep", "--preset", "class1",
                       "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "toy_sweep_report.json").read_text())
        assert report["report"]["label"] == "LZ"
        assert (tmp_path / "toy_sweep.csv").exists()

    def test_encircle_both_ep_polyline_is_identity(self, tmp_path):
        assert run_cli("encircle", "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "encircle.json").read_text())
        assert payload["permutation"] == "identity"
        assert len(payload["enclosed_eps"]) == 2

    @pytest.mark.parametrize("beta", ["0.9", "1.0", "0.0"])
    def test_encircle_reports_eps_at_any_preset_beta(self, tmp_path, beta):
        # the sampler treats beta as a free coordinate, so the loop winds
        # around EP1 on beta = 1 whatever the params' beta
        assert run_cli("encircle", "--preset", "double-ep", "--beta", beta,
                       "--circle", "0.454", "1.0", "0.05",
                       "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "encircle.json").read_text())
        assert (payload["permutation"], payload["winding"]) == ("swap", 1)
        (ep,) = payload["enclosed_eps"]
        assert abs(ep["p1"] - 0.454) < 1e-3 and ep["p2"] == 1.0

    def test_encircle_reports_an_ep_below_alpha_one_hundredth(self, tmp_path):
        # at g_c = 1.3 the d = +d0 EP sits at alpha = 2.18e-4
        assert run_cli("encircle", "--g-c", "1.3", "--circle", "0.0005", "1.0",
                       "0.0004", "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "encircle.json").read_text())
        assert (payload["permutation"], payload["winding"]) == ("swap", 1)
        (ep,) = payload["enclosed_eps"]
        assert abs(ep["p1"] - 2.1777188612384697e-4) < 1e-15

    def test_encircle_unequal_widths_report_no_positions(self, tmp_path):
        assert run_cli("encircle", "--preset", "class3a",
                       "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "encircle.json").read_text())
        assert payload["enclosed_eps"] == []

    def test_beta_scan_window(self, tmp_path):
        assert run_cli("beta-scan", "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "beta_scan.json").read_text())
        assert 0.76 <= payload["beta_c"] <= 0.78

    def test_surface_artifacts(self, tmp_path):
        assert run_cli("surface", "--grid", "32x16", "--out", str(tmp_path)) == 0
        header = (tmp_path / "surface.csv").read_text().splitlines()[0]
        assert header == "p1,p2,re1,im1,is_cut_edge"
        payload = json.loads((tmp_path / "surface.json").read_text())
        assert payload["delta_mode"] == "delta"
        assert len(payload["axis1"]) == 32

    def test_project_points(self, tmp_path):
        assert run_cli("project", "--point", "2.9036", "0.5372",
                       "--point", "0", "0", "--out", str(tmp_path)) == 0
        rows = (tmp_path / "sphere.csv").read_text().splitlines()
        assert rows[0] == "tn,tchi,txi"
        first = [float(x) for x in rows[1].split(",")]
        assert math.isclose(first[0], 0.5974807203614088)
        assert math.isclose(first[1], 0.11054092952822318)

    def test_project_csv_input_with_infinity(self, tmp_path):
        src = tmp_path / "cut.csv"
        write_lines(src, ["n,chi", "2.6257,0.6001", "inf,inf"])
        assert run_cli("project", "--input", str(src),
                       "--out", str(tmp_path)) == 0
        rows = (tmp_path / "sphere.csv").read_text().splitlines()
        assert rows[-1] == "0.0,0.0,1.0"

    def test_project_golden_bytes(self, tmp_path):
        # -0.0, subnormal, infinite and far coordinates, written by --point
        # and read from a file with a blank line
        assert run_cli("project", "--point", "2.9036", "0.5372",
                       "--point", "-0.0", "0.0", "--point", "5e-324", "1e-310",
                       "--point", "2", "inf", "--point", "1e150", "-3",
                       "--point", "0.5", "-1000.0",
                       "--out", str(tmp_path / "points")) == 0
        assert (tmp_path / "points" / "sphere.csv").read_bytes() == (
            b"tn,tchi,txi\n"
            b"0.5974807203614088,0.11054092952822318,0.7942276069839479\n"
            b"-0.0,0.0,-1.0\n"
            b"1e-323,2e-310,-1.0\n"
            b"0.0,0.0,1.0\n"
            b"2.0000000000000003e-150,-6e-300,1.0\n"
            b"9.999987500015624e-07,-0.001999997500003125,0.9999980000024999\n")
        src = tmp_path / "cut.csv"
        write_lines(src, ["n,chi", "2.6257,0.6001", "-0.0,-0.0", "",
                          "4.9e-324,-1e-310", "-7.5,0.125", "inf,1",
                          "1e20,-1e-20"])
        assert run_cli("project", "--input", str(src),
                       "--out", str(tmp_path / "input")) == 0
        assert (tmp_path / "input" / "sphere.csv").read_bytes() == (
            b"tn,tchi,txi\n"
            b"0.6361924498515673,0.14540087944392943,0.7577055833295626\n"
            b"-0.0,-0.0,-1.0\n"
            b"1e-323,-2e-310,-1.0\n"
            b"-0.26193724420190995,0.0043656207366985,0.965075034106412\n"
            b"0.0,0.0,1.0\n"
            b"2e-20,-2e-60,1.0\n")

    def test_project_far_points_land_on_the_north_pole(self, tmp_path):
        # n^2 + chi^2 overflows; the rows were 0.0,0.0,nan and -0.0,0.0,nan
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"points": [[-1e160, 2]]}))
        for argv in (["--point", "1e200", "1"], ["--config", str(cfg)]):
            assert run_cli("project", *argv, "--out", str(tmp_path)) == 0
            rows = (tmp_path / "sphere.csv").read_text().splitlines()
            assert rows[1:] == ["0.0,0.0,1.0"]
            assert math.hypot(*map(float, rows[1].split(","))) == 1.0

    @pytest.mark.parametrize("lines, message", [
        ([], "line 1: empty file"),
        (["n,chi", "1,2", "x,3"],
         "line 3: non-numeric value 'x' in column 'n'"),
        (["n,chi", "1,2", "", "4"], "line 4: expected 2 cells, got 1"),
        (["n,chi", "1,nan"], "line 2: NaN in column 'chi'"),
    ], ids=["empty", "non-numeric", "one-cell", "nan"])
    def test_project_input_errors_name_the_line(self, tmp_path, capsys,
                                                lines, message):
        src = tmp_path / "cut.csv"
        src.write_text("".join(line + "\n" for line in lines))
        assert run_cli("project", "--input", str(src),
                       "--out", str(tmp_path)) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "IngestError" and err["message"] == message
        assert not (tmp_path / "sphere.csv").exists()

    @pytest.mark.parametrize("points, message", [
        ([[1, 2], ["a", 1]], "points[1] must be a pair of numbers [n, chi], "
                             "got ['a', 1]"),
        ([[1]], "points[0] must be a pair of numbers [n, chi], got [1]"),
        ([[1, 2], [3, 4], 5], "points[2] must be a pair of numbers [n, chi], "
                              "got 5"),
        (5, "points must be a list of [n, chi] pairs, got 5"),
    ], ids=["non-numeric", "one-number", "number", "not-a-list"])
    def test_project_config_point_errors_name_the_index(self, tmp_path, capsys,
                                                        points, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"points": points}))
        assert run_cli("project", "--config", str(cfg),
                       "--out", str(tmp_path)) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValueError" and err["message"] == message

    def test_ingest_classify_round_trip(self, tmp_path):
        assert run_cli("toy-sweep", "--preset", "double-ep",
                       "--out", str(tmp_path)) == 0
        assert run_cli("ingest-classify", "--input",
                       str(tmp_path / "toy_sweep.csv"),
                       "--meta", "n_in=2.74", "--out", str(tmp_path)) == 0
        sweep = json.loads((tmp_path / "toy_sweep_report.json").read_text())
        ingest = json.loads((tmp_path / "ingest_classify.json").read_text())
        assert ingest["report"] == sweep["report"]
        assert ingest["metadata"] == {"n_in": "2.74"}

    def test_oracle_surface_and_loop(self, tmp_path):
        assert run_cli("oracle", "--mode", "encircle", "--circle",
                       "2.6257", "0.6001", "0.05", "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "oracle_encircle.json").read_text())
        assert payload["permutation"] == "swap"
        assert run_cli("oracle", "--grid", "32x16", "--out", str(tmp_path)) == 0
        assert (tmp_path / "oracle_surface.csv").exists()

    @pytest.mark.parametrize("order", ["3", "16"])
    def test_oracle_root_pair_across_its_cut_fails(self, tmp_path, capsys,
                                                   order):
        # the circle crosses the cut p2 = 0.6, p1 < 2.7, where the first two
        # roots of (z - z0)**(1/order) jump onto the last and the first
        assert run_cli("oracle", "--mode", "encircle", "--kind", "single-point",
                       "--z0", "2.7", "0.6", "--order", order, "--circle",
                       "2.7", "0.6", "0.05", "--out", str(tmp_path)) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "RuntimeError"
        assert "step floor reached" in err["message"]
        assert not (tmp_path / "oracle_encircle.json").exists()

    def test_error_exit_is_machine_readable(self, tmp_path, capsys):
        code = run_cli("ingest-classify", "--input",
                       str(tmp_path / "missing.csv"), "--out", str(tmp_path))
        assert code != 0
        err = json.loads(capsys.readouterr().out)
        assert "error" in err and err["error"]["type"]

    @pytest.mark.parametrize("argv", [
        ("ingest-classify", "--input", "missing.csv"),
        ("encircle", "--circle", "0.0", "1.0", "0.05", "--steps", "64"),
        ("oracle", "--mode", "encircle", "--grid", "5x5"),
    ], ids=lambda argv: argv[0])
    def test_error_names_command(self, tmp_path, capsys, argv):
        assert run_cli(*argv, "--out", str(tmp_path)) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert sorted(err) == ["command", "message", "type"]
        assert err["command"] == argv[0]

    def test_module_error_reports_type(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        write_lines(bad, ["scan,re_1,im_1,re_2,im_2", "0,1,0,2,0", "0,1,0,2,0"])
        code = run_cli("ingest-classify", "--input", str(bad),
                       "--out", str(tmp_path))
        assert code != 0
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "IngestError"
        assert "line 3" in err["error"]["message"]

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli("find-eps", "--out", str(out)) == 0
            assert run_cli("toy-sweep", "--preset", "class2",
                           "--out", str(out)) == 0
        for name in ("find_eps.json", "toy_sweep.csv"):
            b1 = (out1 / name).read_bytes().replace(str(out1).encode(), b"OUT")
            b2 = (out2 / name).read_bytes().replace(str(out2).encode(), b"OUT")
            assert b1 == b2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "params": {"g_c": 0.05, "beta": 1.0, "gamma1": 1.05,
                       "gamma2": 1.05},
            "alpha_bracket": [0.3, 0.5],
        }))
        assert run_cli("find-eps", "--config", str(cfg),
                       "--alpha-bracket", "0.3", "0.8",
                       "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "find_eps.json").read_text())
        # the flag overrides the config bracket, so both roots are found
        assert payload["config"]["alpha_bracket"] == [0.3, 0.8]
        assert len(payload["eps"]) == 2

    def test_json_embeds_full_config(self, tmp_path):
        assert run_cli("beta-scan", "--tolerance", "5e-3",
                       "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "beta_scan.json").read_text())
        cfg = payload["config"]
        for key in ("params", "beta_window", "alpha_range", "points",
                    "tolerance", "out", "command"):
            assert key in cfg
        assert cfg["tolerance"] == 5e-3

    def test_partial_params_config_merges_over_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"g_c": 0.05}}))
        assert run_cli("toy-sweep", "--config", str(cfg), "--points", "201",
                       "--out", str(tmp_path)) == 0
        params = json.loads((tmp_path / "toy_sweep_report.json").read_text())[
            "config"]["params"]
        assert params == {"g_c": 0.05, "beta": 0.76, "gamma1": 1.05,
                          "gamma2": 1.07}

    def test_non_number_param_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"g_c": "0.05"}}))
        assert run_cli("toy-sweep", "--config", str(cfg),
                       "--out", str(tmp_path)) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValueError"
        assert "g_c must be a real number" in err["message"]

    def test_find_eps_rejects_non_square_grid(self, tmp_path, capsys):
        assert run_cli("find-eps", "--window", "0.3", "0.8", "0.9", "1.0",
                       "--grid", "8x400", "--out", str(tmp_path)) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValueError" and "8x400" in err["message"]
        assert not (tmp_path / "find_eps.json").exists()

    @pytest.mark.parametrize("argv, message", [
        (("beta-scan", "--tolerance", "0"), "tol must be positive and finite, "
                                            "got 0.0"),
        (("beta-scan", "--tolerance", "-1"), "tol must be positive and "
                                             "finite, got -1.0"),
        (("beta-scan", "--tolerance", "nan"), "tol must be positive and "
                                              "finite, got nan"),
        (("find-eps", "--tolerance", "-1"), "residual_tol must be positive "
                                            "and finite, got -1.0"),
        (("find-eps", "--tolerance", "nan"), "residual_tol must be positive "
                                             "and finite, got nan"),
    ])
    def test_rejects_a_bad_tolerance(self, tmp_path, capsys, monkeypatch,
                                     argv, message):
        def no_sweep(*args, **kwargs):  # a bisection that ran would hang
            raise AssertionError("swept before checking the tolerance")

        monkeypatch.setattr(crossing, "sweep_toy", no_sweep)
        assert run_cli(*argv, "--out", str(tmp_path)) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"command": argv[0], "type": "ValueError",
                       "message": message}
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("window", [("0.8", "0.3", "0.9", "1.1"),
                                        ("0.3", "0.8", "1.1", "0.9"),
                                        ("0.3", "0.3", "0.9", "1.1")])
    def test_find_eps_rejects_an_empty_window(self, tmp_path, capsys, window):
        assert run_cli("find-eps", "--window", *window,
                       "--out", str(tmp_path)) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValueError"
        assert "lo < hi on both axes" in err["message"]
        assert not (tmp_path / "find_eps.json").exists()

    @pytest.mark.parametrize("command", [("surface",),
                                         ("oracle", "--mode", "surface")])
    @pytest.mark.parametrize("window, message", [
        (("nan", "0.8", "0.9", "1.0"), "window axis 1 must span a finite, "
                                       "nonzero width, got (nan, 0.8)"),
        (("0.3", "0.8", "0.9", "inf"), "window axis 2 must span a finite, "
                                       "nonzero width, got (0.9, inf)"),
        (("0.3", "0.3", "0.9", "1.0"), "window axis 1 must span a finite, "
                                       "nonzero width, got (0.3, 0.3)"),
    ], ids=["nan", "inf", "zero-width"])
    def test_surface_rejects_a_bad_window(self, tmp_path, capsys, command,
                                          window, message):
        assert run_cli(*command, "--window", *window, "--grid", "16x16",
                       "--out", str(tmp_path)) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["message"]) == ("ValueError", message)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, name", [
        (("surface",), "surface.json"),
        (("oracle", "--mode", "surface"), "oracle_surface.json")])
    def test_surface_reversed_window_mirrors_the_axis(self, tmp_path, command,
                                                      name):
        assert run_cli(*command, "--window", "0.8", "0.3", "0.9", "1.0",
                       "--grid", "16x16", "--out", str(tmp_path)) == 0
        axis1 = json.loads((tmp_path / name).read_text())["axis1"]
        assert axis1 == np.linspace(0.8, 0.3, 16).tolist()

    @pytest.mark.parametrize("argv, message", [
        (("--circle", "nan", "1.0", "0.05"),
         "center must be two finite numbers, got (nan, 1.0)"),
        (("--circle", "0.45", "1.0", "inf"),
         "radius must be positive and finite, got inf"),
        (("--circle", "0.45", "1.0", "0.0"),
         "radius must be positive and finite, got 0.0"),
        (("--rect", "0.4", "0.68", "0.95", "nan"),
         "vertex 2 must be two finite numbers, got (0.68, nan)"),
        (("--rect", "0.5", "0.5", "1.0", "1.0"),
         "vertices must span a positive, finite perimeter, got ((0.5, 1.0), "
         "(0.5, 1.0), (0.5, 1.0), (0.5, 1.0))"),
    ], ids=["nan-center", "inf-radius", "zero-radius", "nan-vertex",
            "zero-perimeter"])
    def test_loop_rejects_non_finite_geometry(self, tmp_path, capsys, argv,
                                              message):
        assert run_cli("encircle", *argv, "--out", str(tmp_path)) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["message"]) == ("ValueError", message)

    @pytest.mark.parametrize("command", [("encircle",),
                                         ("oracle", "--mode", "encircle")])
    @pytest.mark.parametrize("loop, message", [
        ({"kind": "circle", "center": [0.45], "radius": 0.05},
         "center must be two finite numbers, got (0.45,)"),
        ({"kind": "polyline", "vertices": [[0.4, 0.95], [0.68, 0.95, 3],
                                           [0.5, 1.05]]},
         "vertex 1 must be two finite numbers, got (0.68, 0.95, 3)"),
        ({"center": [0.45, 1.0], "radius": 0.05},
         "loop must be an object with a kind, got {'center': [0.45, 1.0], "
         "'radius': 0.05}"),
        (0.05, "loop must be an object with a kind, got 0.05"),
        ({"kind": "ellipse"}, "unknown loop kind 'ellipse'"),
        ({"kind": "circle", "center": [0.45, 1.0]},
         "a circle loop needs 'radius'"),
        ({"kind": "circle", "radius": 0.05}, "a circle loop needs 'center'"),
        ({"kind": "rect"}, "a rect loop needs 'window'"),
        ({"kind": "polyline"}, "a polyline loop needs 'vertices'"),
        ({"kind": "circle", "center": 0.45, "radius": 0.05},
         "center must be two finite numbers, got 0.45"),
        ({"kind": "circle", "center": [0.45, "1.0"], "radius": 0.05},
         "center must be two finite numbers, got (0.45, '1.0')"),
        ({"kind": "circle", "center": [0.45, 1.0], "radius": "0.05"},
         "radius must be a real number, got '0.05'"),
        ({"kind": "circle", "center": [0.45, 1.0], "radius": True},
         "radius must be a real number, got True"),
        ({"kind": "rect", "window": [0.4, 0.68, 0.95]},
         "window must be four numbers [p1lo, p1hi, p2lo, p2hi], "
         "got [0.4, 0.68, 0.95]"),
        ({"kind": "rect", "window": [0.4, 0.68, 0.95, False]},
         "window must be four numbers [p1lo, p1hi, p2lo, p2hi], "
         "got [0.4, 0.68, 0.95, False]"),
        ({"kind": "polyline", "vertices": 0.4},
         "vertices must be at least 3 [p1, p2] points, got 0.4"),
        ({"kind": "polyline", "vertices": [[0.4, 0.95], 0.68, [0.5, 1.05]]},
         "vertex 1 must be two finite numbers, got 0.68"),
        ({"kind": "polyline", "vertices": [[0.4, 0.95], [0.5, 1.05]]},
         "vertices must be at least 3 [p1, p2] points, "
         "got [[0.4, 0.95], [0.5, 1.05]]"),
        ({"kind": "polyline", "vertices": [[0.5, 1.0]] * 3},
         "vertices must span a positive, finite perimeter, "
         "got [[0.5, 1.0], [0.5, 1.0], [0.5, 1.0]]"),
        ({"kind": "circle", "center": [0.45, 1.0], "radius": 0.05,
          "window": [0.4, 0.68, 0.95, 1.05], "steps": 64},
         "a circle loop does not read 'steps', 'window'"),
        ({"kind": ["circle"]}, "unknown loop kind ['circle']"),
    ], ids=["circle", "polyline", "no-kind", "not-an-object", "unknown-kind",
            "no-radius", "no-center", "no-window", "no-vertices",
            "number-center", "string-coordinate", "string-radius",
            "bool-radius", "short-window", "bool-window", "number-vertices",
            "number-vertex", "two-vertices", "zero-perimeter", "extra-keys",
            "list-kind"])
    def test_loop_config_rejects_malformed_points(self, tmp_path, capsys,
                                                  command, loop, message):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps({"loop": loop}))
        assert run_cli(*command, "--config", str(path),
                       "--out", str(tmp_path / "out")) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["message"]) == ("ValueError", message)
        assert not (tmp_path / "out").exists() or not any(
            (tmp_path / "out").iterdir())

    @pytest.mark.parametrize("command, config, message", [
        (("encircle",), {"steps": 256.9}, "steps must be an integer, got 256.9"),
        (("encircle",), {"steps": True}, "steps must be an integer, got True"),
        (("encircle",), {"steps": "256"}, "steps must be an integer, got '256'"),
        (("oracle", "--mode", "encircle"), {"steps": 256.9},
         "steps must be an integer, got 256.9"),
        (("oracle", "--mode", "encircle"), {"steps": True},
         "steps must be an integer, got True"),
        (("beta-scan",), {"tolerance": "1e-3"},
         "tolerance must be a real number, got '1e-3'"),
        (("beta-scan",), {"tolerance": True},
         "tolerance must be a real number, got True"),
        (("find-eps",), {"tolerance": "1e-3"},
         "tolerance must be a real number, got '1e-3'"),
        (("find-eps",), {"tolerance": True},
         "tolerance must be a real number, got True"),
    ])
    def test_config_rejects_a_mistyped_count_or_tolerance(
            self, tmp_path, capsys, monkeypatch, command, config, message):
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept before checking the config")

        monkeypatch.setattr(crossing, "sweep_toy", no_sweep)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli(*command, "--config", str(path),
                       "--out", str(tmp_path / "out")) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"command": command[0], "type": "ValueError",
                       "message": message}
        assert not (tmp_path / "out").exists() or not any(
            (tmp_path / "out").iterdir())

    def test_sampler_error_names_loop_point(self, tmp_path, capsys):
        # the toy model has no alpha < 0; this circle crosses alpha = 0
        # between its loop points 16/64 and 17/64
        assert run_cli("encircle", "--circle", "0.0", "1.0", "0.05",
                       "--steps", "64", "--out", str(tmp_path)) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValueError"
        assert err["message"].startswith("alpha must be >= 0")
        assert err["message"].endswith(
            "; the sampler failed at loop point t=0.265625")


# each flag and the commands that read it
FLAG_COMMANDS = {
    ("--grid", "5x5"): {"surface", "find-eps", "oracle"},
    ("--tolerance", "3.0"): {"find-eps", "beta-scan"},
    ("--preset", "class1"): {"toy-sweep", "find-eps", "surface", "encircle",
                             "beta-scan"},
}
COMMAND_ARGS = {"toy-sweep": [], "find-eps": [], "surface": [], "encircle": [],
                "beta-scan": [], "project": [], "oracle": [],
                "ingest-classify": ["--input", "data.csv"]}


class TestSheetCsv:
    @pytest.mark.parametrize("argv, name, n_missing", [
        # alpha < 0 fails to sample, so the first row of nodes is missing
        (("surface", "--window", "-0.001", "0.8", "0.9", "1.0",
          "--grid", "128x16"), "surface.csv", 16),
        (("oracle", "--mode", "surface", "--grid", "32x16"),
         "oracle_surface.csv", 0),
    ])
    def test_delta_mode_writes_sheet1_alone(self, tmp_path, monkeypatch,
                                            argv, name, n_missing):
        grids = []
        write = io_mod.write_sheetgrid_csv

        def keep_grid(path, grid):
            grids.append(grid)
            write(path, grid)

        monkeypatch.setattr(io_mod, "write_sheetgrid_csv", keep_grid)
        assert run_cli(*argv, "--out", str(tmp_path)) == 0
        (grid,) = grids
        assert grid.delta_mode == "delta"
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "p1,p2,re1,im1,is_cut_edge"
        cells = [line.split(",") for line in lines[1:]]
        assert {len(row) for row in cells} == {5}
        # repr round-trips, so equal reprs are equal bits (and both NaN)
        sheet1 = np.ravel(grid.sheet1)
        for part, column in ((sheet1.real, 2), (sheet1.imag, 3)):
            assert [repr(x) for x in part.tolist()] == [
                repr(float(row[column])) for row in cells]
        assert len(grid.missing) == n_missing
        assert sum(row[2:4] == ["nan", "nan"] for row in cells) == n_missing

    def test_raw_mode_golden_bytes(self, tmp_path):
        # golden bytes from before delta mode dropped re2,im2; raw keeps them
        golden = Path(__file__).parent / "data" / "surface_raw_16x16.csv"
        assert run_cli("surface", "--grid", "16x16", "--delta-mode", "raw",
                       "--out", str(tmp_path)) == 0
        assert (tmp_path / "surface.csv").read_bytes() == golden.read_bytes()


class TestCommandFlags:
    @pytest.mark.parametrize("flag", sorted(FLAG_COMMANDS), ids=lambda f: f[0])
    def test_flag_only_on_commands_that_read_it(self, flag, capsys):
        for command, required in COMMAND_ARGS.items():
            argv = [command, *required, *flag]
            if command in FLAG_COMMANDS[flag]:
                args = build_parser().parse_args(argv)
                assert str(getattr(args, flag[0][2:])) == flag[1]
                continue
            with pytest.raises(SystemExit) as info:
                build_parser().parse_args(argv)
            assert info.value.code == 2
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {' '.join(flag)}" in err

    def test_find_eps_window_rejects_tolerance(self, tmp_path, capsys):
        assert run_cli("find-eps", "--window", "0.3", "0.8", "0.9", "1.1",
                       "--tolerance", "1e-3", "--out", str(tmp_path)) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValueError"
        assert "--tolerance" in err["message"] and "--window" in err["message"]
        assert not (tmp_path / "find_eps.json").exists()

    def test_find_eps_scan_roots_records_tolerance(self, tmp_path):
        assert run_cli("find-eps", "--tolerance", "1e-12",
                       "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "find_eps.json").read_text())
        assert payload["config"]["tolerance"] == 1e-12
        assert len(payload["eps"]) == 2


ORACLE_LOOP = ("--circle", "2.6257", "0.6001", "0.05", "--steps", "64")
SINGLE_POINT = ("--kind", "single-point", "--z0", "2.7", "0.6", "--order", "3")


class TestModeKeys:
    """An artifact records the config keys its run reads, and no others."""

    def config(self, tmp_path, *argv):
        assert run_cli(*argv, "--out", str(tmp_path)) == 0
        (artifact,) = tmp_path.glob("*.json")
        cfg = json.loads(artifact.read_text())["config"]
        assert cfg["command"] == argv[0]
        return set(cfg)

    def test_oracle_encircle(self, tmp_path):
        keys = self.config(tmp_path, "oracle", "--mode", "encircle", *ORACLE_LOOP)
        assert keys == {"kind", "mode", "z1", "z2", "loop", "steps", "out",
                        "command"}

    def test_oracle_surface(self, tmp_path):
        keys = self.config(tmp_path, "oracle", "--grid", "16x16")
        assert keys == {"kind", "mode", "z1", "z2", "window", "grid",
                        "delta_mode", "out", "command"}

    def test_oracle_single_point(self, tmp_path):
        keys = self.config(tmp_path, "oracle", "--grid", "16x16", *SINGLE_POINT)
        assert keys == {"kind", "mode", "z0", "order", "window", "grid",
                        "delta_mode", "out", "command"}

    def test_oracle_mode_from_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "encircle", "steps": 64}))
        keys = self.config(tmp_path / "out", "oracle", "--config", str(path))
        assert keys == {"kind", "mode", "z1", "z2", "loop", "steps", "out",
                        "command"}

    def test_find_eps_window(self, tmp_path):
        keys = self.config(tmp_path, "find-eps", "--window", "0.3", "0.8",
                           "0.9", "1.1", "--grid", "16x16")
        assert keys == {"params", "window", "grid", "out", "command"}

    def test_find_eps_scan_roots(self, tmp_path):
        keys = self.config(tmp_path, "find-eps")
        assert keys == {"params", "window", "alpha_bracket", "tolerance", "out",
                        "command"}

    @pytest.mark.parametrize("argv, message", [
        (("oracle", "--mode", "encircle", "--grid", "5x5"),
         "oracle --kind two-point --mode encircle does not read --grid"),
        (("oracle", "--mode", "encircle", "--window", "2.5", "3.0", "0.4", "0.7",
          "--delta-mode", "raw"),
         "oracle --kind two-point --mode encircle does not read --window, "
         "--delta-mode"),
        (("oracle", *ORACLE_LOOP),
         "oracle --kind two-point --mode surface does not read --circle, --steps"),
        (("oracle", "--rect", "2.5", "3.0", "0.4", "0.7"),
         "oracle --kind two-point --mode surface does not read --rect"),
        (("oracle", "--z0", "2.7", "0.6"),
         "oracle --kind two-point --mode surface does not read --z0"),
        (("oracle", "--kind", "single-point", "--z2", "2.7", "0.6"),
         "oracle --kind single-point --mode surface does not read --z2"),
        (("find-eps", "--window", "0.3", "0.8", "0.9", "1.1",
          "--alpha-bracket", "0.3", "0.8"),
         "find-eps --window does not read --alpha-bracket"),
        (("find-eps", "--grid", "16x16"),
         "find-eps without --window does not read --grid"),
    ])
    def test_flag_of_another_mode_fails(self, tmp_path, capsys, argv, message):
        assert run_cli(*argv, "--out", str(tmp_path)) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"command": argv[0], "type": "ValueError",
                       "message": message}
        assert not list(tmp_path.iterdir())

    def test_config_key_of_another_mode_fails(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": "5x5"}))
        assert run_cli("oracle", "--mode", "encircle", "--config", str(path),
                       "--out", str(tmp_path / "out")) == 1
        assert json.loads(capsys.readouterr().out)["error"]["message"] == (
            "oracle --kind two-point --mode encircle does not read "
            "config key 'grid'")

    def test_unknown_mode_in_config_file_fails(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "sphere"}))
        assert run_cli("oracle", "--config", str(path),
                       "--out", str(tmp_path / "out")) == 1
        assert json.loads(capsys.readouterr().out)["error"]["message"] == (
            "oracle: unknown choice --mode sphere")


def _call(argv, out):
    try:
        return main([*argv, "--out", out])
    except SystemExit as exc:  # argparse rejects bad arguments by exiting
        return exc.code


class TestParserReuse:
    """main reuses one parser; no call leaves state in it for the next."""

    @pytest.mark.parametrize("calls, codes", [
        ([("project", "--point", "1", "2"), ("project", "--point", "3", "4")],
         [0, 0]),
        ([("encircle", "--circle", "0.4541", "1.0", "0.05", "--steps", "64"),
          ("encircle", "--steps", "64")], [0, 0]),
        ([("surface", "--bogus"),
          ("encircle", "--circle", "0.0", "1.0", "0.05", "--steps", "64"),
          ("surface", "--grid", "32x16")], [2, 1, 0]),
    ], ids=["project", "encircle", "errors"])
    def test_calls_in_sequence_match_fresh_calls(self, calls, codes, tmp_path,
                                                 monkeypatch, capsys):
        runs = {}
        for order in ("sequence", "fresh"):
            (tmp_path / order).mkdir()
            monkeypatch.chdir(tmp_path / order)  # --out paths are the same
            runs[order] = []
            for k, argv in enumerate(calls):
                if order == "fresh":
                    cli._parser.cache_clear()
                code = _call(argv, f"call{k}")
                runs[order].append((code, capsys.readouterr()))
        assert [code for code, _ in runs["sequence"]] == codes
        assert runs["sequence"] == runs["fresh"]
        files = {order: sorted(p.relative_to(tmp_path / order)
                               for p in (tmp_path / order).rglob("*.*"))
                 for order in runs}
        assert files["sequence"] == files["fresh"]
        for rel in files["fresh"]:
            assert ((tmp_path / "sequence" / rel).read_bytes()
                    == (tmp_path / "fresh" / rel).read_bytes()), rel
        assert cli._parser.cache_info().currsize == 1

    def test_project_writes_one_point_per_call(self, tmp_path):
        for k, point in enumerate((("1", "2"), ("3", "4"))):
            out = tmp_path / str(k)
            assert run_cli("project", "--point", *point, "--out", str(out)) == 0
            assert json.loads((out / "project.json").read_text())[
                "config"]["points"] == [[float(v) for v in point]]
            assert len((out / "sphere.csv").read_text().splitlines()) == 2

    def test_plain_encircle_after_circle_uses_default_loop(self, tmp_path):
        assert run_cli("encircle", "--circle", "0.4541", "1.0", "0.05",
                       "--steps", "64", "--out", str(tmp_path / "a")) == 0
        assert run_cli("encircle", "--steps", "64",
                       "--out", str(tmp_path / "b")) == 0
        loop = json.loads((tmp_path / "b" / "encircle.json").read_text())[
            "config"]["loop"]
        assert loop == {"kind": "rect", "window": [0.40, 0.68, 0.95, 1.05]}

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestStrictJson:
    """Every command's JSON artifact parses without NaN/Infinity tokens."""

    def run(self, tmp_path, *argv):
        out = tmp_path / argv[0]
        assert run_cli(*argv, "--out", str(out)) == 0
        (artifact,) = out.glob("*.json")
        return json.loads(artifact.read_text(), parse_constant=_reject_constant)

    def test_all_commands(self, tmp_path):
        sweep = tmp_path / "sweep"
        assert run_cli("toy-sweep", "--points", "201", "--out", str(sweep)) == 0
        runs = [
            ("find-eps",),
            ("encircle", "--steps", "64"),
            ("beta-scan", "--points", "201", "--tolerance", "1e-2"),
            ("ingest-classify", "--input", str(sweep / "toy_sweep.csv")),
            ("oracle", "--grid", "32x16"),
            ("surface", "--grid", "32x16"),
            ("project", "--point", "2.9036", "0.5372", "--point", "inf", "inf"),
        ]
        for argv in runs:
            payload = self.run(tmp_path, *argv)
            assert payload["config"]["command"] == argv[0]
        assert payload["config"]["points"] == [[2.9036, 0.5372], [None, None]]
        json.loads((sweep / "toy_sweep_report.json").read_text(),
                   parse_constant=_reject_constant)

    def test_surface_with_missing_cells(self, tmp_path):
        # alpha < 0 fails to sample, so the first row of nodes is missing
        manifest = self.run(tmp_path, "surface", "--window", "-0.001", "0.8",
                            "0.9", "1.0", "--grid", "128x16")
        assert manifest["missing"] == [[0, j] for j in range(16)]
        assert sorted(manifest) == ["axis1", "axis2", "config", "cut_edges",
                                    "delta_mode", "missing"]
        rows = (tmp_path / "surface" / "surface.csv").read_text().splitlines()
        assert rows[1].split(",")[2:4] == ["nan"] * 2


INGEST = ("--input", "sweep.csv")
# every command and mode; each run is fed its own artifact config back
ROUND_TRIPS = [
    ("toy-sweep", "--preset", "class2", "--beta", "0.5", "--points", "201"),
    ("find-eps", "--g-c", "0.051"),
    ("find-eps", "--window", "0.3", "0.8", "0.9", "1.1", "--grid", "16x16"),
    ("surface", "--grid", "32x16", "--delta-mode", "raw"),
    ("encircle", "--steps", "64"),
    ("encircle", "--preset", "double-ep", "--circle", "0.4541", "1.0", "0.05",
     "--steps", "64"),
    ("beta-scan", "--points", "201", "--tolerance", "1e-2"),
    ("project", "--point", "2.9036", "0.5372", "--point", "1e200", "-0.0"),
    ("project", "--point", "inf", "-0.0"),  # written as [null, -0.0]
    ("project", "--input", "plane.csv"),
    ("ingest-classify", *INGEST, "--modes", "2", "1", "--meta", "n_in=2.74"),
    ("oracle", "--grid", "16x16"),
    ("oracle", "--kind", "single-point", "--z0", "2.7", "0.6", "--order", "3",
     "--grid", "16x16", "--window", "2.5", "3.0", "0.45", "0.7"),
    ("oracle", "--mode", "encircle", *ORACLE_LOOP),
    ("oracle", "--mode", "encircle", "--kind", "single-point", "--z0",
     "2.6257", "0.6001", "--rect", "2.6", "2.65", "0.58", "0.62",
     "--steps", "64"),
]


def _no_run(cfg):
    raise AssertionError("ran before checking the config")


class TestConfigContract:
    """Each config key has one checker; a run reads only its own keys."""

    @pytest.fixture(autouse=True)
    def inputs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("toy-sweep", "--points", "201", "--out", "sweep") == 0
        (tmp_path / "sweep.csv").write_bytes(
            (tmp_path / "sweep" / "toy_sweep.csv").read_bytes())
        write_lines(tmp_path / "plane.csv", ["n,chi", "2.6257,0.6001", "inf,1"])

    @pytest.mark.parametrize("argv", ROUND_TRIPS, ids=" ".join)
    def test_artifact_config_reproduces_every_artifact(self, tmp_path, argv):
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        (artifact,) = [name for name in first if name.endswith(".json")]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(json.loads(first[artifact])["config"]))
        required = INGEST if argv[0] == "ingest-classify" else ()
        for p in out.iterdir():
            p.unlink()
        assert run_cli(argv[0], *required, "--config", str(config),
                       "--out", str(out)) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    @pytest.mark.parametrize("command, config, message", [
        (("encircle",), {"step": 64}, "encircle does not read config key 'step'"),
        (("toy-sweep",), {"points": 801.9},
         "points must be an integer >= 3, got 801.9"),
        (("surface",), {"points": 801.9},
         "surface does not read config key 'points'"),
        (("toy-sweep",), {"points": True},
         "points must be an integer >= 3, got True"),
        (("toy-sweep",), {"points": -1}, "points must be an integer >= 3, got -1"),
        (("beta-scan",), {"points": 2}, "points must be an integer >= 3, got 2"),
        (("beta-scan",), {"points": "801"},
         "points must be an integer >= 3, got '801'"),
        (("toy-sweep",), {"alpha_range": [0.2]},
         "alpha_range must be a pair of numbers, got [0.2]"),
        (("beta-scan",), {"beta_window": [0.7, "0.85"]},
         "beta_window must be a pair of numbers, got [0.7, '0.85']"),
        (("find-eps",), {"alpha_bracket": 0.3},
         "alpha_bracket must be a pair of numbers, got 0.3"),
        (("surface",), {"grid": 256}, "grid must look like 256x64, got 256"),
        (("find-eps",), {"window": [0.3, 0.8, 0.9, 1.1], "grid": "48"},
         "grid must look like 256x64, got '48'"),
        (("surface",), {"window": [0.3, 0.8, 0.9]},
         "window must be four numbers [p1lo, p1hi, p2lo, p2hi], "
         "got [0.3, 0.8, 0.9]"),
        (("find-eps",), {"window": []},
         "window must be four numbers [p1lo, p1hi, p2lo, p2hi], got []"),
        (("surface",), {"window": None},
         "window must be four numbers [p1lo, p1hi, p2lo, p2hi], got None"),
        (("surface",), {"delta_mode": "half"},
         "delta_mode must be one of raw, delta, got 'half'"),
        (("toy-sweep",), {"preset": "nosuch"},
         "preset must be one of " + ", ".join(sorted(PRESETS))
         + ", got 'nosuch'"),
        (("project",), {"preset": "class2"},
         "project does not read config key 'preset'"),
        (("toy-sweep",), {"params": 5}, "params must be an object with keys "
         "among g_c, beta, gamma1, gamma2, lambda_mode, got 5"),
        (("toy-sweep",), {"params": {"gc": 0.05}}, "params must be an object "
         "with keys among g_c, beta, gamma1, gamma2, lambda_mode, got "
         "{'g_c': 0.043, 'beta': 0.76, 'gamma1': 1.05, 'gamma2': 1.07, "
         "'gc': 0.05}"),
        (("oracle",), {"z1": [2.6]}, "z1 must be a pair of numbers, got [2.6]"),
        (("oracle", "--kind", "single-point"), {"order": 2.0},
         "order must be an integer, got 2.0"),
        (("project",), {"input": 5}, "input must be a string, got 5"),
        (("ingest-classify", *INGEST), {"modes": ["1"]},
         "modes must be two mode names, got ['1']"),
        (("ingest-classify", *INGEST), {"modes": [1, 2]},
         "modes must be two mode names, got [1, 2]"),
        (("ingest-classify", *INGEST), {"metadata": [1]},
         "metadata must be an object, got [1]"),
        (("encircle",), [64], "--config must hold a JSON object, got [64]"),
    ])
    def test_rejects_before_any_work(self, tmp_path, capsys, monkeypatch,
                                     command, config, message):
        monkeypatch.setitem(cli._RUNNERS, command[0], _no_run)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli(*command, "--config", str(path), "--out", "out") == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"command": command[0], "type": "ValueError",
                       "message": message}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, points", [("toy-sweep", "-1"),
                                                 ("beta-scan", "-5"),
                                                 ("toy-sweep", "2")])
    def test_points_flag_below_three_fails_naming_the_key(
            self, tmp_path, capsys, monkeypatch, command, points):
        monkeypatch.setitem(cli._RUNNERS, command, _no_run)
        assert run_cli(command, "--points", points, "--out", "out") == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"command": command, "type": "ValueError",
                       "message": f"points must be an integer >= 3, got {points}"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (("--modes", "1", "x"), "unknown mode 'x'; the dataset has modes 1, 2"),
        (("--config", "modes.json"),
         "unknown mode 'x'; the dataset has modes 1, 2"),
    ])
    def test_ingest_names_an_unknown_mode(self, tmp_path, capsys, argv,
                                          message):
        (tmp_path / "modes.json").write_text(json.dumps({"modes": ["x", "1"]}))
        assert run_cli("ingest-classify", *INGEST, *argv, "--out", "out") == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["message"]) == ("ValueError", message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("window", [[2.5, math.inf, 0.45, 0.7],
                                        [0.3, 0.8, -math.inf, 1.1]])
    def test_find_eps_rejects_an_infinite_window(self, tmp_path, capsys,
                                                 window):
        (tmp_path / "config.json").write_text(json.dumps({"window": window}))
        assert run_cli("find-eps", "--config", "config.json",
                       "--out", "out") == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValueError"
        assert "must span a finite, nonzero width" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, argv, params, preset", [
        ({"preset": "class2"}, (), PRESETS["class2"]["params"], "class2"),
        ({"preset": "class2", "params": {"beta": 0.5}}, (),
         {**PRESETS["class2"]["params"], "beta": 0.5}, "class2"),
        ({"preset": "class2", "params": {"beta": 0.5}},
         ("--preset", "class1", "--g-c", "0.05"),
         {**PRESETS["class1"]["params"], "g_c": 0.05}, "class1"),
    ], ids=["preset", "params-over-preset", "flags-over-file"])
    def test_file_preset_is_the_base_of_its_params(self, tmp_path, config,
                                                   argv, params, preset):
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert run_cli("toy-sweep", "--config", "config.json", *argv,
                       "--points", "201", "--out", "out") == 0
        payload = json.loads((tmp_path / "out" /
                              "toy_sweep_report.json").read_text())
        assert payload["config"]["params"] == params
        assert payload["config"]["preset"] == preset
        if params == PRESETS["class2"]["params"]:
            assert payload["report"]["label"] == "WB"

    def test_metadata_booleans_stay_json_booleans(self, tmp_path):
        (tmp_path / "config.json").write_text(json.dumps(
            {"metadata": {"flag": True, "off": False, "count": 2}}))
        assert run_cli("ingest-classify", *INGEST, "--config", "config.json",
                       "--out", "out") == 0
        text = (tmp_path / "out" / "ingest_classify.json").read_text()
        assert json.loads(text)["metadata"] == {"flag": True, "off": False,
                                                "count": 2}
        assert '"flag": true' in text and '"count": 2' in text
        io_mod.write_json(tmp_path / "np.json",
                          {"a": np.bool_(True), "b": np.array([True, False])})
        assert json.loads((tmp_path / "np.json").read_text()) == {
            "a": True, "b": [True, False]}


def readme_config_table():
    """Each key of the README's config table and the commands it names."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## CLI\n")[1]
    table = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            key, read_by, _ = line.strip("|").split(" | ")
            commands = (set(COMMAND_ARGS) if read_by.strip() == "every command"
                        else {item.split("`")[1].split()[0]
                              for item in read_by.split(", ")})
            table.setdefault(key.strip().strip("`"), set()).update(commands)
    return table


def test_readme_config_table_lists_the_contract():
    reads = {key: set() for key in cli._CHECKS}
    for command, required in COMMAND_ARGS.items():
        args = vars(build_parser().parse_args([command, *required]))
        modes = cli._MODE_DEFAULTS.get(command, {}).values()
        for key in {*cli._DEFAULTS[command], *(k for m in modes for k in m),
                    *(k for k in cli._CHECKS if k in args)}:
            reads[key].add(command)
    assert readme_config_table() == reads
