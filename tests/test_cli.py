"""CLI surface: presets, exit codes, JSON reports, explain mode."""

import json
import subprocess
import sys

import pytest

from thomstem.cli import (EXIT_BAD_SPEC, EXIT_OK, EXIT_OUT_OF_TABLE,
                          EXIT_UNKNOWN, main)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPresets:
    def test_sec3(self, capsys):
        code, out, _ = run_cli(capsys, "paper-sec3", "--det", "5")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["assembly"]["assembled"] == "Z^4 + Z/2"
        assert report["verdict"] == "nontrivial"
        assert report["scenario"]["target"] == 7

    def test_sec4(self, capsys):
        code, out, _ = run_cli(capsys, "paper-sec4", "--det1", "3",
                               "--det2", "5")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["verdict"] == "trivial"
        cert = "\n".join(report["certificate"])
        assert "Sq^4" in cert and "d4" in cert

    def test_sec5(self, capsys):
        code, out, _ = run_cli(capsys, "paper-sec5", "--det1", "3",
                               "--det2", "5")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["verdict"] == "nontrivial"
        assert report["assembly"]["blocks"]["sphere_two"] == "Z^28 + (Z/2)^9"

    def test_reports_quote_the_conventions(self, capsys):
        _, out, _ = run_cli(capsys, "paper-sec3", "--det", "1")
        report = json.loads(out)
        assert "sign convention" in report["conventions"]["sign"]
        assert "basepoint policy" in report["conventions"]["basepoint"]


class TestExitCodes:
    def test_unknown_verdict_is_exit_three(self, capsys):
        code, _, _ = run_cli(capsys, "paper-sec4", "--det1", "2", "--det2", "4")
        assert code == EXIT_UNKNOWN

    def test_out_of_table_is_exit_four(self, capsys):
        code, _, err = run_cli(capsys, "paper-sec3", "--target", "0")
        assert code == EXIT_OUT_OF_TABLE
        assert "stem" in err

    def test_bad_spec_is_exit_two(self, capsys, tmp_path):
        spec = tmp_path / "broken.json"
        spec.write_text(json.dumps({
            "schema": "thomstem-scenario/1",
            "manifolds": [{"b1": 4, "quad_form": ["[1,2,3] = 1"]}],
        }))
        code, _, err = run_cli(capsys, "run", "--spec", str(spec))
        assert code == EXIT_BAD_SPEC
        assert "manifolds[0].quad_form[0]" in err

    def test_zero_determinant_is_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, "paper-sec3", "--det", "0")
        assert code == EXIT_BAD_SPEC

    def test_missing_spec_file_is_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, "run", "--spec", "/nonexistent.json")
        assert code == EXIT_BAD_SPEC


_MALFORMED_BASE = {
    "schema": "thomstem-scenario/1",
    "name": "malformed",
    "pipeline": "thom",
    "manifolds": [{"determinant": 3}],
    "class_assignment": [{"cell": "top", "element": "zero"}],
}


class TestInputContract:
    """Malformed input exits 2 with a pointer that names the field."""

    @pytest.mark.parametrize("patch, pointer", [
        # the five contract repros of the benchmark's small_sweep
        ({"suspensions": True}, "spec.suspensions"),
        ({"skeletal_cut": 5,
          "class_assignment": [{"cell": {"base": [1]}, "element": "zero"}]},
         "class_assignment[0].cell"),
        ({"manifolds": [{"b1": 4, "signature": "0"}]},
         "spec.manifolds[0].signature"),
        ({"manifolds": [{"b1": 4, "quad_form": ["[1,2,3,5] = 1"]}]},
         "spec.manifolds[0].quad_form[0]"),
        ({"class_assignment": [{"cell": {"base": ["a"]}, "element": "zero"}]},
         "spec.class_assignment[0].cell.base[0]"),
        # bools are not integers
        ({"target_shift": True}, "spec.target_shift"),
        ({"skeletal_cut": False}, "spec.skeletal_cut"),
        ({"manifolds": [{"determinant": True}]},
         "spec.manifolds[0].determinant"),
        ({"manifolds": [{"b1": True}]}, "spec.manifolds[0].b1"),
        # more selector and quad-form shapes
        ({"class_assignment": [{"cell": {"base": [9]}, "element": "zero"}]},
         "class_assignment[0].cell"),
        ({"class_assignment": [{"cell": {"base": [1, 1]}, "element": "zero"}]},
         "spec.class_assignment[0].cell.base"),
        ({"class_assignment": [{"cell": {"base": [1], "fiber": "H"},
                                "element": "zero"}]},
         "class_assignment[0].cell"),
        ({"manifolds": [{"b1": 4, "quad_form": ["[2,1,3,4] = 1"]}]},
         "spec.manifolds[0].quad_form[0]"),
        ({"manifolds": [{"b1": 4, "b_plus": 1.5}]},
         "spec.manifolds[0].b_plus"),
    ])
    def test_exit_two_names_the_field(self, capsys, tmp_path, patch, pointer):
        spec = tmp_path / "malformed.json"
        spec.write_text(json.dumps({**_MALFORMED_BASE, **patch}))
        code, out, err = run_cli(capsys, "run", "--spec", str(spec))
        assert code == EXIT_BAD_SPEC
        assert out == ""
        assert err.startswith(f"thomstem: malformed scenario: {pointer}: ")


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("paper-sec3", "--det", "5"),
        ("paper-sec4", "--det1", "3", "--det2", "5"),
        ("paper-sec5", "--det1", "3", "--det2", "5"),
    ])
    def test_byte_identical_reports(self, capsys, argv):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_out_path_matches_stdout(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        run_cli(capsys, "paper-sec3", "--det", "3", "--out", str(out_path))
        _, stdout, _ = run_cli(capsys, "paper-sec3", "--det", "3")
        assert out_path.read_text() == stdout


class TestExplain:
    def test_sec3_lists_cell_counts(self, capsys):
        code, out, _ = run_cli(capsys, "explain", "paper-sec3", "--det", "5")
        assert code == EXIT_OK
        assert "4:1, 5:4, 6:6, 7:4, 8:1" in out

    def test_sec4_lists_top_nu_labels(self, capsys):
        _, out, _ = run_cli(capsys, "explain", "paper-sec4",
                            "--det1", "3", "--det2", "5")
        assert "nu_odd: H{1,2,3,4,5,6,7,8} (dim 12) -> H{1,2,3,4} (dim 8)" in out
        assert "nu_odd: H{1,2,3,4,5,6,7,8} (dim 12) -> H{5,6,7,8} (dim 8)" in out

    def test_empty_custom_manifold(self, capsys, tmp_path):
        spec = tmp_path / "empty.json"
        spec.write_text(json.dumps({
            "schema": "thomstem-scenario/1",
            "name": "empty",
            "pipeline": "thom",
            "manifolds": [{"b1": 0}],
        }))
        code, out, _ = run_cli(capsys, "explain", "run", "--spec", str(spec))
        assert code == EXIT_OK
        assert "trivial bundle, sphere model" in out

    def test_explain_is_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "explain", "paper-sec4",
                              "--det1", "3", "--det2", "5")
        _, second, _ = run_cli(capsys, "explain", "paper-sec4",
                               "--det1", "3", "--det2", "5")
        assert first == second


class TestTextOutput:
    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "paper-sec3", "--det", "5", "--text")
        assert code == EXIT_OK
        assert "verdict: nontrivial" in out
        assert "Z^4 + Z/2" in out

    def test_color_env(self, capsys, monkeypatch):
        monkeypatch.setenv("THOMSTEM_COLOR", "1")
        _, colored, _ = run_cli(capsys, "paper-sec3", "--det", "5", "--text")
        assert "\x1b[" in colored
        monkeypatch.setenv("THOMSTEM_COLOR", "0")
        _, plain, _ = run_cli(capsys, "paper-sec3", "--det", "5", "--text")
        assert "\x1b[" not in plain


class TestCustomScenario:
    def test_custom_quad_form_runs(self, capsys, tmp_path):
        spec = tmp_path / "custom.json"
        spec.write_text(json.dumps({
            "schema": "thomstem-scenario/1",
            "name": "custom-sum",
            "pipeline": "thom",
            "manifolds": [
                {"b1": 4, "quad_form": ["[1,2,3,4] = 3"], "signature": 0,
                 "b_plus": 3, "label": "A"},
                {"determinant": 5},
            ],
            "suspensions": 1,
            "class_assignment": [{"cell": "top", "element": "nu_multiple(12)"}],
        }))
        code, out, _ = run_cli(capsys, "run", "--spec", str(spec))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["verdict"] == "trivial"

    def test_explicit_cell_selector(self, capsys, tmp_path):
        spec = tmp_path / "sel.json"
        spec.write_text(json.dumps({
            "schema": "thomstem-scenario/1",
            "name": "selector",
            "pipeline": "thom",
            "manifolds": [{"determinant": 5}],
            "skeletal_cut": 5,
            "class_assignment": [
                {"cell": {"base": [1, 2, 3, 4], "fiber": "thom"},
                 "element": "eta"}],
        }))
        code, out, _ = run_cli(capsys, "run", "--spec", str(spec))
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "nontrivial"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "thomstem.cli", "paper-sec3", "--det", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "nontrivial"
