"""CLI surface: presets, exit codes, JSON reports, explain mode."""

import copy
import json
import random
import re
import subprocess
import sys

import pytest

from helpers import package_env
from thomstem import pipeline
from thomstem.cli import (EXIT_BAD_SPEC, EXIT_ERROR, EXIT_OK,
                          EXIT_OUT_OF_TABLE, EXIT_UNKNOWN, main)
from thomstem.pipeline import MAX_TOTAL_B1, SpecError, parse_scenario


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

    def test_explain_out_of_table_is_exit_four_as_run(self, capsys):
        run = run_cli(capsys, "paper-sec3", "--target", "0")
        explain = run_cli(capsys, "explain", "paper-sec3", "--target", "0")
        assert explain[0] == run[0] == EXIT_OUT_OF_TABLE
        assert explain[1] == ""
        assert explain[2] == run[2] == \
            "thomstem: stable stem 8 is outside the table (0..7)\n"

    @pytest.mark.parametrize("name", ["paper-sec3", "paper-sec4",
                                      "paper-sec5"])
    def test_explain_fails_as_run_over_targets(self, name):
        def outcome(call, spec):
            try:
                call(spec)
            except Exception as exc:
                return type(exc), str(exc)
            return None

        for target in range(-2, 12):
            spec = pipeline.preset(name, det=3, det1=3, det2=5) \
                .with_overrides(target=target)
            assert outcome(pipeline.explain_text, spec) == \
                outcome(pipeline.run_scenario, spec), target

    @pytest.mark.parametrize("patch, message", [
        ({"suspensions": 1, "class_assignment": [
            {"cell": {"base": [], "fiber": "point"}, "element": "zero"}]},
         "spec.class_assignment[0].cell: *{}+1 is the basepoint"),
        ({"pipeline": "sphere_quotient", "suspensions": 3,
          "class_assignment": [{"cell": {"base": [], "fiber": "sphere_zero"},
                                "element": "zero"}]},
         "spec.class_assignment[0].cell: S0{}+3 is the basepoint"),
        ({"suspensions": 2, "class_assignment": [
            {"cell": {"base": [1, 2]}, "element": "eta_sq"}]},
         "spec.class_assignment[0].element: eta_sq lives in stem 2, but "
         "H{1,2}+2 sits in stem 1 of S^7"),
        ({"suspensions": 1, "skeletal_cut": 100},
         "spec.skeletal_cut: collapses every cell"),
        ({"suspensions": 1, "target_shift": 1, "class_assignment": [
            {"cell": "top", "element": "eta"},
            {"cell": {"base": [1, 2, 3, 4]}, "element": "zero"}]},
         "spec.class_assignment[1].cell: H{1,2,3,4}+1 is already picked by "
         "spec.class_assignment[0]"),
    ], ids=["basepoint-thom", "basepoint-sphere", "stem-mismatch",
            "cut-everything", "picked-twice"])
    def test_explain_fails_as_run_on_suspended_specs(self, patch, message):
        # explain finds the cell in the cut complex and lifts it, so the
        # error names the suspended cell as run's does
        spec = parse_scenario({**_MALFORMED_BASE, **patch})
        for call in (pipeline.run_scenario, pipeline.explain_text):
            with pytest.raises(SpecError) as caught:
                call(spec)
            assert str(caught.value).startswith(message), call.__name__

    @pytest.mark.parametrize("command", [(), ("explain",)])
    def test_stem_mismatch_from_target_names_target(self, capsys, command):
        # S^2 puts the top cell of paper-sec3 in stem 6, inside the table
        code, _, err = run_cli(capsys, *command, "paper-sec3", "--target", "2")
        assert code == EXIT_BAD_SPEC
        assert "class_assignment[0].element" in err
        assert "stem 6 of S^2 (set by --target)" in err
        assert "target_shift" not in err

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
        code, _, err = run_cli(capsys, "paper-sec3", "--det", "0")
        assert code == EXIT_BAD_SPEC
        assert err.startswith("thomstem: malformed scenario: --det: ")

    @pytest.mark.parametrize("argv, pointer", [
        (("paper-sec4", "--suspend", "-1"), "--suspend"),
        (("paper-sec5", "--suspend", "-3"), "--suspend"),
        (("paper-sec4", "--det1", "0", "--det2", "5"), "--det1"),
        (("paper-sec5", "--det1", "3", "--det2", "0"), "--det2"),
    ], ids=["sec4-suspend", "sec5-suspend", "sec4-det1", "sec5-det2"])
    @pytest.mark.parametrize("command", [(), ("explain",)],
                             ids=["run", "explain"])
    def test_bad_flag_names_itself(self, capsys, tmp_path, command, argv,
                                   pointer):
        out_path = tmp_path / "report.json"
        code, out, err = run_cli(capsys, *command, *argv,
                                 "--out", str(out_path))
        assert code == EXIT_BAD_SPEC
        assert err.startswith(f"thomstem: malformed scenario: {pointer}: ")
        assert out == "" and not out_path.exists()

    def test_unread_determinant_flag_is_not_checked(self, capsys):
        # paper-sec3 reads --det only
        code, _, _ = run_cli(capsys, "paper-sec3", "--det1", "0")
        assert code == EXIT_OK

    @pytest.mark.parametrize("command", [(), ("explain",)],
                             ids=["run", "explain"])
    def test_unwritable_out_is_exit_two(self, capsys, tmp_path, command):
        out_path = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, *command, "paper-sec3",
                                 "--out", str(out_path))
        assert code == EXIT_BAD_SPEC
        assert err.startswith("thomstem: malformed scenario: --out: "
                              f"cannot write {out_path}: ")
        assert out == "" and not out_path.exists()

    @pytest.mark.parametrize("command", [(), ("explain",)],
                             ids=["run", "explain"])
    def test_non_utf8_spec_names_the_flag(self, capsys, tmp_path, command):
        spec = tmp_path / "bad.json"
        for content in (
                b"\xff\xfe{",
                # nested past every interpreter's recursion limit, so
                # json.load raises RecursionError
                b"[" * 100_000 + b"]" * 100_000,
                # an integer over the int-to-str digit limit: ValueError
                b"1" * 5000):
            spec.write_bytes(content)
            code, out, err = run_cli(capsys, *command, "run", "--spec",
                                     str(spec))
            assert code == EXIT_BAD_SPEC
            assert err.startswith("thomstem: malformed scenario: --spec: ")
            assert out == ""

    def test_missing_spec_file_is_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, "run", "--spec", "/nonexistent.json")
        assert code == EXIT_BAD_SPEC

    def test_run_without_spec_names_the_flag(self, capsys):
        code, out, err = run_cli(capsys, "run")
        assert (code, out) == (EXIT_BAD_SPEC, "")
        assert err == ("thomstem: malformed scenario: --spec: the 'run' "
                       "scenario needs --spec FILE\n")

    @pytest.mark.parametrize("document, message", [
        ([1, 2], "spec: scenario must be a JSON object"),
        ({"schema": "thomstem-scenario/1", "manifolds": [3]},
         "spec.manifolds[0]: must be an object"),
        ({"schema": "thomstem-scenario/1", "manifolds": [{"label": "x"}]},
         "spec.manifolds[0]: needs 'determinant' or an explicit 'b1' block"),
    ], ids=["not-an-object", "manifold-not-an-object", "manifold-no-b1"])
    def test_malformed_document_is_exit_two(self, capsys, tmp_path,
                                            document, message):
        spec = tmp_path / "malformed.json"
        spec.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, "run", "--spec", str(spec))
        assert (code, out) == (EXIT_BAD_SPEC, "")
        assert err == f"thomstem: malformed scenario: {message}\n"


_MALFORMED_BASE = {
    "schema": "thomstem-scenario/1",
    "name": "malformed",
    "pipeline": "thom",
    "manifolds": [{"determinant": 3}],
    "class_assignment": [{"cell": "top", "element": "zero"}],
}


# integers with one digit more than int() reads from text by default
_TOO_LONG = "7" * (sys.get_int_max_str_digits() + 1)
_OVER_LONG_INTEGERS = [
    ({"manifolds": [{"b1": 4, "quad_form": [f"[1,2,3,4] = {_TOO_LONG}"]}]},
     "spec.manifolds[0].quad_form[0]"),
    ({"class_assignment": [{"cell": "top", "element": f"one({_TOO_LONG})"}]},
     "spec.class_assignment[0].element"),
]


def _resolve_time(index, patch, pointer):
    """A row whose pointer is raised after parsing, at the `spec.` root.
    Its id names the field below that root, so the test id stays stable
    whatever the root is."""
    return pytest.param(patch, "spec." + pointer,
                        id=f"patch{index}-{pointer}")


class TestInputContract:
    """Malformed input exits 2 with a pointer that names the field."""

    @pytest.mark.parametrize("patch, pointer", [
        # the five contract repros of the benchmark's small_sweep
        ({"suspensions": True}, "spec.suspensions"),
        _resolve_time(1, {"skeletal_cut": 5, "class_assignment": [
            {"cell": {"base": [1]}, "element": "zero"}]},
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
        _resolve_time(9, {"class_assignment": [
            {"cell": {"base": [9]}, "element": "zero"}]},
            "class_assignment[0].cell"),
        ({"class_assignment": [{"cell": {"base": [1, 1]}, "element": "zero"}]},
         "spec.class_assignment[0].cell.base"),
        # a fiber part the thom pipeline does not build
        _resolve_time(11, {"class_assignment": [
            {"cell": {"base": [1], "fiber": "sphere_two"}, "element": "zero"}]},
            "class_assignment[0].cell"),
        ({"manifolds": [{"b1": 4, "quad_form": ["[2,1,3,4] = 1"]}]},
         "spec.manifolds[0].quad_form[0]"),
        ({"manifolds": [{"b1": 4, "b_plus": 1.5}]},
         "spec.manifolds[0].b_plus"),
        # non-list containers and non-string names
        ({"class_assignment": 5}, "spec.class_assignment"),
        ({"class_assignment": None}, "spec.class_assignment"),
        ({"manifolds": [{"b1": 4, "quad_form": 5}]},
         "spec.manifolds[0].quad_form"),
        ({"manifolds": [{"b1": 4, "quad_form": None}]},
         "spec.manifolds[0].quad_form"),
        ({"name": 5}, "spec.name"),
        ({"manifolds": [{"b1": 4, "label": ["A"]}]},
         "spec.manifolds[0].label"),
        # signatures must sum to 0; the first nonzero one is named
        ({"manifolds": [{"b1": 4, "signature": 16}]},
         "spec.manifolds[0].signature"),
        ({"manifolds": [{"determinant": 3}, {"b1": 0, "signature": 4},
                        {"b1": 0, "signature": 8}]},
         "spec.manifolds[1].signature"),
        # class assignments the final complex cannot carry
        _resolve_time(22, {"class_assignment": [
            {"cell": "top", "element": "eta_sq"}]},
            "class_assignment[0].element"),
        _resolve_time(23, {"class_assignment": [
            {"cell": {"base": [], "fiber": "point"}, "element": "zero"}]},
            "class_assignment[0].cell"),
        _resolve_time(24, {"skeletal_cut": 100}, "skeletal_cut"),
        # the size limit, checked before anything is built
        ({"manifolds": [{"determinant": 3}, {"b1": 9}]}, "spec.manifolds"),
        ({"manifolds": [{"b1": 40}]}, "spec.manifolds"),
        # a fiber that is not one of the four fiber-part names
        ({"class_assignment": [{"cell": {"base": [1], "fiber": "H"},
                                "element": "zero"}]},
         "spec.class_assignment[0].cell.fiber"),
        ({"class_assignment": [{"cell": {"base": [1], "fiber": ["thom"]},
                                "element": "zero"}]},
         "spec.class_assignment[0].cell.fiber"),
        # a JSON object has no row index to point at
        ({"manifolds": [{"b1": 4, "quad_form": {"[1,2,3,4]": 5}}]},
         "spec.manifolds[0].quad_form"),
        # a generator index past the size limit, rejected before the cell
        # lookup builds a mask of 2**index
        ({"class_assignment": [{"cell": {"base": [13]}, "element": "zero"}]},
         "spec.class_assignment[0].cell.base[0]"),
        ({"class_assignment": [{"cell": {"base": [1, 10 ** 12]},
                                "element": "zero"}]},
         "spec.class_assignment[0].cell.base[1]"),
        *_OVER_LONG_INTEGERS,
    ])
    def test_exit_two_names_the_field(self, capsys, tmp_path, patch, pointer):
        spec = tmp_path / "malformed.json"
        spec.write_text(json.dumps({**_MALFORMED_BASE, **patch}))
        code, out, err = run_cli(capsys, "run", "--spec", str(spec))
        assert code == EXIT_BAD_SPEC
        assert out == ""
        assert err.startswith(f"thomstem: malformed scenario: {pointer}: ")


    def test_explain_rejects_what_run_rejects(self, capsys, tmp_path):
        spec = tmp_path / "stem.json"
        spec.write_text(json.dumps({**_MALFORMED_BASE, "class_assignment": [
            {"cell": "top", "element": "eta_sq"}]}))
        pointer = "thomstem: malformed scenario: " \
            "spec.class_assignment[0].element: "
        for argv in (("run",), ("explain", "run")):
            code, out, err = run_cli(capsys, *argv, "--spec", str(spec))
            assert (code, out) == (EXIT_BAD_SPEC, "")
            assert err.startswith(pointer)

    @pytest.mark.parametrize("rows", [
        [{"cell": "top", "element": "eta"},
         {"cell": {"base": [1, 2, 3, 4]}, "element": "zero"}],
        [{"cell": {"base": [1, 2, 3, 4]}, "element": "zero"},
         {"cell": "top", "element": "eta"}],
    ], ids=["top-first", "base-first"])
    def test_a_cell_picked_twice_is_exit_two(self, capsys, tmp_path, rows):
        # either row order would otherwise keep only the last row's class
        spec = tmp_path / "twice.json"
        spec.write_text(json.dumps({**_MALFORMED_BASE,
                                    "class_assignment": rows}))
        pointer = "thomstem: malformed scenario: " \
            "spec.class_assignment[1].cell: H{1,2,3,4} is already picked " \
            "by spec.class_assignment[0]\n"
        for argv in (("run",), ("explain", "run")):
            code, out, err = run_cli(capsys, *argv, "--spec", str(spec))
            assert (code, out, err) == (EXIT_BAD_SPEC, "", pointer)

    @pytest.mark.parametrize("manifolds, message", [
        # b+ adds under a connected sum, so -1 once passed as a b+ of 2
        ([{"determinant": 3}, {"b1": 2, "b_plus": -1}],
         "spec.manifolds[1].b_plus: must be a nonnegative integer"),
        # the last row once won
        ([{"b1": 4, "quad_form": ["[1,2,3,4] = 1", "[1,2,3,4] = 2"]}],
         "spec.manifolds[0].quad_form[1]: repeats the subset of "
         "spec.manifolds[0].quad_form[0]"),
        ([{"determinant": 3}, {"b1": 5, "quad_form": [
            "[1,2,3,4] = 1", "[2,3,4,5] = 1", "[1,2,3,4] = 1"]}],
         "spec.manifolds[1].quad_form[2]: repeats the subset of "
         "spec.manifolds[1].quad_form[0]"),
    ], ids=["negative-b-plus", "repeated-subset", "repeated-equal-row"])
    def test_run_and_explain_reject_the_manifold(self, capsys, tmp_path,
                                                 manifolds, message):
        spec = tmp_path / "manifold.json"
        spec.write_text(json.dumps({**_MALFORMED_BASE,
                                    "manifolds": manifolds}))
        for argv in (("run",), ("explain", "run")):
            code, out, err = run_cli(capsys, *argv, "--spec", str(spec))
            assert (code, out, err) == (
                EXIT_BAD_SPEC, "", f"thomstem: malformed scenario: {message}\n")

    _SCENARIO_KEYS = ("schema, name, pipeline, manifolds, suspensions, "
                      "skeletal_cut, target_shift, class_assignment")
    _BLOCK_KEYS = "b1, quad_form, signature, b_plus, label"

    @pytest.mark.parametrize("patch, message", [
        # the misspelled block key once left the block with an empty form,
        # and the run exited 0 with verdict trivial
        ({"manifolds": [{"determinant": 3, "b1": 6},
                        {"b1": 2, "quadform": ["[1,2,3,4] = 1"]}]},
         "spec.manifolds[0].b1: unknown key; the allowed keys are "
         "determinant"),
        ({"manifolds": [{"determinant": 3},
                        {"b1": 2, "quadform": ["[1,2,3,4] = 1"]}]},
         f"spec.manifolds[1].quadform: unknown key; the allowed keys are "
         f"{_BLOCK_KEYS}"),
        ({"suspension": 1},
         f"spec.suspension: unknown key; the allowed keys are "
         f"{_SCENARIO_KEYS}"),
        ({"class_assignment": [{"cell": "top", "element": "zero",
                                "elements": "eta"}]},
         "spec.class_assignment[0].elements: unknown key; the allowed keys "
         "are cell, element"),
        ({"class_assignment": [{"cell": {"base": [1], "fibre": "point"},
                                "element": "zero"}]},
         "spec.class_assignment[0].cell.fibre: unknown key; the allowed "
         "keys are base, fiber"),
    ], ids=["torus-b1", "block-quadform", "suspension", "row", "selector"])
    def test_run_and_explain_reject_an_unknown_key(self, capsys, tmp_path,
                                                   patch, message):
        spec = tmp_path / "typo.json"
        spec.write_text(json.dumps({**_MALFORMED_BASE, **patch}))
        for argv in (("run",), ("explain", "run")):
            code, out, err = run_cli(capsys, *argv, "--spec", str(spec))
            assert (code, out, err) == (
                EXIT_BAD_SPEC, "", f"thomstem: malformed scenario: {message}\n")

    def test_zero_b_plus_and_distinct_subsets_stay_valid(self, capsys,
                                                         tmp_path):
        spec = tmp_path / "valid.json"
        spec.write_text(json.dumps({**_MALFORMED_BASE, "manifolds": [
            {"determinant": 3}, {"b1": 5, "b_plus": 0, "quad_form": [
                "[1,2,3,4] = 1", "[2,3,4,5] = 2"]}]}))
        code, out, _ = run_cli(capsys, "run", "--spec", str(spec))
        assert code == EXIT_OK
        assert json.loads(out)["manifold"]["b_plus"] == 3

    def test_opposite_signatures_stay_valid(self, capsys, tmp_path):
        spec = tmp_path / "pair.json"
        spec.write_text(json.dumps({**_MALFORMED_BASE, "manifolds": [
            {"determinant": 3}, {"b1": 0, "signature": 4},
            {"b1": 0, "signature": -4}]}))
        code, out, _ = run_cli(capsys, "run", "--spec", str(spec))
        assert code == EXIT_OK
        assert json.loads(out)["manifold"]["signature"] == 0


class TestSizeLimit:
    """Only parsed, never built: a complex this large takes seconds."""

    @staticmethod
    def _spec(*b1s):
        return {**_MALFORMED_BASE,
                "manifolds": [{"b1": b} for b in b1s]}

    def test_limit_is_inclusive(self):
        spec = parse_scenario(self._spec(MAX_TOTAL_B1))
        assert spec.manifolds[0]["b1"] == MAX_TOTAL_B1

    @pytest.mark.parametrize("b1s", [(13,), (40,), (6, 7)])
    def test_total_above_limit_rejected(self, b1s):
        with pytest.raises(SpecError) as err:
            parse_scenario(self._spec(*b1s))
        assert err.value.pointer == "spec.manifolds"
        assert f"total b1 = {sum(b1s)}" in str(err.value)

    def test_homology_torus_counts_four(self):
        raw = {**_MALFORMED_BASE, "manifolds": [
            {"determinant": 3}, {"determinant": 5}, {"b1": 5}]}
        with pytest.raises(SpecError) as err:
            parse_scenario(raw)
        assert "total b1 = 13" in str(err.value)


class TestPresetSpecs:
    """Presets are scenario documents checked by `parse_scenario`."""

    def test_unknown_preset(self):
        with pytest.raises(SpecError) as err:
            pipeline.preset("paper-sec9")
        assert err.value.pointer == "scenario"

    def test_zero_determinant_names_the_field(self):
        with pytest.raises(SpecError) as err:
            pipeline.preset("paper-sec3", det=0)
        assert err.value.pointer == "spec.manifolds[0].determinant"

    @pytest.mark.parametrize("patch, pointer", _OVER_LONG_INTEGERS)
    def test_over_long_integer_names_the_field(self, patch, pointer):
        with pytest.raises(SpecError) as err:
            parse_scenario({**_MALFORMED_BASE, **patch})
        assert err.value.pointer == pointer

    def test_manifold_entries_are_read_only(self):
        spec = pipeline.preset("paper-sec4", det1=3, det2=5)
        with pytest.raises(TypeError):
            spec.manifolds[1]["determinant"] = 4
        block = parse_scenario({**_MALFORMED_BASE, "manifolds": [
            {"b1": 4, "quad_form": ["[1,2,3,4] = 3"]}]})
        with pytest.raises(TypeError):
            block.manifolds[0]["b1"] = 5
        with pytest.raises(TypeError):
            block.manifolds[0]["quad_form"][(1, 2, 3, 4)] = 4

    def test_equal_specs_hash_equal(self):
        a = pipeline.preset("paper-sec4", det1=3, det2=5)
        b = pipeline.preset("paper-sec4", det1=3, det2=5)
        assert a == b and hash(a) == hash(b)
        assert a != pipeline.preset("paper-sec4", det1=3, det2=7)
        assert len({a, b, pipeline.preset("paper-sec5", det1=3, det2=5)}) == 2


# A second valid spec for the fuzz test: an explicit b1 block and a base
# selector, so that the manifold and selector fields get mutated too.
_EXPLICIT_BASE = {
    "schema": "thomstem-scenario/1",
    "name": "explicit",
    "pipeline": "thom",
    "manifolds": [{"b1": 5, "quad_form": ["[1,2,3,4] = 3"], "signature": 0,
                   "b_plus": 3, "label": "B"}],
    "suspensions": 1,
    "skeletal_cut": 5,
    "target_shift": 0,
    "class_assignment": [{"cell": {"base": [1, 2, 3, 4], "fiber": "thom"},
                          "element": "eta_sq"}],
}


def _field_paths(spec):
    """Every top-level, manifold and selector field, as key paths."""
    for key in spec:
        yield (key,)
    for i, manifold in enumerate(spec["manifolds"]):
        for key in manifold:
            yield ("manifolds", i, key)
    for i, row in enumerate(spec["class_assignment"]):
        for key in row:
            yield ("class_assignment", i, key)
        if isinstance(row["cell"], dict):
            for key in row["cell"]:
                yield ("class_assignment", i, "cell", key)


def _pointer(path):
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                   for p in path)[1:]


def _names_field(err, field):
    """The pointer is the field, an ancestor of it, or a part of it; or,
    when the mutation clashes with another field and the pointer names
    that one, the message names the mutated field's top-level key."""
    pointer, _, message = err.partition(": ")
    if pointer.startswith("spec."):
        pointer = pointer[len("spec."):]

    def below(a, b):
        return a.startswith((b + ".", b + "["))
    if pointer == field or below(field, pointer) or below(pointer, field):
        return True
    return re.search(rf"\b{re.split(r'[.[]', field)[0]}\b", message) is not None


def test_mutation_fuzz_never_exits_one(capsys, tmp_path):
    rng = random.Random(20261017)
    prefix = "thomstem: malformed scenario: "
    bad = []
    runs = 0
    for base in (_MALFORMED_BASE, _EXPLICIT_BASE):
        for path in _field_paths(base):
            mutants = [rng.randint(0, 9), rng.randint(-9, -1),
                       rng.choice(["", "x", "12", "top"]), None,
                       rng.choice([True, False]),
                       rng.choice([[], [1], ["a", None]]),
                       rng.choice([{}, {"x": 1}, {"base": []}]),
                       rng.choice([0.5, -2.0, 3.0])]
            for value in mutants:
                spec = copy.deepcopy(base)
                target = spec
                for key in path[:-1]:
                    target = target[key]
                target[path[-1]] = value
                spec_file = tmp_path / "mutant.json"
                spec_file.write_text(json.dumps(spec))
                code, _, err = run_cli(capsys, "run", "--spec", str(spec_file))
                runs += 1
                field = _pointer(path)
                case = f"{field} = {value!r}: exit {code}: {err.strip()}"
                if code == EXIT_ERROR:
                    bad.append(case)
                elif code == EXIT_BAD_SPEC and not (
                        err.startswith(prefix)
                        and _names_field(err[len(prefix):], field)):
                    bad.append(case)
    assert runs >= 200
    assert not bad, "\n".join(bad)


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

    def test_trivial_bundle_over_a_torus(self, capsys, tmp_path):
        spec = tmp_path / "torus.json"
        spec.write_text(json.dumps({"schema": "thomstem-scenario/1",
                                    "manifolds": [{"b1": 2}]}))
        code, out, _ = run_cli(capsys, "explain", "run", "--spec", str(spec))
        assert code == EXIT_OK
        assert "\ntrivial bundle (c2 = 0)\n" in out

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

    def test_unknown_verdict_prints_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "paper-sec4", "--det1", "2",
                               "--det2", "4", "--text")
        assert code == EXIT_UNKNOWN
        assert re.search(r"^assembled: bounds \S.* \.\. \S", out, re.M)
        assert "verdict: unknown" in out

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
        capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "nontrivial"
