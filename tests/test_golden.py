"""Byte-exact golden reports and explain texts.

Every case is rendered through the public pipeline and compared with the
file checked in under tests/golden/: `<case>.json` holds the
`thomstem-report/1` bytes and `<case>.explain.txt` the `explain` bytes.
The thom b1 = 9 scaling rung is pinned by sha256 digest instead of a
file. Regenerate (after a deliberate change) with

    PYTHONPATH=src python tests/test_golden.py --regen
"""

import copy
import hashlib
import json
import os
import pickle
import subprocess
import sys

import pytest

from helpers import package_env
from thomstem import pipeline, thom

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
DIGESTS_PATH = os.path.join(GOLDEN_DIR, "digests.json")

SCHEMA = "thomstem-scenario/1"

SUM3 = [{"determinant": 3}, {"b1": 1, "b_plus": 0, "label": "C"},
        {"b1": 2, "b_plus": 1, "label": "D"}]
BLOCK = [{"b1": 4, "quad_form": ["[1,2,3,4] = 1"], "b_plus": 2, "label": "A"},
         {"b1": 2, "b_plus": 1, "label": "D"}]


def _custom(name, manifolds, pipeline_name, assignment, **extra):
    return {"schema": SCHEMA, "name": name, "pipeline": pipeline_name,
            "manifolds": manifolds,
            "class_assignment": [{"cell": cell, "element": element}
                                 for cell, element in assignment], **extra}


CUSTOM = {
    "sum3_thom": _custom("sum3-thom", SUM3, "thom",
                         [("top", "eta")], suspensions=1, target_shift=3),
    "sum3_sphere": _custom("sum3-sphere", SUM3, "sphere_quotient",
                           [("top", "zero")], suspensions=2),
    "selector_cut_shift_thom": _custom(
        "selector-thom", BLOCK, "thom",
        [("top", "zero"), ({"base": [1, 2, 3], "fiber": "thom"}, "one(1)")],
        skeletal_cut=5, target_shift=1, suspensions=1),
    "selector_cut_shift_sphere": _custom(
        "selector-sphere", BLOCK, "sphere_quotient",
        [("top", "zero"), ({"base": [1, 2, 3], "fiber": "sphere_two"},
                           "eta")],
        skeletal_cut=3, target_shift=-1, suspensions=2),
}

# the thom b1 = 9 scaling rung: a det-3 torus summed with a b1 = 5 block
THOM_B1_9 = _custom(
    "thom-b1-9",
    [{"determinant": 3},
     {"b1": 5, "quad_form": ["[1,2,3,4] = 5"], "label": "B"}],
    "thom", [({"base": [1, 2, 3, 4, 5, 6], "fiber": "thom"}, "eta")],
    suspensions=1)


def cases():
    """case name -> resolved ScenarioSpec, files checked in for each."""
    out = {}
    for det in range(-7, 8):
        if det:
            out[f"sec3_det{det}"] = pipeline.preset("paper-sec3", det=det)
    out["sec4_3_5"] = pipeline.preset("paper-sec4", det1=3, det2=5)
    out["sec4_2_4"] = pipeline.preset("paper-sec4", det1=2, det2=4)
    out["sec5_3_5"] = pipeline.preset("paper-sec5", det1=3, det2=5)
    for name, raw in CUSTOM.items():
        out[name] = pipeline.parse_scenario(raw)
    return out


def render(spec):
    """(report bytes, explain bytes) of one spec."""
    report = pipeline.report_json(pipeline.run_scenario(spec))
    return report.encode(), pipeline.explain_text(spec).encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(name):
    with open(os.path.join(GOLDEN_DIR, name), "rb") as handle:
        return handle.read()


CASES = cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    report, explain = render(CASES[name])
    assert report == _read(f"{name}.json"), f"{name}: report bytes differ"
    assert explain == _read(f"{name}.explain.txt"), \
        f"{name}: explain bytes differ"


SUSPENDED = ("sec4_3_5", "sec5_3_5", "selector_cut_shift_thom",
             "selector_cut_shift_sphere")


def _count_made(monkeypatch):
    """Count every StableCell and StableCellComplex made from here on:
    returns the {"cells": n, "complexes": n} dict the counts go to. A cell
    is made one at a time by `StableCell.__new__`, or in bulk by
    `thom._fiber_cells`, which the builders call and which makes its
    cells without `__new__`."""
    made = {"cells": 0, "complexes": 0}
    cell_new = thom.StableCell.__new__
    fiber_cells = thom._fiber_cells
    complex_derive = thom.StableCellComplex._derive

    def count_cell(cls, *args, **kwargs):
        made["cells"] += 1
        return cell_new(cls, *args, **kwargs)

    def count_fiber_cells(*args):
        cells = fiber_cells(*args)
        made["cells"] += len(cells)
        return cells

    def count_complex(self, *args):     # every complex is made here
        made["complexes"] += 1
        return complex_derive(self, *args)

    monkeypatch.setattr(thom.StableCell, "__new__", staticmethod(count_cell))
    monkeypatch.setattr(thom, "_fiber_cells", count_fiber_cells)
    monkeypatch.setattr(thom.StableCellComplex, "_derive", count_complex)
    return made


def _stage_complexes(spec):
    """cells -> labels, and -> cut when the spec cuts: the complexes one
    pass of the stage chain makes."""
    return 2 + (spec.skeletal_cut is not None)


@pytest.mark.parametrize("name", SUSPENDED)
def test_explain_never_suspends(name, monkeypatch):
    # explain builds the stage chain's complexes and no suspended one:
    # its cells are those of the unsuspended build, plus one lifted cell
    # per class assignment row
    spec = CASES[name]
    assert spec.suspensions
    built = pipeline._stages(spec, 0)[2]
    made = _count_made(monkeypatch)
    assert pipeline.explain_text(spec).encode() == \
        _read(f"{name}.explain.txt")
    assert made == {"cells": len(built.cells) + len(spec.class_assignment),
                    "complexes": _stage_complexes(spec)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_makes_each_cell_once(name, monkeypatch):
    # a run makes each cell once, at its final dimension, and no complex
    # beyond the stage chain's
    spec = CASES[name]
    cells = len(pipeline._stages(spec, 0)[2].cells)
    made = _count_made(monkeypatch)
    result = pipeline.run_scenario(spec)
    assert made == {"cells": cells, "complexes": _stage_complexes(spec)}
    assert {cell.suspension for cell in result.final_complex.cells} == \
        {spec.suspensions}


@pytest.mark.parametrize("name", sorted(CASES))
def test_assigned_cells_are_cells_of_the_final_complex(name):
    result = pipeline.run_scenario(CASES[name])
    assert result.assignment
    assert set(result.assignment) <= set(result.final_complex.cells)
    for cell in result.assignment:
        assert cell.suspension == CASES[name].suspensions


COPIERS = {"deepcopy": copy.deepcopy,
           "pickle": lambda value: pickle.loads(pickle.dumps(value))}


@pytest.mark.parametrize("copier", sorted(COPIERS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_run_values_copy_and_pickle(name, copier):
    # the spec, manifold, final complex, group report and run result each
    # copy to an equal value that renders the same report bytes
    result = pipeline.run_scenario(CASES[name])
    golden = _read(f"{name}.json")
    for field in ("spec", "manifold", "final_complex", "report", None):
        value = result if field is None else getattr(result, field)
        copied = COPIERS[copier](value)
        assert copied is not value
        assert copied == value
        rerun = copied if field is None else \
            result._replace(**{field: copied})
        assert pipeline.report_json(rerun).encode() == golden


_DUMP = """
import pickle, sys
from thomstem import pipeline
spec = pipeline.preset("paper-sec4", det1=3, det2=5)
sys.stdout.buffer.write(pickle.dumps(pipeline.run_scenario(spec)))
"""

_LOAD = """
import pickle, sys
from thomstem import pipeline
from thomstem.thom import FIBER_THOM, StableCell
result = pickle.loads(sys.stdin.buffer.read())
top = StableCell(0xff, FIBER_THOM, 4, 1)       # made fresh in this process
assert result.final_complex.find_cell(range(1, 9), FIBER_THOM) == top
assert top in set(result.final_complex.cells)
assert result.report.entry_for(top).cell == top
assert top in result.assignment
sys.stdout.write(pipeline.report_json(result))
"""


def test_run_result_loads_under_another_hash_seed():
    # str hashes differ between the two processes, so a cell that kept its
    # old hash would miss every dict and set lookup made with a fresh one
    dumped = subprocess.run([sys.executable, "-c", _DUMP], check=True,
                            capture_output=True,
                            env=package_env(PYTHONHASHSEED="1")).stdout
    loaded = subprocess.run([sys.executable, "-c", _LOAD], input=dumped,
                            check=True, capture_output=True,
                            env=package_env(PYTHONHASHSEED="2")).stdout
    assert loaded == _read("sec4_3_5.json")


def test_thom_b1_9_digest():
    with open(DIGESTS_PATH, "r", encoding="utf-8") as handle:
        want = json.load(handle)["thom_b1_9"]
    report, explain = render(pipeline.parse_scenario(THOM_B1_9))
    assert sha256(report) == want["report"]
    assert sha256(explain) == want["explain"]


def regenerate():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, spec in sorted(CASES.items()):
        report, explain = render(spec)
        for suffix, data in ((".json", report), (".explain.txt", explain)):
            with open(os.path.join(GOLDEN_DIR, name + suffix), "wb") as handle:
                handle.write(data)
    report, explain = render(pipeline.parse_scenario(THOM_B1_9))
    digests = {"thom_b1_9": {"report": sha256(report),
                             "explain": sha256(explain)}}
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regen")
    regenerate()
