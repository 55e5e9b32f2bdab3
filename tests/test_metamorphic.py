"""Metamorphic checks.

The labels read the quadruple form only through the Steenrod detections,
so scenarios whose forms agree modulo the detections' modulus give the
same complex, assembly and verdict, byte for byte.

{Sigma X, S^(N+1)} = {X, S^N} column by column, so one more suspension
with one more target shift moves no column: the verdict, the assembled
group or its bounds and each column's stem, status and reduced index stay
as they are. This pins the skeletal cut's shift by the suspensions. The
specs are every golden case and a seeded sample of the benchmark
catalogue, imported read-only from `perfbench/` as `tests/test_catalogue.py`
does.
"""

import json
import pathlib
import random
import sys
from dataclasses import replace
from itertools import combinations

import pytest

from test_golden import CASES
from thomstem import pipeline

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "perfbench"))
from workloads import catalogue  # noqa: E402

# The detections read c1 and c2 only mod 2 (Sq^2, Sq^4). A P^1 row, which
# reads c2 mod 3, changes this to 6.
DETECTION_MODULUS = 2

# report sections that may depend on the form only through its residues
SECTIONS = ("complex", "assembly", "class_assignment", "verdict",
            "certificate")

# stem of the top cell -> elements to assign there
ELEMENTS = {1: ("eta", "zero"), 2: ("eta_sq", "zero"),
            3: ("nu_multiple(12)", "nu_multiple(1)", "zero")}


def _scenario(b1, pipe, suspensions, stem, element, quad):
    """One manifold with the form `quad`; the target puts the top cell
    at `stem` (the default target is 7 + target_shift)."""
    top = b1 + suspensions + (4 if pipe == pipeline.PIPELINE_THOM else 2)
    return pipeline.parse_scenario({
        "schema": pipeline.SCHEMA_SCENARIO, "pipeline": pipe,
        "manifolds": [{"b1": b1, "quad_form": [
            f"[{','.join(map(str, subset))}] = {value}"
            for subset, value in quad.items()]}],
        "suspensions": suspensions, "target_shift": top - stem - 7,
        "class_assignment": [{"cell": "top", "element": element}]})


def _sections(spec):
    report = json.loads(pipeline.report_json(pipeline.run_scenario(spec)))
    return {key: json.dumps(report[key], indent=2, sort_keys=True)
            for key in SECTIONS}


def test_forms_equal_mod_the_detections_give_equal_sections():
    rng = random.Random(20261019)
    verdicts = set()
    for _ in range(60):
        b1 = rng.randint(4, 7)
        pipe = rng.choice((pipeline.PIPELINE_THOM, pipeline.PIPELINE_SPHERE))
        suspensions = rng.randint(0, 2)
        stem = rng.randint(1, 3)
        element = rng.choice(ELEMENTS[stem])
        one, other = {}, {}
        for subset in combinations(range(1, b1 + 1), 4):
            one[subset] = rng.choice((0, rng.randint(-5, 5)))
            other[subset] = one[subset] + DETECTION_MODULUS * rng.choice(
                (-2, -1, 1, 2))
        case = (b1, pipe, suspensions, stem, element)
        sections = _sections(_scenario(*case, one))
        assert _sections(_scenario(*case, other)) == sections, (case, one,
                                                                other)
        verdicts.add(json.loads(sections["verdict"]))
        if pipe == pipeline.PIPELINE_THOM:
            # control: one value off by one moves w4, and with it the
            # detected labels of the Thom complex
            flipped = dict(one)
            flipped[(1, 2, 3, 4)] += 1
            assert _sections(_scenario(*case, flipped))["complex"] != \
                sections["complex"], (case, one)
    assert verdicts == {"trivial", "nontrivial", "unknown"}


def _columns(spec):
    """What one more suspension with one more target shift must keep."""
    result = pipeline.run_scenario(spec)
    report = result.report
    return {
        "verdict": result.verdict,
        "assembled": report.assembled,
        "bounds": report.bounds,
        "columns": [(entry.stem_q, entry.status, entry.reduced_index)
                    for entry in report.entries],
    }


def _shifted(spec):
    return replace(spec, suspensions=spec.suspensions + 1,
                   target_shift=spec.target_shift + 1)


def _catalogue_sample(n=40, seed=20261020):
    runs = {json.dumps(item.raw, sort_keys=True): item.raw
            for item in catalogue() if item.expect == "report"}
    keys = sorted(runs)
    return [runs[key] for key in random.Random(seed).sample(keys, n)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_golden_case_keeps_its_columns_one_suspension_up(name):
    spec = CASES[name]
    assert _columns(_shifted(spec)) == _columns(spec)


def test_catalogue_specs_keep_their_columns_one_suspension_up():
    specs = [pipeline.parse_scenario(raw) for raw in _catalogue_sample()]
    assert {spec.pipeline for spec in specs} == {
        pipeline.PIPELINE_THOM, pipeline.PIPELINE_SPHERE}
    assert any(spec.skeletal_cut is not None for spec in specs)
    for spec in specs:
        assert _columns(_shifted(spec)) == _columns(spec), spec.name
