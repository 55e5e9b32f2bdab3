"""Metamorphic check: the labels read the quadruple form only through the
Steenrod detections, so scenarios whose forms agree modulo the detections'
modulus give the same complex, assembly and verdict, byte for byte."""

import json
import random
from itertools import combinations

from thomstem import pipeline

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
