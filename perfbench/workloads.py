"""Seeded inputs for the thomstem benchmark and the answers they must give.

A workload is a list of `Item`s. Each item holds a scenario in the
`thomstem-scenario/1` JSON form (so every item goes through
`parse_scenario`) and the outcome it must have:

- ``report``: a run whose report bytes hash to the digest frozen in
  `expected.json` (paper families are also held to hand-written answers,
  see `measure.hand_check`);
- ``explain``: an `explain_text` whose bytes hash to a frozen digest;
- ``spec_error``: a `SpecError` whose pointer names `field`;
- ``out_of_table``: an `OutOfTableError`.

The seed only chooses among fixed catalogues, so every item any seed can
draw has its digest in `expected.json` (see `freeze.py`). Draws take a
fixed number of items from each stratum, so every seed asks for the same
amount of work. This module does not import thomstem, so that the timed
set-up includes the import.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

SCHEMA = "thomstem-scenario/1"
THOM, SPHERE = "thom", "sphere_quotient"
MAX_STEM = 7  # the stem table covers stems 0..7

WORKLOADS = ("small_sweep", "large_ladder", "explain")


@dataclass(frozen=True)
class Item:
    name: str            # unique within a draw
    mode: str            # "run" or "explain"
    raw: dict            # scenario JSON, as a user would write it
    expect: str          # "report", "explain", "spec_error" or "out_of_table"
    field: Optional[str] = None   # the field a SpecError must name
    known_defect: bool = False    # a repro of an open contract violation

    @property
    def key(self) -> str:
        """Digest key: the mode plus the canonical scenario JSON."""
        text = self.mode + json.dumps(self.raw, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @property
    def valid(self) -> bool:
        return self.expect in ("report", "explain")


def scenario(name, manifolds, pipeline=THOM, suspensions=0, cut=None,
             shift=0, assignment=()) -> dict:
    return {
        "schema": SCHEMA,
        "name": name,
        "pipeline": pipeline,
        "manifolds": manifolds,
        "suspensions": suspensions,
        "skeletal_cut": cut,
        "target_shift": shift,
        "class_assignment": [{"cell": cell, "element": element}
                             for cell, element in assignment],
    }


# -- paper families ------------------------------------------------------

def sec3(det: int) -> dict:
    return scenario("paper-sec3", [{"determinant": det}], cut=5,
                    assignment=[("top", "eta")])


def sec4(det1: int, det2: int) -> dict:
    return scenario("paper-sec4", [{"determinant": det1}, {"determinant": det2}],
                    suspensions=1, assignment=[("top", "nu_multiple(12)")])


def sec5(det1: int, det2: int) -> dict:
    return scenario("paper-sec5", [{"determinant": det1}, {"determinant": det2}],
                    pipeline=SPHERE, suspensions=2,
                    assignment=[("top", "eta_sq")])


# -- small_sweep ---------------------------------------------------------

SEC3_DETS = tuple(d for d in range(-7, 8) if d)

# A small pool of manifolds with b1 = 4..6, so many drawn items share
# their bundle and their complex.
POOL = (
    ("b4", [{"b1": 4, "quad_form": ["[1,2,3,4] = 1"], "label": "A"}]),
    ("b4even", [{"b1": 4, "quad_form": ["[1,2,3,4] = 2"], "b_plus": 1,
                 "label": "E"}]),
    ("b5", [{"b1": 5, "quad_form": ["[1,2,3,4] = 1", "[2,3,4,5] = 3"],
             "label": "F"}]),
    ("b6", [{"b1": 6, "quad_form": ["[1,2,3,4] = 1", "[3,4,5,6] = 1",
                                    "[1,2,5,6] = 2"], "label": "G"}]),
    ("t#b1", [{"determinant": -5}, {"b1": 1, "b_plus": 0, "label": "C"}]),
    ("t#b2", [{"determinant": 3}, {"b1": 2, "b_plus": 1, "label": "D"}]),
    ("b4#b1", [{"b1": 4, "quad_form": ["[1,2,3,4] = 3"], "b_plus": 2,
                "label": "H"}, {"b1": 1, "b_plus": 1, "label": "C"}]),
    ("b3#b3", [{"b1": 3, "b_plus": 1, "label": "P"},
               {"b1": 3, "b_plus": 2, "label": "Q"}]),
)
CUTS = (None, 4, 5)


def _totals(manifolds) -> Tuple[int, int]:
    b1 = sum(4 if "determinant" in m else m["b1"] for m in manifolds)
    b_plus = sum(3 if "determinant" in m else m.get("b_plus", 3)
                 for m in manifolds)
    return b1, b_plus


def _element(q: int, variant: int) -> str:
    """A stem element that lives in stem q."""
    if q == 0:
        return ("one(1)", "one(2)")[variant % 2]
    if q == 1:
        return "eta"
    if q == 2:
        return "eta_sq"
    if q == 3:
        return ("nu_multiple(12)", "nu_multiple(1)")[variant % 2]
    return "zero"


def sweep_strata() -> Dict[Tuple[str, str, object], List[dict]]:
    """Valid custom scenarios, grouped by (pool entry, pipeline, cut).

    Within a stratum the cell count is the same, so a draw of a fixed
    number per stratum costs about the same for every seed.
    """
    strata: Dict[Tuple[str, str, object], List[dict]] = {}
    for pid, manifolds in POOL:
        b1, b_plus = _totals(manifolds)
        for pipeline in (THOM, SPHERE):
            offset = 4 if pipeline == THOM else 2
            selector = ({"base": [1, 2], "fiber": "thom"} if pipeline == THOM
                        else {"base": [1, 2, 3], "fiber": "sphere_two"})
            selector_dim = len(selector["base"]) + offset
            for cut in CUTS:
                rows = strata.setdefault((pid, pipeline, cut), [])
                for susp in (0, 1, 2):
                    for shift in (-1, 0, 1):
                        target = 4 + b_plus + shift
                        top_q = b1 + offset + susp - target
                        if top_q > MAX_STEM:
                            continue
                        name = f"{pid}-{pipeline}-s{susp}-c{cut}-t{shift}"
                        top = ("top", _element(top_q, susp))
                        rows.append(scenario(name, manifolds, pipeline, susp,
                                             cut, shift, [top]))
                        if cut is None or selector_dim > cut:
                            q = selector_dim + susp - target
                            rows.append(scenario(
                                name + "-sel", manifolds, pipeline, susp, cut,
                                shift, [top, (selector, _element(q, shift))]))
    return strata


def out_of_table_specs() -> List[dict]:
    """Targets low enough that the top cell's stem is above the table."""
    out = []
    for pid, manifolds in POOL[:3]:
        for shift in (-8, -9):
            out.append(scenario(f"{pid}-oot{shift}", manifolds, shift=shift,
                                assignment=[("top", "zero")]))
    return out


_BAD_BASE = scenario("malformed", [{"determinant": 3}],
                     assignment=[("top", "zero")])

# (label, field the SpecError must name, patch on a valid scenario)
MALFORMED = (
    ("schema", "schema", {"schema": "thomstem-scenario/0"}),
    ("pipeline", "pipeline", {"pipeline": "cw"}),
    ("manifolds-type", "manifolds", {"manifolds": "T4"}),
    ("manifolds-empty", "manifolds", {"manifolds": []}),
    ("determinant-zero", "manifolds[0].determinant",
     {"manifolds": [{"determinant": 0}]}),
    ("b1-negative", "manifolds[0].b1", {"manifolds": [{"b1": -1}]}),
    ("manifold-empty", "manifolds[0]", {"manifolds": [{}]}),
    ("quad-row", "manifolds[0].quad_form[0]",
     {"manifolds": [{"b1": 4, "quad_form": ["1,2,3,4 = 5"]}]}),
    ("suspensions-str", "suspensions", {"suspensions": "1"}),
    ("suspensions-negative", "suspensions", {"suspensions": -1}),
    ("target-shift-float", "target_shift", {"target_shift": 0.5}),
    ("cut-str", "skeletal_cut", {"skeletal_cut": "5"}),
    ("assignment-row", "class_assignment[0]",
     {"class_assignment": [{"cell": "top"}]}),
    ("element", "class_assignment[0].element",
     {"class_assignment": [{"cell": "top", "element": "nu"}]}),
    ("cell", "class_assignment[0].cell",
     {"class_assignment": [{"cell": "bottom", "element": "zero"}]}),
    ("base-type", "class_assignment[0].cell.base",
     {"class_assignment": [{"cell": {"base": "12"}, "element": "zero"}]}),
)

# Repros of the contract violations listed in ROADMAP open item 1. They
# stay in the draw and count as failures until the program is fixed.
KNOWN_DEFECTS = (
    ("suspensions-bool", "suspensions", {"suspensions": True}),
    ("base-collapsed", "class_assignment[0].cell",
     {"skeletal_cut": 5,
      "class_assignment": [{"cell": {"base": [1]}, "element": "zero"}]}),
    ("signature-str", "manifolds[0].signature",
     {"manifolds": [{"b1": 4, "signature": "0"}]}),
    ("quad-index", "manifolds[0].quad_form[0]",
     {"manifolds": [{"b1": 4, "quad_form": ["[1,2,3,5] = 1"]}]}),
    ("base-entry", "class_assignment[0].cell.base",
     {"class_assignment": [{"cell": {"base": ["a"]}, "element": "zero"}]}),
)

SEC3_PER_PASS = 60
OUT_OF_TABLE_PER_PASS = 4


def per_stratum(pid: str, pipeline: str) -> int:
    """Items drawn from a stratum: fewer of the b1 = 6 sphere models, so
    per-scenario fixed costs, not the label map, dominate the sweep."""
    b1, _ = _totals(dict(POOL)[pid])
    return 1 if b1 == 6 and pipeline == SPHERE else 3


def small_sweep(seed: int) -> List[Item]:
    rng = random.Random(f"small_sweep:{seed}")
    items = []
    for i in range(SEC3_PER_PASS):
        items.append(Item(f"sec3#{i}", "run", sec3(rng.choice(SEC3_DETS)),
                          "report"))
    for (pid, pipeline, cut), rows in sorted(sweep_strata().items(),
                                             key=lambda kv: str(kv[0])):
        # one item per suspension count when the quota allows, so that
        # the median item costs the same for every seed
        quota = per_stratum(pid, pipeline)
        suspensions = (0, 1, 2) if quota == 3 else (rng.choice((0, 1, 2)),)
        for i, susp in enumerate(suspensions):
            raw = rng.choice([r for r in rows if r["suspensions"] == susp])
            items.append(Item(f"{raw['name']}#{i}", "run", raw, "report"))
    oot = out_of_table_specs()
    for i in range(OUT_OF_TABLE_PER_PASS):
        raw = rng.choice(oot)
        items.append(Item(f"{raw['name']}#{i}", "run", raw, "out_of_table"))
    for group, defect in ((MALFORMED, False), (KNOWN_DEFECTS, True)):
        for label, field, patch in group:
            items.append(Item(f"malformed-{label}", "run",
                              {**_BAD_BASE, **patch}, "spec_error", field,
                              defect))
    rng.shuffle(items)
    return items


# -- large_ladder and explain ----------------------------------------------

# Odd determinant pairs keep the Sq-detection pattern, and so the work,
# the same for every seed; the even pair gives sec4 its unknown verdict.
ODD_PAIRS = ((3, 5), (1, 3), (5, -7), (-3, 9))
EVEN_PAIRS = ((2, 4), (2, 6), (4, -2), (-6, 8))


def custom_rung(pipeline: str, b1: int, det: int, value: int) -> dict:
    """The ROADMAP's scaling probe: a `det` torus summed with a b1 - 4
    block `[1,2,3,4] = value`, one suspension. The target is S^10, and the
    class sits on the base cell whose column is stem 1."""
    offset = 4 if pipeline == THOM else 2
    base = list(range(1, 11 - offset))      # dim = |base| + offset + 1 = 11
    fiber = "thom" if pipeline == THOM else "sphere_two"
    return scenario(f"{pipeline}-b1-{b1}",
                    [{"determinant": det},
                     {"b1": b1 - 4, "quad_form": [f"[1,2,3,4] = {value}"],
                      "label": "B"}],
                    pipeline=pipeline, suspensions=1,
                    assignment=[({"base": base, "fiber": fiber}, "eta")])


def _rungs(odd: Tuple[int, int], even: Tuple[int, int]) -> List[Tuple[str, dict]]:
    return [
        ("sec4", sec4(*odd)),
        ("sec4_even", sec4(*even)),
        ("sec5", sec5(*odd)),
        ("thom_b1_9", custom_rung(THOM, 9, *odd)),
        ("thom_b1_10", custom_rung(THOM, 10, *odd)),
        ("sphere_b1_9", custom_rung(SPHERE, 9, *odd)),
    ]


EXPLAINED = ("sec4", "sec5", "thom_b1_9", "thom_b1_10")


def ladder_rungs(seed: int) -> List[Tuple[str, dict]]:
    rng = random.Random(f"large_ladder:{seed}")
    return _rungs(rng.choice(ODD_PAIRS), rng.choice(EVEN_PAIRS))


def large_ladder(seed: int) -> List[Item]:
    return [Item(name, "run", raw, "report") for name, raw in ladder_rungs(seed)]


def explain(seed: int) -> List[Item]:
    rungs = dict(ladder_rungs(seed))
    return [Item(name, "explain", rungs[name], "explain") for name in EXPLAINED]


def generate(workload: str, seed: int) -> List[Item]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return {"small_sweep": small_sweep, "large_ladder": large_ladder,
            "explain": explain}[workload](seed)


def catalogue() -> List[Item]:
    """Every valid item any seed can draw, for freezing digests."""
    items = [Item(f"sec3-{d}", "run", sec3(d), "report") for d in SEC3_DETS]
    for rows in sweep_strata().values():
        items.extend(Item(raw["name"], "run", raw, "report") for raw in rows)
    # each rung depends on one pair only, so zipping covers every draw
    for odd, even in zip(ODD_PAIRS, EVEN_PAIRS):
        for name, raw in _rungs(odd, even):
            items.append(Item(name, "run", raw, "report"))
            if name in EXPLAINED:
                items.append(Item(name, "explain", raw, "explain"))
    return items
