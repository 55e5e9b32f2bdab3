"""Acceptance suite: one test per criterion, exact tolerances, one
pass/fail line each (run with -s to see the lines).

Criterion summary:
  1  sec3 reproduces Z^4 + Z/2 and the nontrivial eta verdict, d odd 1..21
  2  sec4 index character == brute-force oracle on a signed/even grid
  3  sec4 vanishing: two nu_odd labels, d4 kill, trivial verdict; even
     determinants degrade labels to unknown (both even -> unknown verdict)
  4  sec5 binomial block, flagged extra cell, nontrivial eta^2 verdict
  5  property suites (integrality, counts, oracle, suspension)
  6  byte-identical reports
"""

import json
import random
import time
from itertools import combinations

from helpers import (as_tuple_terms, direct_sum_oracle, expand_labels,
                     oracle_chern_character, suspend)
from thomstem import pipeline, stems
from thomstem.ahss import (KILLED, UNKNOWN, VERDICT_NONTRIVIAL,
                           VERDICT_TRIVIAL, VERDICT_UNKNOWN, assemble,
                           evaluate_class)
from thomstem.chern import (ManifoldData, chern_character_index,
                            connected_sum, index_bundle, make_homology_torus)
from thomstem.stems import AbelianGroup
from thomstem.thom import (NU_ODD, TRIVIAL, infer_attachments,
                           sphere_bundle_quotient, thom_cells)

GRID = [-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]


def _report(line):
    print(line)


def test_criterion_1_sec3_reproduction():
    want = AbelianGroup(4, (2,))
    for d in range(1, 22, 2):
        start = time.perf_counter()
        result = pipeline.run_scenario(pipeline.preset("paper-sec3", det=d))
        elapsed = time.perf_counter() - start
        assert result.report.assembled == want, d
        assert result.verdict == VERDICT_NONTRIVIAL, d
        assert elapsed < 1.0, f"det {d} took {elapsed:.3f}s"
    _report("ACCEPTANCE 1 PASS: sec3 assembles Z^4 + Z/2 with nontrivial "
            "eta verdict for every odd determinant 1..21, each under 1 s")


def test_criterion_2_sec4_index_character():
    checked = 0
    for r1 in GRID:
        for r2 in GRID:
            m = connected_sum(make_homology_torus(r1), make_homology_torus(r2))
            ch = chern_character_index(m)
            oracle = oracle_chern_character(m)
            assert ch[0].is_zero and as_tuple_terms(ch[0]) == oracle[0]
            assert ch[1].is_zero and as_tuple_terms(ch[1]) == oracle[2]
            assert as_tuple_terms(ch[2]) == oracle[4]
            assert as_tuple_terms(ch[2]) == {(1, 2, 3, 4): r1,
                                             (5, 6, 7, 8): r2}
            checked += 1
    _report(f"ACCEPTANCE 2 PASS: sec4 index character matches the brute-force "
            f"bigraded oracle exactly on {checked} determinant pairs "
            "(negatives and evens included)")


def _sec4_top_labels(r1, r2):
    m = connected_sum(make_homology_torus(r1), make_homology_torus(r2))
    complex_ = infer_attachments(thom_cells(index_bundle(m)))
    labels = {}
    for (upper, lower), label in expand_labels(complex_).items():
        if upper.dim == 12 and lower.dim == 8 and \
                lower.base_indices in ((1, 2, 3, 4), (5, 6, 7, 8)):
            labels[lower.base_indices] = label.value
    return complex_, labels


def test_criterion_3_sec4_vanishing():
    # both determinants odd: exactly two nu_odd labels out of the top cell,
    # the d4 kills the 13-cell's Z/24, and the eta^3 class dies
    for r1, r2 in [(3, 5), (1, 1), (7, 3), (-3, 5)]:
        complex_, labels = _sec4_top_labels(r1, r2)
        assert labels == {(1, 2, 3, 4): NU_ODD, (5, 6, 7, 8): NU_ODD}
        all_top_nu = [1 for (u, l), lab in expand_labels(complex_).items()
                      if lab.value == NU_ODD and u.dim == 12 and l.dim == 8]
        assert len(all_top_nu) == 2
        suspended = suspend(complex_, 1)
        report = assemble(suspended, 10)
        top = report.entry_for(suspended.top_cell)
        assert top.group == AbelianGroup(torsion=(24,))
        assert top.status == KILLED and top.killer.startswith("d4")
        verdict = evaluate_class(report,
                                 {suspended.top_cell: stems.nu_multiple(12)})
        assert verdict == VERDICT_TRIVIAL

    # an even determinant makes its Sq^4 contribution vanish and the
    # corresponding label degrades to unknown, never to trivial
    for r1, r2, degraded in [(3, 2, (1, 2, 3, 4)), (2, 5, (5, 6, 7, 8))]:
        _, labels = _sec4_top_labels(r1, r2)
        assert labels[degraded] == UNKNOWN
        assert UNKNOWN != TRIVIAL

    # with both determinants even no detection remains and the verdict is
    # unknown, not trivial-by-default
    complex_, labels = _sec4_top_labels(2, 4)
    assert set(labels.values()) == {UNKNOWN}
    suspended = suspend(complex_, 1)
    report = assemble(suspended, 10)
    verdict = evaluate_class(report,
                             {suspended.top_cell: stems.nu_multiple(12)})
    assert verdict == VERDICT_UNKNOWN
    _report("ACCEPTANCE 3 PASS: sec4 odd determinants give exactly two "
            "nu_odd labels, a d4 kill of the 13-cell Z/24 and a trivial "
            "verdict; even determinants degrade labels to unknown and the "
            "all-even verdict is unknown")


def test_criterion_4_sec5_nontriviality():
    start = time.perf_counter()
    result = pipeline.run_scenario(pipeline.preset("paper-sec5",
                                                   det1=3, det2=5))
    elapsed = time.perf_counter() - start
    blocks = result.report.blocks()
    # binom(8,0) Z/2 + binom(8,1) Z/2 + binom(8,2) Z columns
    assert blocks["sphere_two"] == AbelianGroup(28, (2,) * 9)
    extra = [note for note in result.report.notes
             if "extra base-block cell" in note and "S0{1,2,3,4,5,6,7,8}" in note]
    assert extra, "the |S|=8 sphere_zero 10-cell must be flagged in notes"
    assert result.verdict == VERDICT_NONTRIVIAL
    assert elapsed < 1.0, f"sec5 took {elapsed:.3f}s"
    _report(f"ACCEPTANCE 4 PASS: sec5 fiber-2 block is Z/2 + (Z/2)^8 + Z^28, "
            f"the extra 10-cell is flagged, eta^2 is nontrivial "
            f"({elapsed * 1000:.0f} ms)")


def test_criterion_5_property_suites():
    # the oracle's exp(Omega) divides by factorials; its integrality
    # assertion never fires across the grid
    for r1 in GRID:
        for r2 in GRID:
            oracle_chern_character(connected_sum(make_homology_torus(r1),
                                                 make_homology_torus(r2)))

    # cell counts equal binomials by subset enumeration, b <= 10
    for b in range(0, 11):
        quad = {(1, 2, 3, 4): 1} if b >= 4 else {}
        m = ManifoldData(b1=b, quad_form=quad, signature=0, b_plus=3)
        by_dim = thom_cells(index_bundle(m)).cells_by_dim()
        for d in range(4, b + 5):
            want = sum(1 for _ in combinations(range(b), d - 4))
            assert by_dim.get(d, 0) == want

    # all-trivial-label assembly equals the direct-sum oracle, 100 randoms
    from test_ahss import _point_bundle, synthetic_cell
    from thomstem.thom import AttachLabel, LabelRules, StableCellComplex
    rng = random.Random(55)
    for _ in range(100):
        cells = [synthetic_cell(tag, rng.randint(tag.bit_count(),
                                                 tag.bit_count() + 6))
                 for tag in range(rng.randint(1, 12))]
        labels = {(u, l): AttachLabel(TRIVIAL, "synthetic")
                  for u in cells for l in cells if 1 <= u.dim - l.dim <= 4}
        complex_ = StableCellComplex(tuple(cells), _point_bundle(), "thom",
                                     LabelRules({}, labels))
        target = rng.randint(max(c.dim for c in cells) - 7,
                             max(c.dim for c in cells) + 3)
        assert assemble(complex_, target).assembled == \
            direct_sum_oracle(complex_, target)

    # labels are suspension-invariant on every preset complex
    presets = [
        thom_cells(index_bundle(make_homology_torus(5))),
        thom_cells(index_bundle(connected_sum(make_homology_torus(3),
                                              make_homology_torus(5)))),
        sphere_bundle_quotient(index_bundle(connected_sum(
            make_homology_torus(3), make_homology_torus(5)))),
    ]
    for built in presets:
        for k in (1, 2):
            assert suspend(infer_attachments(built), k).attachments == \
                infer_attachments(suspend(built, k)).attachments

    _report("ACCEPTANCE 5 PASS: exact integrality across the grid, "
            "binomial cell counts to rank 10, 100 direct-sum oracle matches, "
            "suspension-invariant labels")


def test_criterion_6_determinism():
    specs = [
        pipeline.preset("paper-sec3", det=5),
        pipeline.preset("paper-sec4", det1=3, det2=5),
        pipeline.preset("paper-sec5", det1=3, det2=5),
    ]
    for spec in specs:
        first = pipeline.report_json(pipeline.run_scenario(spec))
        second = pipeline.report_json(pipeline.run_scenario(spec))
        assert first.encode() == second.encode(), spec.name
        json.loads(first)  # stays valid JSON
    _report("ACCEPTANCE 6 PASS: repeated preset runs produce byte-identical "
            "JSON reports")
