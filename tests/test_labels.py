"""Rule-based attachment labels against the dense all-pairs oracle."""

import random
from collections import Counter
from itertools import combinations

import pytest

from helpers import (basepoint_cell, bit_loop_str, canonical_pairs,
                     dense_attachments, expand_labels, label_rows,
                     naive_key, per_pair_threats, suspend, thom_rung)
from thomstem import ahss, pipeline
from thomstem.ahss import KILLED, assemble
from thomstem.chern import (ManifoldData, connected_sum, index_bundle,
                            make_homology_torus)
from thomstem.thom import (DETECTIONS, NU_ODD, TRIVIAL, UNKNOWN, AttachLabel,
                           LabelRules, StableCellComplex, _detected_labels,
                           infer_attachments, skeletal_quotient,
                           sphere_bundle_quotient, thom_cells)


def assert_matches_oracle(complex_, oracle=None):
    """The rules expand to exactly the oracle's pairs and labels, in
    canonical order, and `len` and `values()` count them alike."""
    view = complex_.attachments
    oracle = dense_attachments(complex_) if oracle is None else oracle
    expanded = expand_labels(complex_)
    assert len(view) == len(oracle)
    assert expanded == oracle
    assert list(expanded) == canonical_pairs(oracle)
    assert Counter(view.values()) == Counter(oracle.values())


def _sum(*dets):
    out = make_homology_torus(dets[0])
    for det in dets[1:]:
        out = connected_sum(out, make_homology_torus(det))
    return index_bundle(out)


PRESET_BUILDS = {
    "sec3": lambda: thom_cells(_sum(5)),
    "sec3_even": lambda: thom_cells(_sum(4)),
    "sec4_odd": lambda: thom_cells(_sum(3, 5)),
    "sec4_mixed": lambda: thom_cells(_sum(3, 2)),
    "sec4_even": lambda: thom_cells(_sum(2, 4)),
    "sec5": lambda: sphere_bundle_quotient(_sum(3, 5)),
}


@pytest.mark.parametrize("name", sorted(PRESET_BUILDS))
def test_presets_match_dense_oracle(name):
    built = PRESET_BUILDS[name]()
    labelled = infer_attachments(built)
    assert_matches_oracle(labelled)
    full = dense_attachments(built)
    for k in (1, 2):
        suspended = suspend(labelled, k)
        assert_matches_oracle(suspended)
        assert expand_labels(suspended) == expand_labels(
            infer_attachments(suspend(built, k)))
    for cut in (5, 8):
        cut_complex = skeletal_quotient(labelled, cut)
        kept = set(cut_complex.cells)
        assert_matches_oracle(cut_complex, {
            pair: label for pair, label in full.items()
            if pair[0] in kept and pair[1] in kept})
        assert_matches_oracle(suspend(cut_complex, 1))


def _random_bundle(rng, b1):
    """The index bundle over T^b1 of a random quadruple form: c1 = 0, as
    for every quaternionic bundle, so only Sq^4 detects."""
    quad = {}
    for subset in combinations(range(1, b1 + 1), 4):
        if rng.random() < 0.4:
            quad[subset] = rng.randint(-3, 3)
    return index_bundle(ManifoldData(b1=b1, quad_form=quad, signature=0,
                                     b_plus=3))


def test_random_bundles_match_dense_oracle():
    rng = random.Random(20261017)
    detected = set()
    for _ in range(24):
        bundle = _random_bundle(rng, rng.randint(4, 7))
        for built in (thom_cells(bundle), sphere_bundle_quotient(bundle)):
            labelled = infer_attachments(built)
            assert_matches_oracle(labelled)
            assert_matches_oracle(suspend(labelled, rng.randint(1, 3)))
            cut = skeletal_quotient(labelled, rng.randint(3, 8))
            assert_matches_oracle(suspend(cut, 1))
            detected.update(label.value for label in
                            expand_labels(labelled).values())
    # the draw exercises the detection, not only the defaults
    assert NU_ODD in detected


def test_detection_texts_equal_the_monomial_text_on_random_bundles():
    # each justification reads its masks off the cached digits; the
    # oracle formats them bit by bit, "1" for the empty lower monomial
    rng = random.Random(20261020)
    lowers = set()
    for _ in range(24):
        bundle = _random_bundle(rng, rng.randint(4, 8))
        for complex_ in (thom_cells(bundle, rng.randint(0, 2)),
                         skeletal_quotient(thom_cells(bundle), 5)):
            for rule in DETECTIONS:
                w = bundle.w_class(rule.gap)
                labels = _detected_labels(complex_, rule)
                for (upper, lower), label in labels.items():
                    assert label == AttachLabel(
                        rule.value,
                        f"Sq^{rule.gap} detects {rule.hopf}: "
                        f"Sq^{rule.gap}(u*x{bit_loop_str(lower.base_mask)})"
                        f" contains u*x{bit_loop_str(upper.base_mask)} "
                        f"via w{rule.gap} = {w}")
                    lowers.add(lower.base_mask)
    assert 0 in lowers and len(lowers) > 1


def assert_notes_match_oracle(complex_, targets=None):
    """Unknown-column notes and column statuses equal the per-pair oracle's
    at `targets`, by default every target that keeps the stems in the
    table. The statuses are checked without leaning on `assemble`: a
    column is killed exactly when an odd-nu label leaves it at a stem its
    rule decides, and unknown exactly when it is not killed, its group is
    nontrivial and the oracle finds a threatening pair."""
    top = max(cell.dim for cell in complex_.cells)
    rows, threats = label_rows(complex_), per_pair_threats(complex_)
    (rule,) = DETECTIONS
    for target_n in targets or range(top - 7, top - 1):
        fast = assemble(complex_, target_n)
        original = ahss._threats
        ahss._threats = per_pair_threats
        try:
            slow = assemble(complex_, target_n)
        finally:
            ahss._threats = original
        assert fast.notes == slow.notes
        assert fast.entries == slow.entries
        assert (fast.assembled, fast.bounds) == (slow.assembled, slow.bounds)
        for entry in fast.entries:
            killed = entry.stem_q in rule.decides and any(
                label.value == rule.value for _, label in rows[entry.cell])
            assert (entry.status == KILLED) == killed, entry
            assert (entry.status == UNKNOWN) == (
                not killed and not entry.group.is_trivial
                and bool(threats(entry.cell, entry.stem_q))), entry


@pytest.mark.parametrize("name", sorted(PRESET_BUILDS))
def test_preset_notes_match_per_pair_oracle(name):
    labelled = infer_attachments(PRESET_BUILDS[name]())
    for complex_ in (labelled, suspend(labelled, 1),
                     skeletal_quotient(labelled, 5)):
        assert_notes_match_oracle(complex_)


def test_random_bundle_notes_match_per_pair_oracle():
    rng = random.Random(20261018)
    unknown = 0
    for _ in range(24):
        bundle = _random_bundle(rng, rng.randint(4, 7))
        for built in (thom_cells(bundle), sphere_bundle_quotient(bundle)):
            labelled = infer_attachments(built)
            assert_notes_match_oracle(labelled)
            assert_notes_match_oracle(suspend(labelled, rng.randint(1, 2)))
            unknown += sum(entry.status == UNKNOWN for entry in
                           assemble(labelled, built.top_cell.dim - 4).entries)
    assert unknown


def test_hand_built_exception_notes_match_per_pair_oracle():
    complex_ = infer_attachments(thom_cells(_sum(3, 5)))
    defaults = complex_.attachments.rules.defaults
    proper = complex_.proper_cells
    by_dim = {}
    for cell in proper:
        by_dim.setdefault(cell.dim, []).append(cell)
    top = complex_.top_cell
    basepoint = basepoint_cell(complex_)
    exceptions = dict(complex_.attachments.rules.exceptions)
    exceptions.update({
        # a default gap, overridden both ways
        (top, by_dim[top.dim - 4][0]): AttachLabel(TRIVIAL, "synthetic"),
        (top, by_dim[top.dim - 2][0]): AttachLabel(UNKNOWN, "synthetic"),
        # the default label object itself, given as an exception
        (top, by_dim[top.dim - 3][1]): defaults[3],
        # off the default gaps: gap 5, and down to the basepoint
        (by_dim[top.dim - 1][0], by_dim[top.dim - 6][0]):
            AttachLabel(UNKNOWN, "synthetic"),
        (top, basepoint): AttachLabel(UNKNOWN, "synthetic"),
        (by_dim[top.dim - 2][1], basepoint): AttachLabel(TRIVIAL, "synthetic"),
    })
    hand = StableCellComplex(complex_.cells, complex_.bundle,
                             complex_.basepoint_policy,
                             LabelRules(defaults, exceptions))
    # each cell's exception row is its pairs of the rules, canonical order
    for cell in hand.cells:
        assert list(hand.attachments.exceptions_from(cell)) == sorted(
            ((lower, label) for (upper, lower), label in exceptions.items()
             if upper == cell), key=lambda item: naive_key(item[0]))
    # `len` and `values()` count the overriding, off-gap and basepoint
    # exceptions alike with the written-out pairs
    expanded = expand_labels(hand)
    assert len(hand.attachments) == len(expanded)
    assert Counter(hand.attachments.values()) == Counter(expanded.values())
    assert_notes_match_oracle(hand)
    assert_notes_match_oracle(suspend(hand, 1))
    # exceptions only, no defaults
    assert_notes_match_oracle(StableCellComplex(
        complex_.cells, complex_.bundle, complex_.basepoint_policy,
        LabelRules({}, {pair: label for pair, label in exceptions.items()
                        if label.value != NU_ODD})))


def test_ladder_rung_notes_match_per_pair_oracle():
    result = pipeline.run_scenario(pipeline.parse_scenario(thom_rung(9)))
    assert result.target_n == 10
    assert_notes_match_oracle(result.final_complex, targets=[10])


@pytest.mark.parametrize("raw", [
    thom_rung(9),
    {"schema": "thomstem-scenario/1", "manifolds": [{"determinant": 5}],
     "skeletal_cut": 5},
    {"schema": "thomstem-scenario/1", "pipeline": "sphere_quotient",
     "manifolds": [{"determinant": 3}, {"determinant": 5}],
     "suspensions": 2},
], ids=["thom-b1-9", "sec3-cut", "sec5-suspended"])
def test_derived_complexes_keep_only_the_detected_exceptions(raw):
    # a complex derived from a labelled one gets its rules, so it holds
    # only the detected exceptions
    spec = pipeline.parse_scenario(raw)
    _, _, built, cut, _ = pipeline._stages(spec, 0)
    _, _, born, final, _ = pipeline._stages(spec, spec.suspensions)
    assert final is not built
    for complex_ in (built, born, final, suspend(cut, spec.suspensions),
                     suspend(skeletal_quotient(built, 6), 1)):
        view = complex_.attachments
        assert len(view.rules.exceptions) == len(view.detected)
        assert Counter(view.values()) == \
            Counter(expand_labels(complex_).values())


def test_exception_rows_are_never_walked_pair_by_pair(monkeypatch):
    from thomstem.thom import AttachmentView

    exceptions_from = AttachmentView.exceptions_from
    calls = []

    def refuse(self):
        raise AssertionError("walked every label pair by pair")

    def counted(self, upper):
        row = exceptions_from(self, upper)
        calls.append(len(row))
        return row

    monkeypatch.setattr(AttachmentView, "values", refuse)
    monkeypatch.setattr(AttachmentView, "exceptions_from", counted)
    for b1, notes in ((9, 4548), (10, 32624)):
        result = pipeline.run_scenario(pipeline.parse_scenario(thom_rung(b1)))
        pipeline.report_json(result)
        assert len(result.report.notes) == notes
    # the scan read its rows through exceptions_from, some of them nonempty
    assert calls and any(calls)


def test_reports_and_results_are_frozen():
    result = pipeline.run_scenario(pipeline.preset("paper-sec4", det1=3,
                                                   det2=5))
    report, top = result.report, result.final_complex.top_cell
    with pytest.raises(AttributeError):
        report.notes = ()
    with pytest.raises(AttributeError):
        result.verdict = "trivial"
    with pytest.raises(TypeError):
        result.assignment[top] = None
    assert report.entry_for(top) == next(
        entry for entry in report.entries if entry.cell == top)
    with pytest.raises(KeyError, match="no column for cell"):
        report.entry_for(basepoint_cell(result.final_complex))


def test_label_counts_are_arithmetic_and_exact():
    for build in PRESET_BUILDS.values():
        labelled = infer_attachments(build())
        for complex_ in (labelled, skeletal_quotient(labelled, 6)):
            counts = {}
            for (upper, lower), label in dense_attachments(complex_).items():
                key = f"gap{upper.dim - lower.dim}:{label.value}"
                counts[key] = counts.get(key, 0) + 1
            assert pipeline.complex_to_dict(complex_)["label_counts"] == \
                dict(sorted(counts.items()))


def test_hand_built_labels_are_exceptions_without_defaults():
    complex_ = infer_attachments(thom_cells(_sum(3)))
    upper, lower = complex_.top_cell, complex_.proper_cells[0]
    labels = {(upper, lower): AttachLabel(UNKNOWN, "synthetic")}
    hand = StableCellComplex(complex_.cells, complex_.bundle,
                             complex_.basepoint_policy,
                             LabelRules({}, labels))
    assert hand.attachments.rules.defaults == {}
    assert expand_labels(hand) == labels
    assert len(hand.attachments) == 1
    with pytest.raises(KeyError):
        expand_labels(hand)[(upper, complex_.proper_cells[1])]


def test_attachments_are_label_rules_or_none():
    complex_ = infer_attachments(thom_cells(_sum(3, 5)))
    pair = (complex_.top_cell, complex_.proper_cells[0])
    # a plain mapping, and the complex's own view passed back, by hand or
    # by _replace without attachments=
    for labels in ({pair: AttachLabel(UNKNOWN, "synthetic")},
                   complex_.attachments):
        with pytest.raises(TypeError, match="LabelRules"):
            StableCellComplex(complex_.cells, complex_.bundle,
                              complex_.basepoint_policy, labels)
    with pytest.raises(TypeError, match="LabelRules"):
        complex_._replace(gap3_trivial=True)
    assert StableCellComplex(complex_.cells, complex_.bundle,
                             complex_.basepoint_policy).attachments is None


def test_view_is_read_only_and_rejects_foreign_cells():
    complex_ = infer_attachments(thom_cells(_sum(3)))
    view = complex_.attachments
    with pytest.raises(TypeError):
        view[(complex_.top_cell, complex_.top_cell)] = None
    with pytest.raises(TypeError):      # not subscriptable
        view["not a pair"]
    assert (complex_.top_cell, complex_.top_cell) not in \
        expand_labels(complex_)
    other = thom_cells(_sum(3, 5)).top_cell
    with pytest.raises(ValueError):
        StableCellComplex(complex_.cells, complex_.bundle, "thom",
                          LabelRules({}, {(other, complex_.top_cell):
                                          AttachLabel(TRIVIAL, "synthetic")}))
    with pytest.raises(ValueError):
        StableCellComplex(complex_.cells, complex_.bundle, "thom",
                          LabelRules({2: AttachLabel("eta", "x")}, {}))


def test_view_keeps_only_what_its_callers_read():
    from collections.abc import Mapping
    from thomstem import thom
    from thomstem.thom import AttachmentView

    assert not issubclass(AttachmentView, Mapping)
    for gone in ("__getitem__", "__iter__", "__contains__", "items", "keys",
                 "row", "_items", "_cells", "_gaps"):
        assert not hasattr(AttachmentView, gone), gone
    assert not hasattr(StableCellComplex, "basepoint_cell")
    assert not hasattr(thom, "_Items") and not hasattr(thom, "_Values")
    complex_ = infer_attachments(thom_cells(_sum(3, 5)))
    view = complex_.attachments
    with pytest.raises(TypeError):
        list(view)


def test_view_equality_reads_the_rules():
    first = infer_attachments(thom_cells(_sum(3, 5)))
    again = infer_attachments(thom_cells(_sum(3, 5)))
    assert first.attachments == again.attachments and first == again
    defaults, exceptions = first.attachments.rules
    fewer = first._replace(attachments=LabelRules(defaults, {}))
    assert fewer.attachments != first.attachments
    cut = skeletal_quotient(first, 8)
    assert cut.attachments != first.attachments


def test_column_entries_are_frozen():
    complex_ = suspend(infer_attachments(thom_cells(_sum(3, 5))), 1)
    report = assemble(complex_, 10)
    entry = report.entry_for(complex_.top_cell)
    for name in ("status", "killer", "cell", "other"):
        with pytest.raises(AttributeError):
            setattr(entry, name, "survives")
    assert not hasattr(entry, "__dict__")
    # a status change makes a new entry and leaves the report's as it was
    status = entry.status
    assert entry._replace(status="changed").status == "changed"
    assert entry.status == status
    assert report.entry_for(complex_.top_cell) is entry
    assert not hasattr(complex_, "__dict__") or \
        "_sorted_attachments" not in vars(complex_)


def test_run_render_and_explain_never_walk_every_pair(monkeypatch):
    from thomstem import pipeline
    from thomstem.thom import AttachmentView

    def refuse(self):
        raise AssertionError("walked every attachment pair")

    monkeypatch.setattr(AttachmentView, "values", refuse)
    specs = [pipeline.preset("paper-sec3", det=5),
             pipeline.preset("paper-sec4", det1=3, det2=5),
             pipeline.preset("paper-sec4", det1=2, det2=4),
             pipeline.preset("paper-sec5", det1=3, det2=5)]
    for spec in specs:
        pipeline.report_json(pipeline.run_scenario(spec))
        pipeline.explain_text(spec)
