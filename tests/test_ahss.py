"""Assembly, differentials, verdicts and certificates."""

import copy
import pickle
import random
import re

import pytest

from helpers import basepoint_cell, direct_sum_oracle, suspend, thom_rung
from thomstem import pipeline, stems
from thomstem.ahss import (KILLED, REDUCED, SURVIVES, VERDICT_NONTRIVIAL,
                           VERDICT_TRIVIAL, VERDICT_UNKNOWN, Notes, assemble,
                           evaluate_class, stem_groups, vanishing_certificate)
from thomstem.chern import (QUATERNIONIC, BundleData, ManifoldData,
                            connected_sum, index_bundle, make_homology_torus)
from thomstem.exterior import ExteriorClass
from thomstem.stems import AbelianGroup, OutOfTableError
from thomstem.thom import (FIBER_SPHERE_TWO, FIBER_SPHERE_ZERO, NU_ODD,
                           TRIVIAL, UNKNOWN, AttachLabel, LabelRules,
                           StableCell, StableCellComplex, infer_attachments,
                           skeletal_quotient, sphere_bundle_quotient,
                           thom_cells)


def sec3_complex(det=5):
    bundle = index_bundle(make_homology_torus(det))
    return skeletal_quotient(infer_attachments(thom_cells(bundle)), 5)


def sec4_complex(r1=3, r2=5):
    m = connected_sum(make_homology_torus(r1), make_homology_torus(r2))
    return suspend(infer_attachments(thom_cells(index_bundle(m))), 1)


def sec5_complex(r1=3, r2=5):
    m = connected_sum(make_homology_torus(r1), make_homology_torus(r2))
    return suspend(infer_attachments(sphere_bundle_quotient(index_bundle(m))), 2)


def _point_bundle():
    m = ManifoldData(b1=0, quad_form={}, signature=0, b_plus=0)
    return index_bundle(m)


def synthetic_cell(tag: int, dim: int) -> StableCell:
    # distinct identities via the base mask; the dimension comes from the
    # suspension counter
    return StableCell(tag, FIBER_SPHERE_ZERO, 0,
                      suspension=dim - tag.bit_count())


def two_cell_complex(gap: int, label_value: str) -> StableCellComplex:
    lower = synthetic_cell(0, 2)
    upper = synthetic_cell(1, 2 + gap)
    labels = {(upper, lower): AttachLabel(label_value, "synthetic")}
    return StableCellComplex((lower, upper), _point_bundle(), "thom",
                             LabelRules({}, labels))


def c1_torus_bundle(c1_terms):
    """The rank-1 quaternionic bundle over T^4 with the given c1 and
    c2 = -3 x{1,2,3,4}; with c1 = 0 it is the det-3 torus's index bundle."""
    return BundleData(4, QUATERNIONIC, 1, ExteriorClass(c1_terms, 4),
                      ExteriorClass({(1, 2, 3, 4): -3}, 4), 1)


_UNKNOWN_NOTE = ("column {} marked unknown: reachable through a {} gap-{} "
                 "label from {} (source stem {})")
_BOUNDS_NOTE = ("{} column(s) unknown: assembled group reported as bounds "
                "(lower = unknowns die, upper = unknowns survive)")
_NO_DIFFERENTIALS = ("direct sum, no differentials",)

# target -> (differentials, notes after the two fixed ones, {cell name:
# (status, killer, reduced_index)} of every column that does not survive)
TWIN_PINNED = {
    3: (_NO_DIFFERENTIALS, (), {}),
    4: (("d4: column H{} reduced to index 24 (kernel of composition with nu "
         "into H{1,2,3,4}); still Z abstractly",),
        (_UNKNOWN_NOTE.format("H{1,2,3}", "unknown", 3, "H{}", 1),
         _UNKNOWN_NOTE.format("H{1,2,4}", "unknown", 3, "H{}", 1),
         _UNKNOWN_NOTE.format("H{1,3,4}", "unknown", 3, "H{}", 1),
         _UNKNOWN_NOTE.format("H{2,3,4}", "unknown", 3, "H{}", 1),
         _BOUNDS_NOTE.format(4)),
        {"H{}": (REDUCED, "d4 into H{1,2,3,4}", 24),
         "H{1,2,3}": (UNKNOWN, None, None),
         "H{1,2,4}": (UNKNOWN, None, None),
         "H{1,3,4}": (UNKNOWN, None, None),
         "H{2,3,4}": (UNKNOWN, None, None)}),
    5: (("d4: column H{1,2,3,4} (Z/24) killed by composition with nu from "
         "H{}; the source Z column one degree over is reduced to index 24",),
        ("d4 source recorded as H{}, the first nu-attached cell in canonical "
         "order; any of the nu-attached cells kills the column",
         _UNKNOWN_NOTE.format("H{1,2,3}", "unknown", 3, "H{}", 0),
         _UNKNOWN_NOTE.format("H{1,2,4}", "unknown", 3, "H{}", 0),
         _UNKNOWN_NOTE.format("H{1,3,4}", "unknown", 3, "H{}", 0),
         _UNKNOWN_NOTE.format("H{2,3,4}", "unknown", 3, "H{}", 0),
         _BOUNDS_NOTE.format(4)),
        {"H{1,2,3}": (UNKNOWN, None, None),
         "H{1,2,4}": (UNKNOWN, None, None),
         "H{1,3,4}": (UNKNOWN, None, None),
         "H{2,3,4}": (UNKNOWN, None, None),
         "H{1,2,3,4}": (KILLED, "d4 from H{}", None)}),
    6: (_NO_DIFFERENTIALS,
        (_UNKNOWN_NOTE.format("H{1,2,3,4}", "unknown", 3, "H{1}", 0),
         _UNKNOWN_NOTE.format("H{1,2,3,4}", "unknown", 3, "H{2}", 0),
         _UNKNOWN_NOTE.format("H{1,2,3,4}", "unknown", 3, "H{3}", 0),
         _UNKNOWN_NOTE.format("H{1,2,3,4}", "unknown", 3, "H{4}", 0),
         _BOUNDS_NOTE.format(1)),
        {"H{1,2,3,4}": (UNKNOWN, None, None)}),
    7: (_NO_DIFFERENTIALS, (), {}),
}


class TestSec3Assembly:
    def test_group(self):
        report = assemble(sec3_complex(), 7)
        assert report.assembled == AbelianGroup(4, (2,))

    def test_entry_breakdown(self):
        report = assemble(sec3_complex(), 7)
        by_stem = {}
        for entry in report.entries:
            by_stem.setdefault(entry.stem_q, []).append(entry)
        assert len(by_stem[-1]) == 6 and all(e.group.is_trivial
                                             for e in by_stem[-1])
        assert len(by_stem[0]) == 4
        assert len(by_stem[1]) == 1

    def test_eta_on_top_cell_is_nontrivial(self):
        complex_ = sec3_complex()
        report = assemble(complex_, 7)
        verdict = evaluate_class(report, {complex_.top_cell: stems.eta()})
        assert verdict == VERDICT_NONTRIVIAL


class TestSec4Assembly:
    def test_thirteen_cell_killed_by_d4(self):
        complex_ = sec4_complex()
        report = assemble(complex_, 10)
        top = report.entry_for(complex_.top_cell)
        assert top.group == AbelianGroup(torsion=(24,))
        assert top.status == KILLED
        assert top.killer.startswith("d4 from")
        # the recorded source is the first nu-attached 9-cell canonically
        assert "H{1,2,3,4}+1" in top.killer

    def test_free_rank_untouched_by_nu_differentials(self):
        report = assemble(sec4_complex(), 10)
        lower, upper = report.bounds
        oracle = direct_sum_oracle(sec4_complex(), 10)
        assert lower.free_rank == upper.free_rank == oracle.free_rank

    def test_eta_cubed_class_dies(self):
        complex_ = sec4_complex()
        report = assemble(complex_, 10)
        verdict = evaluate_class(report,
                                 {complex_.top_cell: stems.nu_multiple(12)})
        assert verdict == VERDICT_TRIVIAL

    def test_both_dets_even_gives_unknown(self):
        complex_ = sec4_complex(2, 4)
        report = assemble(complex_, 10)
        top = report.entry_for(complex_.top_cell)
        assert top.status == UNKNOWN
        verdict = evaluate_class(report,
                                 {complex_.top_cell: stems.nu_multiple(12)})
        assert verdict == VERDICT_UNKNOWN


class TestSec5Assembly:
    def test_fiber_two_block_matches_binomials(self):
        report = assemble(sec5_complex(), 10)
        blocks = report.blocks()
        assert blocks[FIBER_SPHERE_TWO] == AbelianGroup(28, (2,) * 9)

    def test_extra_base_cell_is_flagged(self):
        report = assemble(sec5_complex(), 10)
        assert blocks_extra_note(report)
        assert report.blocks()[FIBER_SPHERE_ZERO] == AbelianGroup(free_rank=1)

    def test_assembly_is_exact(self):
        report = assemble(sec5_complex(), 10)
        assert report.assembled is not None
        assert report.assembled == AbelianGroup(29, (2,) * 9)

    def test_eta_sq_on_twelve_cell_is_nontrivial(self):
        complex_ = sec5_complex()
        report = assemble(complex_, 10)
        verdict = evaluate_class(report, {complex_.top_cell: stems.eta_sq()})
        assert verdict == VERDICT_NONTRIVIAL


def blocks_extra_note(report):
    return [note for note in report.notes if "extra base-block cell" in note]


def eta_pair_is_rejected():
    with pytest.raises(ValueError) as err:
        two_cell_complex(2, "eta")
    assert str(err.value) == ("label eta on a gap-2 attachment S0{1}+3 -> "
                              "S0{}+2: no rule reads it")


class TestTwoCellComplexes:
    """Two-cell bookkeeping at every target degree.

    Where the eta cofiber was: an eta label is rejected when the complex
    is built, since every bundle has w2 = 0 and no rule reads it. The
    gap-2 pair then takes the label that `infer_attachments` gives every
    such pair, trivial, and its columns are direct-summed; a hand-built
    unknown label keeps the columns it could reach unknown.
    """

    def test_eta_cofiber_at_top_degree_minus_two(self):
        # cells 2, 4; N = 2: Z from the 2-cell, Z/2 from the 4-cell
        eta_pair_is_rejected()
        report = assemble(two_cell_complex(2, TRIVIAL), 2)
        assert report.differentials == _NO_DIFFERENTIALS
        assert all(e.status == SURVIVES for e in report.entries)
        assert report.assembled == AbelianGroup(1, (2,))

    def test_eta_cofiber_at_top_degree_minus_one(self):
        eta_pair_is_rejected()
        report = assemble(two_cell_complex(2, TRIVIAL), 3)
        upper = next(e for e in report.entries if e.cell.dim == 4)
        assert upper.status == SURVIVES
        assert report.assembled == AbelianGroup(torsion=(2,))

    def test_eta_cofiber_at_top_degree(self):
        eta_pair_is_rejected()
        report = assemble(two_cell_complex(2, TRIVIAL), 4)
        assert report.assembled == AbelianGroup(free_rank=1)

    def test_eta_cofiber_below_is_honestly_unknown(self):
        # N = 1: an undetermined gap-2 class could hit the top Z/24 from
        # the Z/2 one degree over; the engine refuses to guess and reports
        # bounds instead, and the source column is left alone
        eta_pair_is_rejected()
        report = assemble(two_cell_complex(2, UNKNOWN), 1)
        upper = next(e for e in report.entries if e.cell.dim == 4)
        lower = next(e for e in report.entries if e.cell.dim == 2)
        assert upper.status == UNKNOWN
        assert lower.status == SURVIVES
        assert report.assembled is None
        assert report.bounds == (AbelianGroup(torsion=(2,)),
                                 AbelianGroup(torsion=(2, 24)))

    def test_nu_cofiber(self):
        # cells 2, 6 attached by odd nu; N = 3 kills the top Z/24
        report = assemble(two_cell_complex(4, NU_ODD), 3)
        upper = next(e for e in report.entries if e.cell.dim == 6)
        assert upper.status == KILLED and upper.killer.startswith("d4")
        assert report.assembled == AbelianGroup()

    def test_nu_cofiber_source_reduction(self):
        # N = 2: the lower Z column is reduced to index 24, still Z
        report = assemble(two_cell_complex(4, NU_ODD), 2)
        lower = next(e for e in report.entries if e.cell.dim == 2)
        assert lower.status == REDUCED and lower.reduced_index == 24
        assert report.assembled == AbelianGroup(free_rank=1)

    def test_unknown_label_blocks_certainty(self):
        report = assemble(two_cell_complex(3, UNKNOWN), 3)
        upper = next(e for e in report.entries if e.cell.dim == 5)
        assert upper.status == UNKNOWN
        assert report.bounds is not None

    def test_nu_source_drained_by_eta_is_not_overclaimed(self):
        # one cell under both a gap-2 and an odd-nu (gap 4) attachment:
        # an eta label on the gap-2 pair, which would halve the shared
        # source column, is rejected when built, so the source stays
        # intact and the d4 kills the Z/24 column
        lower = synthetic_cell(0, 2)
        mid = synthetic_cell(1, 4)
        top = synthetic_cell(2, 6)

        def build(value):
            labels = {(mid, lower): AttachLabel(value, "synthetic"),
                      (top, lower): AttachLabel(NU_ODD, "synthetic")}
            return StableCellComplex((lower, mid, top), _point_bundle(),
                                     "thom", LabelRules({}, labels))

        with pytest.raises(ValueError, match="no rule reads it"):
            build("eta")
        report = assemble(build(TRIVIAL), 3)
        assert report.entry_for(mid).status == SURVIVES
        assert report.entry_for(top).status == KILLED
        assert report.entry_for(top).killer == f"d4 from {lower.name()}"

    def test_unlabelled_complex_is_rejected(self):
        with pytest.raises(ValueError, match="infer_attachments"):
            assemble(thom_cells(_point_bundle()), 4)

    def test_misplaced_labels_are_rejected(self):
        # eta, which no rule reads, and nu off gap 4 must never drive a
        # differential
        with pytest.raises(ValueError):
            assemble(two_cell_complex(3, "eta"), 3)
        with pytest.raises(ValueError):
            assemble(two_cell_complex(3, NU_ODD), 2)


class TestEtaTorusPinned:
    """The bundle that drove the d2 branch, c1 = x{1,2} over T^4, is
    rejected when it is built: a quaternionic bundle has c1 = 0. Its
    c1 = 0 twin is the det-3 torus's index bundle, pinned here at targets
    3..7 as the engine reads it: no differential is a d2, and only the d4
    and the unknown-column scan move a column."""

    @pytest.mark.parametrize("target", sorted(TWIN_PINNED))
    def test_d2_text_and_columns(self, target):
        with pytest.raises(ValueError, match="needs c1 = 0"):
            c1_torus_bundle({(1, 2): 1})
        differentials, notes, moved = TWIN_PINNED[target]
        report = assemble(infer_attachments(thom_cells(c1_torus_bundle({}))),
                          target)
        assert not any(line.startswith("d2") for line in report.differentials)
        assert report.differentials == differentials
        assert report.notes[2:] == notes
        assert {entry.cell.name(): (entry.status, entry.killer,
                                    entry.reduced_index)
                for entry in report.entries
                if entry.status != SURVIVES} == moved
        assert all((entry.killer, entry.reduced_index) == (None, None)
                   for entry in report.entries if entry.status == SURVIVES)


class TestAllTrivialOracle:
    def test_random_trivial_complexes_match_direct_sum(self):
        rng = random.Random(20260810)
        for _ in range(100):
            n_cells = rng.randint(1, 12)
            cells = []
            for tag in range(n_cells):
                dim = rng.randint(tag.bit_count(), tag.bit_count() + 6)
                cells.append(synthetic_cell(tag, dim))
            labels = {}
            for upper in cells:
                for lower in cells:
                    if 1 <= upper.dim - lower.dim <= 4:
                        labels[(upper, lower)] = AttachLabel(TRIVIAL, "synthetic")
            complex_ = StableCellComplex(tuple(cells), _point_bundle(),
                                         "thom", LabelRules({}, labels))
            max_dim = max(c.dim for c in cells)
            target = rng.randint(max_dim - 7, max_dim + 3)
            report = assemble(complex_, target)
            assert report.assembled == direct_sum_oracle(complex_, target)

    def test_zero_assignment_is_always_trivial(self):
        rng = random.Random(4)
        for complex_ in (sec3_complex(), sec4_complex(), sec5_complex()):
            n = rng.choice([7, 10])
            report = assemble(complex_, n)
            cell = complex_.proper_cells[0]
            verdict = evaluate_class(
                report, {cell: stems.zero(cell.dim - n)})
            assert verdict == VERDICT_TRIVIAL
            assert evaluate_class(report, {}) == VERDICT_TRIVIAL


class TestGuards:
    def test_stems_above_table_error(self):
        with pytest.raises(OutOfTableError):
            assemble(sec3_complex(), 0)

    def test_degree_mismatch_rejected(self):
        complex_ = sec3_complex()
        report = assemble(complex_, 7)
        with pytest.raises(ValueError):
            evaluate_class(report, {complex_.top_cell: stems.eta_sq()})

    def test_basepoint_carries_no_column(self):
        complex_ = infer_attachments(thom_cells(index_bundle(
            make_homology_torus(3))))
        report = assemble(complex_, 7)
        names = {e.cell.name() for e in report.entries}
        assert basepoint_cell(complex_).name() not in names

    def test_class_on_basepoint_rejected(self):
        complex_ = infer_attachments(thom_cells(index_bundle(
            make_homology_torus(3))))
        report = assemble(complex_, 7)
        with pytest.raises(ValueError, match="carries no assembly column"):
            evaluate_class(report, {basepoint_cell(complex_): stems.eta()})


def _final_runs():
    """Run results of sec3, sec4, sec5 and the thom b1 = 10 ladder rung."""
    specs = (pipeline.preset("paper-sec3", det=5),
             pipeline.preset("paper-sec4", det1=3, det2=5),
             pipeline.preset("paper-sec5", det1=3, det2=5),
             pipeline.parse_scenario(thom_rung(10)))
    return {spec.name: pipeline.run_scenario(spec) for spec in specs}


FINAL_RUNS = _final_runs()


class TestEntryFor:
    """`entry_for` bisects the entries, one per proper cell in canonical
    order; a report keeps no second table of them."""

    @pytest.mark.parametrize("name", sorted(FINAL_RUNS))
    def test_every_proper_cell_finds_its_own_entry(self, name):
        result = FINAL_RUNS[name]
        report, proper = result.report, result.final_complex.proper_cells
        assert len(report.entries) == len(proper)
        for entry, cell in zip(report.entries, proper):
            assert entry.cell == cell
            assert report.entry_for(cell) is entry

    @staticmethod
    def assert_no_column(report, cells):
        assert cells
        for cell in cells:
            with pytest.raises(KeyError, match=re.escape(
                    f"no column for cell {cell.name()}")):
                report.entry_for(cell)

    @pytest.mark.parametrize("name", sorted(set(FINAL_RUNS) - {"paper-sec3"}))
    def test_the_basepoint_has_no_column(self, name):
        result = FINAL_RUNS[name]
        self.assert_no_column(result.report,
                              [basepoint_cell(result.final_complex)])

    @pytest.mark.parametrize("name", sorted(FINAL_RUNS))
    def test_a_cell_of_another_complex_has_no_column(self, name):
        result = FINAL_RUNS[name]
        complex_ = result.final_complex
        foreign = [cell for run in FINAL_RUNS.values() if run is not result
                   for cell in run.final_complex.proper_cells
                   if cell not in complex_.cells]
        # and a suspension that no cell of this complex has
        self.assert_no_column(result.report,
                              foreign + [complex_.top_cell.suspended(5)])

    def test_a_cell_collapsed_by_the_cut_has_no_column(self):
        # sec3 cuts the 5-skeleton, the basepoint with it
        result = FINAL_RUNS["paper-sec3"]
        _, _, built, cut, _ = pipeline._stages(result.spec, 0)
        assert cut == result.final_complex
        collapsed = [cell for cell in built.cells if cell not in cut.cells]
        assert basepoint_cell(built) in collapsed
        self.assert_no_column(result.report, collapsed)

    @pytest.mark.parametrize("name", sorted(FINAL_RUNS))
    def test_no_item_of_a_report_is_a_dict(self, name):
        report = FINAL_RUNS[name].report
        assert len(report) == len(report._fields)
        assert not any(isinstance(item, dict) for item in report)

    def test_a_verdict_cannot_be_flipped_through_the_report(self):
        # a writable {cell: entry} item once let this turn sec4's trivial
        # into nontrivial
        result = pipeline.run_scenario(
            pipeline.preset("paper-sec4", det1=3, det2=5))
        report, top = result.report, result.final_complex.top_cell
        assert evaluate_class(report, result.assignment) == VERDICT_TRIVIAL
        with pytest.raises(IndexError):
            report[7][top] = report.entry_for(top)._replace(status=SURVIVES)
        assert evaluate_class(report, result.assignment) == VERDICT_TRIVIAL


class TestStemGroups:
    """`stem_groups` reads each dimension once, from the proper cells in
    canonical order, and gives the groups the set of all cell stems
    gives."""

    @pytest.mark.parametrize("build", [sec3_complex, sec4_complex,
                                       sec5_complex])
    def test_presets_match_every_cell_stem(self, build, monkeypatch):
        complex_ = build()
        top = complex_.top_cell.dim
        for target in range(top - stems.MAX_STEM, top + 3):
            expected = {q: stems.stem_group(q) for q in sorted(
                {cell.dim - target for cell in complex_.proper_cells})}
            with monkeypatch.context() as patch:
                patch.setattr(StableCell, "dim", property(refuse_dim))
                groups = stem_groups(complex_, target)
            assert list(groups.items()) == list(expected.items())

    @pytest.mark.parametrize("build", [sec3_complex, sec4_complex,
                                       sec5_complex])
    def test_out_of_table_names_the_lowest_stem(self, build):
        complex_ = build()
        dims = {cell.dim for cell in complex_.proper_cells}
        for target in (max(dims) - stems.MAX_STEM - k for k in (1, 2, 5)):
            lowest = min(dim - target for dim in dims
                         if dim - target > stems.MAX_STEM)
            with pytest.raises(OutOfTableError,
                               match=f"stable stem {lowest} is outside"):
                stem_groups(complex_, target)

    @pytest.mark.parametrize("shift", [-8, -9, -12])
    def test_out_of_table_spec_fails_alike_in_run_and_explain(self, shift):
        spec = pipeline.parse_scenario({
            "schema": "thomstem-scenario/1", "manifolds": [
                {"determinant": 3}, {"determinant": 5}],
            "suspensions": 1, "target_shift": shift})
        _, _, _, cut, target = pipeline._stages(spec, 0)
        final = suspend(cut, spec.suspensions)
        lowest = min(cell.dim - target for cell in final.proper_cells
                     if cell.dim - target > stems.MAX_STEM)
        for call in (pipeline.run_scenario, pipeline.explain_text):
            with pytest.raises(OutOfTableError,
                               match=f"stable stem {lowest} is outside"):
                call(spec)


def refuse_dim(cell):
    raise AssertionError(f"read the dim of {cell.name()} cell by cell")


class TestNotes:
    """`GroupReport.notes` is a sequence of str kept as plain notes and
    (head, tails) runs."""

    ITEMS = ["a", ("h:", ("x", "y", "z")), "b", ("k:", ()), ("g:", ("w",))]
    FLAT = ("a", "h:x", "h:y", "h:z", "b", "g:w")

    def test_sequence_behaviour(self):
        notes = Notes(self.ITEMS)
        assert len(notes) == 6 and len(Notes([])) == 0
        assert list(notes) == list(self.FLAT)
        assert [notes[i] for i in range(-6, 6)] == list(self.FLAT * 2)
        for bad in (6, -7):
            with pytest.raises(IndexError):
                notes[bad]
        for cut in (slice(2, None), slice(None, -1), slice(1, 4),
                    slice(None, None, -2), slice(9, 10)):
            assert notes[cut] == self.FLAT[cut]
            assert type(notes[cut]) is tuple
        assert "h:y" in notes and "h:" not in notes
        assert notes.index("b") == 4 and notes.count("h:z") == 1
        # the empty run is dropped: it stands for no note
        assert ("k:", ()) not in notes.items

    def test_equal_and_hashed_as_its_notes(self):
        notes = Notes(self.ITEMS)
        layouts = [self.FLAT, Notes(self.FLAT),
                   Notes(["a", ("h:", ("x",)), ("h:", ("y", "z")), "b",
                          ("g:w", ("",))])]
        for other in layouts:
            assert notes == other and other == notes
            assert hash(notes) == hash(other)
        for other in (self.FLAT[:-1], self.FLAT + ("c",), list(self.FLAT),
                      Notes(["a", ("h:", ("x", "y", "Z")), "b", "g:w"])):
            assert notes != other and other != notes

    def test_immutable(self):
        notes = Notes(self.ITEMS)
        for name in ("items", "_ends", "other"):
            with pytest.raises(AttributeError):
                setattr(notes, name, ())
        assert notes == self.FLAT
        # copies are made through the constructor, not by setting slots
        for copied in (copy.copy(notes), copy.deepcopy(notes),
                       pickle.loads(pickle.dumps(notes))):
            assert type(copied) is Notes and copied.items == notes.items

    def test_equal_tails_are_one_tuple(self):
        # columns whose exceptions give equal tails share one tuple, so the
        # writer probes each distinct tails list once
        notes = pipeline.run_scenario(pipeline.parse_scenario(
            thom_rung(10))).report.notes
        tails = [item[1] for item in notes.items if not isinstance(item, str)]
        assert len(tails) > len(set(tails)) == 2
        assert len(set(map(id, tails))) == len(set(tails))

    def test_index_builds_one_note(self, monkeypatch):
        # a run's notes are built on demand: indexing reads only its run
        report = pipeline.run_scenario(pipeline.parse_scenario(
            thom_rung(10))).report
        notes = report.notes
        assert len(notes) == 32624 and len(notes.items) == 168
        tails = [item[1] for item in notes.items if not isinstance(item, str)]
        assert len(set(map(id, tails))) < 50 and len(set(tails)) == 2
        flat = tuple(notes)
        monkeypatch.setattr(Notes, "__iter__", refuse_iter)
        for i in (0, 2, 3, 200, 16000, -2, -1):
            assert notes[i] == flat[i]
        assert notes[1000:1003] == flat[1000:1003]


def refuse_iter(notes):
    raise AssertionError("built every note to index one")


class TestCertificates:
    def test_sec4_certificate_names_the_rules(self):
        complex_ = sec4_complex()
        report = assemble(complex_, 10)
        cert = vanishing_certificate(report,
                                     {complex_.top_cell: stems.nu_multiple(12)})
        assert "Sq^4" in cert
        assert "d4" in cert
        assert cert.endswith("verdict: trivial")

    def test_all_trivial_certificate(self):
        complex_ = sec3_complex()
        report = assemble(complex_, 7)
        cert = vanishing_certificate(report, {complex_.top_cell: stems.eta()})
        assert "direct sum, no differentials" in cert
        assert cert.endswith("verdict: nontrivial")

    def test_empty_assignment_certificate(self):
        report = assemble(sec3_complex(), 7)
        cert = vanishing_certificate(report, {})
        assert "zero class" in cert
        assert cert.endswith("verdict: trivial")

    def test_certificates_regenerate_identically(self):
        complex_ = sec4_complex()
        report = assemble(complex_, 10)
        assignment = {complex_.top_cell: stems.nu_multiple(12)}
        assert vanishing_certificate(report, assignment) == \
            vanishing_certificate(assemble(sec4_complex(), 10), assignment)
