"""Cell models, Steenrod detection, attachment labels and complex surgery."""

import random
from collections import Counter
from itertools import combinations

import pytest

from helpers import (as_tuple_terms, basepoint_cell, bit_loop_indices,
                     expand_labels, naive_dim, naive_key, sq_thom, suspend,
                     thom_rung)
from thomstem import pipeline
from thomstem.chern import (QUATERNIONIC, BundleData, connected_sum,
                            index_bundle, make_homology_torus)
from thomstem.exterior import ExteriorClass, Monomial
from thomstem.thom import (DETECTION_OF, FIBER_PARTS, FIBER_THOM, NU_ODD,
                           TRIVIAL, UNKNOWN, AttachLabel, LabelRules,
                           StableCell, StableCellComplex, _fiber_cells,
                           infer_attachments, label_counts, skeletal_quotient,
                           sphere_bundle_quotient, thom_cells)


def torus_bundle(det=1):
    return index_bundle(make_homology_torus(det))


def sum_bundle(r1, r2):
    return index_bundle(connected_sum(make_homology_torus(r1),
                                      make_homology_torus(r2)))


class TestThomCells:
    def test_counts_rank_four(self):
        complex_ = thom_cells(torus_bundle())
        assert complex_.cells_by_dim() == {0: 1, 4: 1, 5: 4, 6: 6, 7: 4, 8: 1}

    def test_counts_rank_eight(self):
        complex_ = thom_cells(sum_bundle(1, 1))
        by_dim = complex_.cells_by_dim()
        assert by_dim[12] == 1
        for d in range(4, 13):
            assert by_dim[d] == len(list(combinations(range(8), d - 4)))

    def test_counts_match_subset_enumeration_up_to_rank_ten(self):
        # brute-force subset oracle, b <= 10
        from thomstem.chern import ManifoldData
        for b in range(0, 11):
            quad = {(1, 2, 3, 4): 1} if b >= 4 else {}
            m = ManifoldData(b1=b, quad_form=quad, signature=0, b_plus=3)
            complex_ = thom_cells(index_bundle(m))
            by_dim = complex_.cells_by_dim()
            for d in range(4, b + 5):
                want = sum(1 for _ in combinations(range(1, b + 1), d - 4))
                assert by_dim.get(d, 0) == want, (b, d)

    def test_bundle_over_a_point(self):
        from thomstem.chern import ManifoldData
        m = ManifoldData(b1=0, quad_form={}, signature=0, b_plus=3)
        complex_ = thom_cells(index_bundle(m))
        assert complex_.cells_by_dim() == {0: 1, 4: 1}

    def test_rejects_real_bundles(self):
        g = sphere_bundle_quotient(torus_bundle()).bundle
        with pytest.raises(ValueError):
            thom_cells(g)


class TestBulkCells:
    """The builders make each fiber part's cells in one checked pass and
    hand them over in canonical order; what they make is what the cell and
    complex constructors make one at a time."""

    @pytest.mark.parametrize("part", FIBER_PARTS)
    def test_fiber_cells_equal_the_cells_made_one_at_a_time(self, part):
        for rank in range(8):
            for suspension in range(3):
                for offset in (0, 2, 4):
                    bulk = _fiber_cells(rank, part, offset, suspension)
                    one_by_one = sorted(
                        StableCell(mask, part, offset, suspension)
                        for mask in range(1 << rank))
                    assert list(bulk) == one_by_one
                    assert {type(cell) for cell in bulk} == {StableCell}
                    assert list(bulk) == sorted(bulk, key=naive_key)

    def test_bad_fiber_part_or_suspension_raises_as_the_constructor(self):
        for part, suspension in (("H", 0), ("", 1), (None, 0),
                                 (FIBER_THOM, -1), ("point", -(1 << 70))):
            with pytest.raises(ValueError) as one:
                StableCell(0, part, 4, suspension)
            with pytest.raises(ValueError) as bulk:
                _fiber_cells(3, part, 4, suspension)
            assert str(bulk.value) == str(one.value)

    def test_non_int_offset_or_suspension_raises_as_the_constructor(self):
        for offset, suspension in ((4.0, 0), (True, 0), (4, True),
                                   (4, 0.5), (4, 1.0), (4, "1"), (None, 0)):
            with pytest.raises(ValueError) as one:
                StableCell(0, FIBER_THOM, offset, suspension)
            with pytest.raises(ValueError) as bulk:
                _fiber_cells(3, FIBER_THOM, offset, suspension)
            assert str(bulk.value) == str(one.value)
            field = "fiber_offset" if type(offset) is not int \
                else "suspension"
            assert str(one.value).startswith(f"{field} must be an int, not ")

    @pytest.mark.parametrize("dets", [(), (3,), (3, 5), (2, 3, 5)],
                             ids=["point", "b4", "b8", "b12"])
    def test_builders_equal_the_public_constructor(self, dets):
        from thomstem.chern import ManifoldData
        manifold = ManifoldData(b1=0, quad_form={}, signature=0, b_plus=3)
        if dets:
            manifold = make_homology_torus(dets[0])
            for det in dets[1:]:
                manifold = connected_sum(manifold, make_homology_torus(det))
        bundle = index_bundle(manifold)
        for suspension in (0, 1, 2):
            for built in (thom_cells(bundle, suspension),
                          sphere_bundle_quotient(bundle, suspension)):
                shuffled = list(built.cells)
                random.Random(suspension).shuffle(shuffled)
                made = StableCellComplex(
                    tuple(shuffled), built.bundle, built.basepoint_policy,
                    gap3_trivial=built.gap3_trivial)
                assert made == built
                assert made.proper_cells == built.proper_cells
                assert basepoint_cell(built) == built.cells[0]
                assert built.attachments is None


class TestSqThom:
    def test_sq2_vanishes_when_c1_zero(self):
        bundle = torus_bundle(5)
        for mask in range(16):
            x = ExteriorClass({mask: 1}, 4, modulus=2)
            assert sq_thom(2, x, bundle).is_zero

    def test_sq4_swaps_volume_blocks(self):
        bundle = sum_bundle(3, 5)
        vol1 = ExteriorClass({(1, 2, 3, 4): 1}, 8, modulus=2)
        vol2 = ExteriorClass({(5, 6, 7, 8): 1}, 8, modulus=2)
        full = {(1, 2, 3, 4, 5, 6, 7, 8): 1}
        assert as_tuple_terms(sq_thom(4, vol1, bundle)) == full
        assert as_tuple_terms(sq_thom(4, vol2, bundle)) == full

    def test_sq4_dies_on_same_block_products(self):
        bundle = sum_bundle(3, 5)
        x = ExteriorClass({(1, 2, 3, 4, 5): 1}, 8, modulus=2)
        assert sq_thom(4, x, bundle).is_zero

    def test_degree_range(self):
        with pytest.raises(ValueError):
            sq_thom(0, ExteriorClass({0: 1}, 4, modulus=2), torus_bundle())
        with pytest.raises(ValueError):
            sq_thom(5, ExteriorClass({0: 1}, 4, modulus=2), torus_bundle())

    def test_adem_relation_vanishes(self):
        # Sq^2 Sq^2 = Sq^3 Sq^1: both sides vanish when w1 = w3 = 0
        for bundle in (torus_bundle(3), sum_bundle(3, 5)):
            b = bundle.base_rank
            for mask in range(1 << b):
                x = ExteriorClass({mask: 1}, b, modulus=2)
                lhs = sq_thom(2, sq_thom(2, x, bundle), bundle)
                rhs = sq_thom(3, sq_thom(1, x, bundle), bundle)
                assert lhs == rhs
                assert lhs.is_zero


class TestInferAttachments:
    def test_sec3_quotient_all_trivial(self):
        complex_ = skeletal_quotient(infer_attachments(thom_cells(torus_bundle(5))), 5)
        assert complex_.attachments
        assert all(label.value == TRIVIAL
                   for label in expand_labels(complex_).values())

    def test_sec4_odd_dets_two_nu_odd_from_top(self):
        complex_ = infer_attachments(thom_cells(sum_bundle(3, 5)))
        labels = expand_labels(complex_)
        hits = sorted(lower.base_indices
                      for (upper, lower), label in labels.items()
                      if label.value == NU_ODD and upper.dim == 12)
        assert hits == [(1, 2, 3, 4), (5, 6, 7, 8)]

    def test_sec4_even_det_degrades_to_unknown(self):
        complex_ = infer_attachments(thom_cells(sum_bundle(3, 2)))
        labels = expand_labels(complex_)
        top_labels = {lower.base_indices: label.value
                      for (upper, lower), label in labels.items()
                      if upper.dim == 12 and lower.dim == 8}
        # r2 even kills the detection onto the block-1 volume cell
        assert top_labels[(1, 2, 3, 4)] == UNKNOWN
        assert top_labels[(5, 6, 7, 8)] == NU_ODD

    def test_gap3_unknown_without_flag_trivial_with(self):
        thom = infer_attachments(thom_cells(sum_bundle(3, 5)))
        gap3 = {label.value for (u, l), label in expand_labels(thom).items()
                if u.dim - l.dim == 3}
        assert gap3 == {UNKNOWN}
        sphere = infer_attachments(sphere_bundle_quotient(sum_bundle(3, 5)))
        gap3 = {label.value for (u, l), label in expand_labels(sphere).items()
                if u.dim - l.dim == 3}
        assert gap3 == {TRIVIAL}

    def test_deterministic(self):
        a = infer_attachments(thom_cells(sum_bundle(3, 5)))
        b = infer_attachments(thom_cells(sum_bundle(3, 5)))
        assert a.attachments == b.attachments
        assert expand_labels(a) == expand_labels(b)

    def test_no_labels_on_basepoint(self):
        complex_ = infer_attachments(thom_cells(torus_bundle()))
        basepoint = basepoint_cell(complex_)
        assert basepoint is not None
        for upper, lower in expand_labels(complex_):
            assert basepoint not in (upper, lower)


class TestDetections:
    def test_detected_labels_follow_their_rule(self):
        # w4 = x{1,2,3,4} + x{3,4,5,6} on a hand-built bundle: Sq^4 hits
        # one pair over each of the four lower cells off each block, and
        # Sq^2 hits none (c1 = 0)
        c2 = ExteriorClass({(1, 2, 3, 4): 1, (3, 4, 5, 6): 1}, 6)
        bundle = BundleData(6, QUATERNIONIC, 1, ExteriorClass.zero(6), c2, 1)
        detected = infer_attachments(thom_cells(bundle)).attachments.detected
        assert {label.value for _, label in detected} == {NU_ODD}
        assert len(detected) == 2 * 4
        for (upper, lower), label in detected:
            rule = DETECTION_OF[label.value]
            assert upper.dim - lower.dim == rule.gap
            assert label.justification.startswith(
                f"Sq^{rule.gap} detects {rule.hopf}: ")

    @pytest.mark.parametrize("value, gap, message", [
        ("eta", 3, "label eta on a gap-3 attachment H{1,2,3} -> H{}: "
                   "no rule reads it"),
        ("eta", 2, "label eta on a gap-2 attachment H{1,2} -> H{}: "
                   "no rule reads it"),
        ("eta_sq", 3, "label eta_sq on a gap-3 attachment H{1,2,3} -> H{}: "
                      "no rule reads it"),
        (NU_ODD, 2, "label nu_odd on a gap-2 attachment H{1,2} -> H{}: "
                    "d4 spans gap 4 only"),
    ])
    def test_detected_label_off_its_gap_is_rejected_when_built(
            self, value, gap, message):
        # before any assembly runs. A label no rule reads is off every
        # rule's gap: assembly would take it for an unhandled threat, and
        # a bundle with w2 = 0 never makes an eta label
        lower = StableCell(0, FIBER_THOM, 4)
        upper = StableCell((1 << gap) - 1, FIBER_THOM, 4)
        with pytest.raises(ValueError) as err:
            StableCellComplex((lower, upper), torus_bundle(), "thom",
                              LabelRules({}, {(upper, lower):
                                              AttachLabel(value, "hand")}))
        assert str(err.value) == message

    @pytest.mark.parametrize("value", [TRIVIAL, UNKNOWN])
    @pytest.mark.parametrize("upper_mask, lower_mask, gap", [
        (0b0000, 0b1111, -4),   # H{} -> H{1,2,3,4}
        (0b0001, 0b0010, 0),    # H{1} -> H{2}
    ])
    def test_attachment_not_upward_is_rejected_when_built(
            self, value, upper_mask, lower_mask, gap):
        # an attaching map runs from a cell down to a lower one; an
        # unknown label on such a pair would make a column unknown
        labelled = infer_attachments(thom_cells(torus_bundle(3)))
        upper, lower = (StableCell(mask, FIBER_THOM, 4)
                        for mask in (upper_mask, lower_mask))
        rules = labelled.attachments.rules
        exceptions = {**rules.exceptions,
                      (upper, lower): AttachLabel(value, "hand")}
        with pytest.raises(ValueError) as err:
            labelled._replace(attachments=LabelRules(rules.defaults,
                                                     exceptions))
        assert str(err.value) == (
            f"label {value} on a gap-{gap} attachment {upper.name()} -> "
            f"{lower.name()}: the upper cell must lie above the lower")

    def test_detected_label_on_the_basepoint_is_rejected_when_built(self):
        # the basepoint carries no column for a d4 to kill or reduce
        labelled = infer_attachments(thom_cells(torus_bundle(3)))
        basepoint = basepoint_cell(labelled)
        upper = StableCell(0, FIBER_THOM, 4)
        assert upper.dim - basepoint.dim == DETECTION_OF[NU_ODD].gap
        with pytest.raises(ValueError) as err:
            labelled._replace(attachments=LabelRules({}, {
                (upper, basepoint): AttachLabel(NU_ODD, "hand")}))
        assert str(err.value) == (
            f"label nu_odd on a gap-4 attachment H{{}} -> {basepoint.name()}: "
            "the basepoint has no column")


class TestSuspend:
    def test_sec4_labels_ride_along(self):
        complex_ = suspend(infer_attachments(thom_cells(sum_bundle(3, 5))), 1)
        hits = [(upper.dim, lower.dim)
                for (upper, lower), label in expand_labels(complex_).items()
                if label.value == NU_ODD and upper.dim == 13]
        assert hits == [(13, 9), (13, 9)]

    def test_suspend_zero_is_identity(self):
        complex_ = infer_attachments(thom_cells(torus_bundle()))
        assert suspend(complex_, 0) is complex_

    def test_dim_set_shifts(self):
        complex_ = thom_cells(sum_bundle(1, 1))
        before = sorted(cell.dim for cell in complex_.cells)
        after = sorted(cell.dim for cell in suspend(complex_, 2).cells)
        assert after == [d + 2 for d in before]

    def test_labels_commute_with_suspension(self):
        built = thom_cells(sum_bundle(3, 5))
        first = suspend(infer_attachments(built), 2)
        second = infer_attachments(suspend(built, 2))
        assert first.attachments == second.attachments


class TestSkeletalQuotient:
    def test_sec3_cut(self):
        complex_ = skeletal_quotient(thom_cells(torus_bundle(5)), 5)
        assert complex_.cells_by_dim() == {6: 6, 7: 4, 8: 1}

    def test_negative_cut_is_identity(self):
        complex_ = thom_cells(torus_bundle())
        assert skeletal_quotient(complex_, -1).cells == complex_.cells

    def test_cut_above_top_empties(self):
        complex_ = thom_cells(torus_bundle())
        assert skeletal_quotient(complex_, 8).cells == ()

    def test_slices_equal_the_dimension_filter_at_every_cut(self):
        bundle = sum_bundle(3, 5)
        thom = infer_attachments(thom_cells(bundle, 1))
        sphere = infer_attachments(sphere_bundle_quotient(bundle))
        # a reduced complex whose basepoint (dim 2) is not its lowest cell
        hand_cells = (StableCell(0, "sphere_zero", 0, 2),
                      StableCell(1, "sphere_zero", 0), StableCell(3, "thom", 4),
                      StableCell(0, "sphere_two", 2), StableCell(6, "thom", 4))
        hand = StableCellComplex(hand_cells, bundle, "reduced", LabelRules(
            {1: AttachLabel(TRIVIAL, "hand")},
            {(hand_cells[2], hand_cells[1]): AttachLabel(UNKNOWN, "hand"),
             (hand_cells[4], hand_cells[0]): AttachLabel(UNKNOWN, "hand")}))
        unlabelled = thom_cells(torus_bundle(), 2)
        for complex_ in (thom, sphere, hand, unlabelled):
            top = complex_.top_cell.dim
            for k in range(-1, top + 2):
                cut = skeletal_quotient(complex_, k)
                assert cut.cells == tuple(
                    c for c in complex_.cells if naive_dim(c) > k)
                assert cut.proper_cells == tuple(
                    c for c in complex_.proper_cells if naive_dim(c) > k)
                assert cut == StableCellComplex(
                    cut.cells, complex_.bundle, complex_.basepoint_policy,
                    None if cut.attachments is None
                    else cut.attachments.rules, complex_.gap3_trivial)
                if complex_.attachments is not None:
                    assert dict(cut.attachments.rules.exceptions) == {
                        (u, l): label for (u, l), label
                        in complex_.attachments.rules.exceptions.items()
                        if naive_dim(u) > k and naive_dim(l) > k}


class TestProperCells:
    def test_computed_once_and_left_out_of_repr(self):
        bundle = sum_bundle(3, 5)
        thom = infer_attachments(thom_cells(bundle))
        sphere = infer_attachments(sphere_bundle_quotient(bundle))
        for complex_ in (thom, sphere, skeletal_quotient(thom, 5),
                         suspend(thom, 1), suspend(sphere, 2),
                         suspend(skeletal_quotient(sphere, 3), 1)):
            proper = complex_.proper_cells
            assert proper is complex_.proper_cells
            assert proper == tuple(cell for cell in complex_.cells
                                   if not complex_.is_basepoint(cell))
            assert "proper_cells" not in repr(complex_)
        assert len(thom.proper_cells) == len(thom.cells) - 1

    @pytest.mark.parametrize("spec", [
        pipeline.preset("paper-sec3", det=5),
        pipeline.preset("paper-sec4", det1=3, det2=5),
        pipeline.preset("paper-sec5", det1=3, det2=5),
        pipeline.parse_scenario(thom_rung(9)),
    ], ids=["sec3-cut", "sec4", "sec5", "thom-b1-9"])
    def test_derived_complexes_equal_the_public_constructor(
            self, spec, monkeypatch):
        # infer_attachments and skeletal_quotient keep the order and the
        # proper cells of the complex they are given: no cell is tested
        # for the basepoint again, and what they make is what the
        # constructor makes of the same cells in any order
        k = spec.suspensions
        built = pipeline._stages(spec, k)[2]
        bare = built._replace(attachments=None)
        tested = []
        is_basepoint = StableCellComplex.is_basepoint
        monkeypatch.setattr(StableCellComplex, "is_basepoint",
                            lambda self, cell: tested.append(cell) or
                            is_basepoint(self, cell))
        derived = [infer_attachments(bare)]
        if spec.skeletal_cut is not None:
            derived.append(skeletal_quotient(built, spec.skeletal_cut + k))
        assert tested == []
        monkeypatch.undo()
        for complex_ in derived:
            shuffled = list(complex_.cells)
            random.Random(len(shuffled)).shuffle(shuffled)
            made = StableCellComplex(
                tuple(shuffled), complex_.bundle, complex_.basepoint_policy,
                complex_.attachments.rules, complex_.gap3_trivial)
            assert made == complex_
            assert made.proper_cells == complex_.proper_cells
            assert made.attachments == complex_.attachments
            assert made.attachments.detected == complex_.attachments.detected
        assert derived[0] == built


def lifted_fresh(cells, k, cut=None):
    """The cells of dimension > cut, each made again k dimensions up."""
    return [StableCell(c.base_mask, c.fiber_part, c.fiber_offset,
                       c.suspension + k)
            for c in cells if cut is None or naive_dim(c) > cut]


class TestDerivedIndexes:
    """Every index a complex and its view derive, against a naive
    recomputation from the cells given and the labelling rules."""

    def check(self, complex_, given):
        cells = sorted(given, key=naive_key)
        assert list(complex_.cells) == cells
        if complex_.basepoint_policy == "thom":
            proper = [c for c in cells if c.fiber_part != "point"]
        else:
            proper = [c for c in cells if (c.fiber_part, c.base_mask)
                      != ("sphere_zero", 0)]
        assert list(complex_.proper_cells) == proper
        # Counter keeps first-seen order: dims ascend
        assert list(complex_.cells_by_dim().items()) == list(
            Counter(map(naive_dim, cells)).items())
        if cells:
            assert complex_.top_cell == max(cells, key=naive_key)
        # a selector names the first cell in canonical order over its base
        # mask and fiber part
        for cell in cells[::max(1, len(cells) // 40)]:
            first = [c for c in cells if c.base_mask == cell.base_mask
                     and c.fiber_part == cell.fiber_part][0]
            assert complex_.find_cell(bit_loop_indices(cell.base_mask),
                                      cell.fiber_part) == first
        view = complex_.attachments
        if view is None:
            return
        for dim in range(-5, max(map(naive_dim, cells), default=0) + 6):
            assert view.cells_at(dim) == tuple(
                c for c in proper if naive_dim(c) == dim)
        defaults, exceptions = view.rules
        labels = {(upper, lower): defaults[naive_dim(upper) - naive_dim(lower)]
                  for upper in proper for lower in proper
                  if naive_dim(upper) - naive_dim(lower) in defaults}
        labels.update(exceptions)
        assert view.counts() == Counter(
            (naive_dim(upper) - naive_dim(lower), label.value)
            for (upper, lower), label in labels.items())
        assert len(view) == len(labels)

    def derived(self, built):
        labelled = infer_attachments(built)
        return [(built, built.cells), (labelled, built.cells),
                (skeletal_quotient(built, 5), lifted_fresh(built.cells, 0, 5)),
                (skeletal_quotient(labelled, 5),
                 lifted_fresh(built.cells, 0, 5)),
                (suspend(labelled, 2), lifted_fresh(built.cells, 2)),
                (suspend(skeletal_quotient(labelled, 5), 1),
                 lifted_fresh(built.cells, 1, 5))]

    def test_thom_and_sphere_complexes_cut_and_suspended(self):
        bundle = sum_bundle(3, 5)
        for built in (thom_cells(bundle), sphere_bundle_quotient(bundle)):
            for complex_, given in self.derived(built):
                self.check(complex_, given)

    def test_hand_built_reduced_complex_in_shuffled_order(self):
        bundle = sphere_bundle_quotient(torus_bundle()).bundle
        cells = [StableCell(mask, part, offset) for mask in range(16)
                 for part, offset in (("sphere_zero", 0), ("sphere_two", 2))]
        basepoint = cells[0]
        by_name = {cell.name(): cell for cell in cells}
        exceptions = {
            # down to the basepoint, on and off the default gaps
            (by_name["S0{1,2}"], basepoint): AttachLabel(UNKNOWN, "hand"),
            (by_name["S2{1}"], basepoint): AttachLabel(UNKNOWN, "hand"),
            (by_name["S2{1,2,3,4}"], basepoint): AttachLabel(UNKNOWN, "hand"),
            # a proper pair overriding its default
            (by_name["S2{2,3}"], by_name["S0{1}"]):
                AttachLabel(UNKNOWN, "hand"),
        }
        defaults = {1: AttachLabel(TRIVIAL, "hand"),
                    2: AttachLabel(TRIVIAL, "hand"),
                    3: AttachLabel(UNKNOWN, "hand")}
        for seed in range(5):
            shuffled = list(cells)
            random.Random(seed).shuffle(shuffled)
            complex_ = StableCellComplex(tuple(shuffled), bundle, "reduced",
                                         LabelRules(defaults, exceptions))
            assert complex_.attachments.counts()[(2, UNKNOWN)] == 1
            self.check(complex_, shuffled)
            self.check(suspend(complex_, 3), lifted_fresh(cells, 3))
            self.check(skeletal_quotient(complex_, 1),
                       lifted_fresh(cells, 0, 1))


class TestFindCell:
    def test_a_missing_cell_names_its_base_and_fiber(self):
        complex_ = skeletal_quotient(thom_cells(torus_bundle(5)), 5)
        for base, part in (((1,), FIBER_THOM), ((), "point"),
                           ((1, 2, 3), "sphere_two"), ((9,), FIBER_THOM)):
            with pytest.raises(KeyError) as err:
                complex_.find_cell(base, part)
            assert err.value.args == (
                f"no cell with base {base} and fiber {part}",)


class TestBornSuspended:
    """A complex whose cells are made at their final dimension equals
    the oracle suspension of the unsuspended complex, field by field."""

    @staticmethod
    def assert_same(born, oracle):
        assert born.cells == oracle.cells           # in canonical order
        assert [c.name() for c in born.cells] == \
            [c.name() for c in oracle.cells]
        assert [c.dim for c in born.cells] == [c.dim for c in oracle.cells]
        assert born.proper_cells == oracle.proper_cells
        assert born.cells_by_dim() == oracle.cells_by_dim()
        assert (born.bundle, born.basepoint_policy, born.gap3_trivial) == \
            (oracle.bundle, oracle.basepoint_policy, oracle.gap3_trivial)
        if born.cells:
            assert born.top_cell == oracle.top_cell
        if oracle.attachments is None:
            assert born.attachments is None
            return
        mine, theirs = born.attachments, oracle.attachments
        assert label_counts(mine) == label_counts(theirs)
        assert dict(mine.rules.defaults) == dict(theirs.rules.defaults)
        assert list(mine.rules.exceptions.items()) == \
            list(theirs.rules.exceptions.items())
        assert mine.detected == theirs.detected

    @pytest.mark.parametrize("dets", [(3, 5), (2, 3)], ids=["odd", "even"])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_thom_and_sphere_built_at_k(self, dets, k):
        bundle = sum_bundle(*dets)
        detected = 0
        for build, cut in ((thom_cells, 5), (sphere_bundle_quotient, 3)):
            plain = build(bundle)
            born = build(bundle, k)
            self.assert_same(born, suspend(plain, k))
            labelled = infer_attachments(born)
            oracle = suspend(infer_attachments(plain), k)
            self.assert_same(labelled, oracle)
            self.assert_same(skeletal_quotient(labelled, cut + k),
                             suspend(skeletal_quotient(
                                 infer_attachments(plain), cut), k))
            detected += len(labelled.attachments.detected)
        assert detected

    def test_a_negative_suspension_is_rejected(self):
        for build in (thom_cells, sphere_bundle_quotient):
            with pytest.raises(ValueError, match="suspension"):
                build(torus_bundle(), -1)


class TestSphereBundleQuotient:
    def test_dim_table_rank_eight(self):
        complex_ = sphere_bundle_quotient(sum_bundle(3, 5))
        by_dim = complex_.cells_by_dim()
        for d in range(0, 11):
            base = sum(1 for _ in combinations(range(8), d))
            fiber = sum(1 for _ in combinations(range(8), d - 2)) if d >= 2 else 0
            assert by_dim.get(d, 0) == base + fiber

    def test_counts_after_double_suspension(self):
        complex_ = suspend(sphere_bundle_quotient(sum_bundle(3, 5)), 2)
        by_dim = complex_.cells_by_dim()
        assert by_dim[11] == 8   # binom(8,7) fiber 2-cells
        assert by_dim[12] == 1   # the full-subset fiber 2-cell
        # the stray dim-10 contribution beyond binom(8,6)=28: the full-subset
        # fiber 0-cell
        assert by_dim[10] == 28 + 1

    def test_bundle_over_a_point_gives_sphere_model(self):
        from thomstem.chern import ManifoldData
        m = ManifoldData(b1=0, quad_form={}, signature=0, b_plus=3)
        complex_ = sphere_bundle_quotient(index_bundle(m))
        assert sorted(cell.dim for cell in complex_.cells) == [0, 2]
        assert basepoint_cell(complex_) is not None
        assert basepoint_cell(complex_).dim == 0

    def test_quotient_bundle_has_no_sw_classes(self):
        g = sphere_bundle_quotient(sum_bundle(3, 5)).bundle
        assert g.field == "real" and g.rank == 3
        assert all(g.w_class(i).is_zero for i in range(1, 4))

    def test_rejects_higher_rank(self):
        bundle = torus_bundle()
        fake = type(bundle)(base_rank=4, field=bundle.field, rank=2,
                            c1=bundle.c1, c2=bundle.c2,
                            sphere_shift=2)
        with pytest.raises(ValueError):
            sphere_bundle_quotient(fake)


class TestCellNames:
    TAGS = {"point": "*", "thom": "H", "sphere_zero": "S0", "sphere_two": "S2"}

    def fresh_name(self, cell):
        mask = cell.base_mask
        base = "{" + ",".join(str(k + 1) for k in range(mask.bit_length())
                              if mask >> k & 1) + "}"
        suffix = f"+{cell.suspension}" if cell.suspension else ""
        return f"{self.TAGS[cell.fiber_part]}{base}{suffix}"

    def test_name_equals_fresh_formatting(self):
        bundle = sum_bundle(3, 5)
        for built in (thom_cells(bundle), sphere_bundle_quotient(bundle)):
            for complex_ in (built, suspend(built, 2),
                             suspend(skeletal_quotient(built, 5), 1)):
                for cell in complex_.cells:
                    assert cell.name() == self.fresh_name(cell) == str(cell)
                    base = cell.base_indices
                    assert base == Monomial(cell.base_mask).indices
                    assert cell.base_indices is base

    def test_every_fiber_and_suspension_matches_fresh_formatting(self):
        masks = [*range(1 << 7), (1 << 11) | 1, (1 << 12) - 1, 1 << 40,
                 (1 << 79) | (1 << 64) | (1 << 63) | 1]
        for part, offset in (("point", 0), (FIBER_THOM, 4),
                             ("sphere_zero", 0), ("sphere_two", 2)):
            for suspension in (0, 1, 2):
                for mask in masks:
                    cell = StableCell(mask, part, offset, suspension)
                    assert cell.name() == self.fresh_name(cell)
                    assert cell.base_indices == bit_loop_indices(mask)
                    twin = StableCell(mask, part, offset, suspension + 1)
                    assert twin.base_indices is cell.base_indices

    def test_cell_is_the_tuple_of_its_order_and_fields(self):
        def make():
            return StableCell(0b1011, FIBER_THOM, 4, 2)
        named, plain = make(), make()
        before = (repr(named), hash(named))
        assert named.name() == "H{1,2,4}+2"
        assert (repr(named), hash(named)) == before
        assert named == plain and hash(named) == hash(plain)
        assert tuple(named) == (9, FIBER_PARTS.index(FIBER_THOM), 0b1011, 2,
                                FIBER_THOM, 4)
        assert (named.dim, named.base_mask, named.fiber_part,
                named.fiber_offset, named.suspension) == (9, 11, "thom", 4, 2)
        assert repr(named) == ("StableCell(base_mask=11, fiber_part='thom', "
                               "fiber_offset=4, suspension=2)")
        assert not hasattr(named, "__dict__")

    def test_setting_an_attribute_raises(self):
        cell = StableCell(0b1011, FIBER_THOM, 4, 2)
        for name in ("dim", "base_mask", "fiber_part", "fiber_offset",
                     "suspension", "_name", "other"):
            with pytest.raises(AttributeError):
                setattr(cell, name, 0)
        assert cell == StableCell(0b1011, FIBER_THOM, 4, 2)

    def test_tuple_order_is_the_canonical_order(self):
        masks = [*range(1 << 6), (1 << 11) | 1, (1 << 12) - 1, 1 << 40,
                 (1 << 40) | 1, 1 << 63, 1 << 64, 1 << 79,
                 (1 << 79) | (1 << 64) | (1 << 63) | 1, (1 << 80) - 1]
        cells = [StableCell(mask, part, offset, suspension)
                 for part, offset in (("point", 0), (FIBER_THOM, 4),
                                      ("sphere_zero", 0), ("sphere_two", 2))
                 for suspension in range(4) for mask in masks]
        assert len(set(cells)) == len(cells)
        for seed in range(3):
            random.Random(seed).shuffle(cells)
            assert sorted(cells) == sorted(cells, key=naive_key)
            assert max(cells) == max(cells, key=naive_key)

    def test_negative_mask_rejected_when_made(self):
        # only made, never named: the bit loop of a negative mask never ends
        for mask, part, offset in ((-3, FIBER_THOM, 4), (-1, "point", 0),
                                   (-(1 << 70), "sphere_two", 2)):
            with pytest.raises(ValueError, match="nonnegative"):
                StableCell(mask, part, offset)

    def test_unknown_fiber_and_negative_suspension_rejected_when_made(self):
        for part in ("H", "", "Thom", None):
            with pytest.raises(ValueError, match="unknown fiber part"):
                StableCell(1, part, 4)
        for suspension in (-1, -(1 << 70)):
            with pytest.raises(ValueError, match="suspension"):
                StableCell(1, FIBER_THOM, 4, suspension)
        cell = StableCell(1, FIBER_THOM, 4, 2)
        with pytest.raises(ValueError, match="suspension"):
            cell.suspended(-1)

    def test_non_int_fields_rejected_when_made(self):
        """A bool, a float or an int subclass would reach the cell's dim,
        its name and its report row: `StableCell(1, "thom", 4, True)` was
        once named `H{1}+True`, and a suspension of 0.5 made a cell of dim
        5.5. Each is refused, naming its field."""
        class Count(int):
            pass

        where = {"base_mask": 0, "fiber_offset": 2, "suspension": 3}
        for field, args in (
                ("base_mask", (True, FIBER_THOM, 4)),
                ("base_mask", (1.0, FIBER_THOM, 4)),
                ("base_mask", (Count(1), FIBER_THOM, 4)),
                ("fiber_offset", (1, FIBER_THOM, 4.0)),
                ("fiber_offset", (1, FIBER_THOM, False)),
                ("suspension", (1, FIBER_THOM, 4, True)),
                ("suspension", (1, FIBER_THOM, 4, 0.5)),
                ("suspension", (1, FIBER_THOM, 4, Count(2)))):
            kind = type(args[where[field]]).__name__
            with pytest.raises(ValueError,
                               match=f"^{field} must be an int, not {kind}$"):
                StableCell(*args)
        with pytest.raises(ValueError, match="^suspension must be an int"):
            StableCell(1, FIBER_THOM, 4, 2).suspended(0.5)

    def test_suspended_equals_the_cell_made_fresh(self):
        masks = [0, 1, 0b1011, (1 << 12) - 1, 1 << 40, 1 << 79,
                 (1 << 79) | (1 << 64) | 1]
        for part, offset in (("point", 0), (FIBER_THOM, 4),
                             ("sphere_zero", 0), ("sphere_two", 2)):
            for mask in masks:
                for suspension in (0, 1, 3):
                    cell = StableCell(mask, part, offset, suspension)
                    for k in (0, 1, 2, 7):
                        lifted = cell.suspended(k)
                        fresh = StableCell(mask, part, offset, suspension + k)
                        assert type(lifted) is StableCell
                        assert lifted == fresh
                        assert hash(lifted) == hash(fresh)
                        assert repr(lifted) == repr(fresh)
                        assert lifted[:4] == fresh[:4] == naive_key(fresh)
                        assert lifted.dim == fresh.dim
                        assert lifted.name() == fresh.name()
                        with pytest.raises(AttributeError):
                            lifted.suspension = 0

    def test_hash_and_equality_are_the_tuple_s(self):
        cells = [StableCell(mask, part, offset, suspension)
                 for mask in (0, 0b1011, 1 << 40)
                 for part, offset in (("point", 0), (FIBER_THOM, 4),
                                      ("sphere_two", 2))
                 for suspension in (0, 3)]
        for cell in cells:
            twin = StableCell(cell.base_mask, cell.fiber_part,
                              cell.fiber_offset, cell.suspension)
            assert twin == cell and hash(twin) == hash(cell)
            assert cell == tuple(cell) and hash(cell) == hash(tuple(cell))
            lifted = cell.suspended(2)
            assert lifted != cell and hash(lifted) != hash(cell)
        # the four constructor arguments tell cells apart
        fields_of = {(c.base_mask, c.fiber_part, c.fiber_offset, c.suspension)
                     for c in cells}
        assert len(set(cells)) == len(fields_of) == len(cells)
