"""Manifold constructors, the index Chern character against the brute-force
oracle, and the packaged index bundle."""

import copy
import pickle
import random

import pytest

from helpers import as_tuple_terms, oracle_chern_character
from thomstem.ahss import assemble
from thomstem.chern import (QUATERNIONIC, REAL, BundleData, ManifoldData,
                            chern_character_index, connected_sum,
                            index_bundle, make_homology_torus)
from thomstem.exterior import ExteriorClass
from thomstem.thom import infer_attachments, thom_cells

DET_GRID = [-5, -3, -2, -1, 1, 2, 3, 4, 5, 7]


class TestHomologyTorus:
    def test_standard_torus(self):
        m = make_homology_torus(1)
        assert (m.b1, m.signature, m.b_plus) == (4, 0, 3)
        assert m.quad_form == {(1, 2, 3, 4): 1}

    def test_constructor_echo(self):
        assert make_homology_torus(5).quad_form == {(1, 2, 3, 4): 5}

    def test_zero_determinant_rejected(self):
        with pytest.raises(ValueError):
            make_homology_torus(0)

    def test_quad_form_is_read_only(self):
        given = {(1, 2, 3, 4): 3}
        m = ManifoldData(b1=4, quad_form=given)
        with pytest.raises(TypeError):
            m.quad_form[(1, 2, 3, 4)] = 5
        given[(1, 2, 3, 4)] = 5
        assert m.quad_form == {(1, 2, 3, 4): 3}

    def test_quad_form_copies_and_pickles_read_only(self):
        m = make_homology_torus(3)
        for copied in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert copied == m and copied.quad_form == m.quad_form
            quad = copied.quad_form
            for change in (lambda: quad.update({(1, 2, 3, 5): 1}),
                           lambda: quad.pop((1, 2, 3, 4)), quad.popitem,
                           quad.clear, lambda: quad.setdefault((1,), 1),
                           lambda: quad.__delitem__((1, 2, 3, 4)),
                           lambda: quad.__ior__({})):
                with pytest.raises(TypeError):
                    change()
            with pytest.raises(AttributeError):
                quad.note = "mutable"
            assert quad == {(1, 2, 3, 4): 3}

    def test_equal_manifolds_hash_equal(self):
        a, b = make_homology_torus(3), make_homology_torus(3)
        assert a == b and hash(a) == hash(b)
        assert a != ManifoldData(b1=4, quad_form={(1, 2, 3, 4): 5},
                                 label=a.label)
        assert len({a, b, make_homology_torus(5)}) == 2

    def test_quad_form_validation(self):
        with pytest.raises(ValueError):
            ManifoldData(b1=4, quad_form={(1, 2, 3): 1})
        with pytest.raises(ValueError):
            ManifoldData(b1=3, quad_form={(1, 2, 3, 4): 1})


class TestConnectedSum:
    def test_block_sum(self):
        s = connected_sum(make_homology_torus(1), make_homology_torus(1))
        assert s.b1 == 8
        assert s.quad_form == {(1, 2, 3, 4): 1, (5, 6, 7, 8): 1}

    def test_determinants_land_in_blocks(self):
        s = connected_sum(make_homology_torus(3), make_homology_torus(5))
        assert s.quad_form == {(1, 2, 3, 4): 3, (5, 6, 7, 8): 5}
        assert s.b_plus == 6
        assert s.signature == 0

    def test_identity_summand(self):
        empty = ManifoldData(b1=0, quad_form={}, signature=0, b_plus=0,
                             label="point-like")
        m = make_homology_torus(7)
        assert connected_sum(m, empty).quad_form == m.quad_form
        assert connected_sum(empty, m).quad_form == m.quad_form

    def test_commutative_up_to_block_swap(self):
        m1, m2 = make_homology_torus(3), make_homology_torus(5)
        ab = connected_sum(m1, m2)
        ba = connected_sum(m2, m1)
        swap = {k: k + 4 if k <= 4 else k - 4 for k in range(1, 9)}
        swapped = {tuple(sorted(swap[k] for k in subset)): value
                   for subset, value in ba.quad_form.items()}
        assert swapped == ab.quad_form


class TestChernCharacter:
    def test_connected_sum_grid_against_oracle(self):
        for r1 in DET_GRID:
            for r2 in DET_GRID:
                m = connected_sum(make_homology_torus(r1),
                                  make_homology_torus(r2))
                ch = chern_character_index(m)
                want = oracle_chern_character(m)
                for part, degree in zip(ch, (0, 2, 4)):
                    assert as_tuple_terms(part) == want[degree]
                assert ch[0].is_zero and ch[1].is_zero
                assert as_tuple_terms(ch[2]) == {(1, 2, 3, 4): r1,
                                                 (5, 6, 7, 8): r2}

    def test_single_torus(self):
        for d in (-3, 1, 2, 7):
            ch = chern_character_index(make_homology_torus(d))
            assert as_tuple_terms(ch[2]) == {(1, 2, 3, 4): d}
            assert ch[0].is_zero and ch[1].is_zero

    def test_zero_quad_form(self):
        m = ManifoldData(b1=4, quad_form={}, signature=0, b_plus=3)
        assert all(part.is_zero for part in chern_character_index(m))

    def test_nonzero_signature_rejected(self):
        m = ManifoldData(b1=4, quad_form={(1, 2, 3, 4): 1}, signature=16)
        with pytest.raises(ValueError):
            chern_character_index(m)

    def test_general_quad_form_against_oracle(self):
        # not block-diagonal: one hand-picked form, then 30 seeded random
        # ones whose 4-subsets overlap, with signed and even values
        forms = [ManifoldData(b1=6, quad_form={(1, 2, 3, 4): 2,
                                               (1, 2, 5, 6): -3,
                                               (3, 4, 5, 6): 7})]
        for seed in range(30):
            rng = random.Random(seed)
            b1 = rng.randint(4, 9)
            subset = rng.sample(range(1, b1 + 1), 4)
            quad = {}
            for _ in range(rng.randint(1, 6)):
                quad[tuple(sorted(subset))] = rng.choice(
                    [v for v in range(-8, 9) if v])
                # the next subset keeps one generator of this one
                keep = rng.choice(subset)
                subset = [keep] + rng.sample(
                    [k for k in range(1, b1 + 1) if k != keep], 3)
            forms.append(ManifoldData(b1=b1, quad_form=quad))
        for m in forms:
            ch = chern_character_index(m)
            want = oracle_chern_character(m)
            assert [as_tuple_terms(part) for part in ch] == \
                [want[d] for d in (0, 2, 4)], m.quad_form


class TestIndexBundle:
    def test_single_torus_bundle(self):
        b = index_bundle(make_homology_torus(5))
        assert b.field == QUATERNIONIC and b.rank == 1
        assert b.c1.is_zero
        assert as_tuple_terms(b.c2) == {(1, 2, 3, 4): -5}
        assert b.sphere_shift == 1  # m - n = -signature/4 with m = 1
        assert b.w_class(2).is_zero
        assert as_tuple_terms(b.w_class(4)) == {(1, 2, 3, 4): 1}

    def test_w4_parity(self):
        # mod-2 c2 keeps exactly the odd-determinant volume classes
        for r1, r2, want in [
            (3, 5, {(1, 2, 3, 4): 1, (5, 6, 7, 8): 1}),
            (3, 2, {(1, 2, 3, 4): 1}),
            (2, 5, {(5, 6, 7, 8): 1}),
            (2, 4, {}),
        ]:
            m = connected_sum(make_homology_torus(r1), make_homology_torus(r2))
            assert as_tuple_terms(index_bundle(m).w_class(4)) == want

    def test_trivial_bundle(self):
        m = ManifoldData(b1=4, quad_form={}, signature=0, b_plus=3)
        b = index_bundle(m)
        assert b.c2.is_zero and b.w_class(4).is_zero


def _bundle(c1_terms, c2_terms, field=QUATERNIONIC, rank=1):
    return BundleData(6, field, rank, ExteriorClass(c1_terms, 6),
                      ExteriorClass(c2_terms, 6), 1)


class TestBundleReadMod2:
    """The Stiefel-Whitney classes are w2 = c1 mod 2 and w4 = c2 mod 2,
    so labels and assembly see a bundle only through those reductions."""

    def test_equal_reductions_give_equal_labels_and_assembly(self):
        # c1 and c2 agree mod 2 but differ as integers, in support too
        one = _bundle({(1, 2): 1, (3, 5): -1},
                      {(1, 2, 3, 4): -3, (3, 4, 5, 6): 1})
        other = _bundle({(1, 2): 3, (3, 5): 5, (2, 6): 2},
                        {(1, 2, 3, 4): 5, (3, 4, 5, 6): -7, (1, 2, 5, 6): 4})
        assert one.c1 != other.c1 and one.c2 != other.c2
        for i in range(1, 5):
            assert one.w_class(i) == other.w_class(i)
        built = [infer_attachments(thom_cells(b)) for b in (one, other)]
        assert built[0].attachments.rules == built[1].attachments.rules
        assert built[0].attachments.detected       # both rules fire
        for target in range(3, 10):
            a, b = (assemble(complex_, target) for complex_ in built)
            assert a.entries == b.entries
            assert a.notes == b.notes
            assert a.differentials == b.differentials

    def test_w_is_not_an_input(self):
        zero2 = ExteriorClass.zero(4, modulus=2)
        with pytest.raises(TypeError):
            BundleData(base_rank=4, field=QUATERNIONIC, rank=1,
                       c1=ExteriorClass.zero(4),
                       c2=ExteriorClass({(1, 2, 3, 4): 1}, 4),
                       w=(zero2, zero2, zero2, zero2), sphere_shift=1)

    @pytest.mark.parametrize("c1, c2, name", [
        ({(1, 2): 1}, {}, "c1"),
        ({}, {(1, 2, 3, 4): 2}, "c2"),
    ])
    def test_real_bundle_has_no_chern_class(self, c1, c2, name):
        with pytest.raises(ValueError, match=f"real bundle needs {name} = 0"):
            _bundle(c1, c2, field=REAL, rank=3)

    @pytest.mark.parametrize("bundle", [
        index_bundle(connected_sum(make_homology_torus(3),
                                   make_homology_torus(5))),
        _bundle({(1, 2): 3, (2, 6): 1}, {(1, 2, 3, 4): -5}),
    ], ids=["index", "c1"])
    def test_copy_and_pickle(self, bundle):
        for copied in (copy.deepcopy(bundle),
                       pickle.loads(pickle.dumps(bundle))):
            assert copied == bundle
            assert copied.w_class(2) == bundle.w_class(2)
