"""Exterior-algebra arithmetic: pinned examples plus randomized axioms."""

import random

import pytest

from helpers import (as_tuple_terms, bit_loop_indices, bit_loop_str,
                     bubble_wedge, random_class)
from thomstem import exterior
from thomstem.exterior import (ExteriorClass, Monomial, RankMismatchError,
                               sq_torus)


def gen(k, rank=4):
    return ExteriorClass.generator(k, rank)


class TestWedge:
    def test_adjacent_merge(self):
        assert gen(1).wedge(gen(2)) == ExteriorClass.monomial([1, 2], 4)

    def test_exterior_square(self):
        assert gen(1).wedge(gen(1)).is_zero

    def test_one_transposition(self):
        assert gen(2).wedge(gen(1)) == ExteriorClass.monomial([1, 2], 4, coeff=-1)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            gen(1, 4).wedge(gen(1, 5))

    def test_unit(self):
        x = ExteriorClass.monomial([2, 3], 4, coeff=7)
        assert ExteriorClass.unit(4).wedge(x) == x
        assert x.wedge(ExteriorClass.unit(4)) == x


class TestModuleOps:
    """The Z-module structure: add and scale."""

    def test_add_cancels(self):
        assert gen(1).add(gen(1).scale(-1)).is_zero

    def test_scale(self):
        assert ExteriorClass.monomial([1, 2], 4).scale(2) == \
            ExteriorClass.monomial([1, 2], 4, coeff=2)

    def test_add_two_terms(self):
        s = ExteriorClass.monomial([1, 2], 4).add(
            ExteriorClass.monomial([3, 4], 4))
        assert as_tuple_terms(s) == {(1, 2): 1, (3, 4): 1}

    def test_modulus_mixing_rejected(self):
        with pytest.raises(ValueError):
            gen(1).add(gen(1).mod2())


class TestMod2:
    def test_even_coefficient_dies(self):
        assert ExteriorClass.monomial([1, 2], 4, coeff=2).mod2().is_zero

    def test_odd_coefficient_normalizes(self):
        reduced = ExteriorClass.monomial([1, 2], 4, coeff=3).mod2()
        assert as_tuple_terms(reduced) == {(1, 2): 1}
        assert reduced.modulus == 2

    def test_odd_volume_pair(self):
        # both determinants odd: the reduction keeps both volume classes
        vols = ExteriorClass({(1, 2, 3, 4): 3, (5, 6, 7, 8): 5}, 8)
        assert as_tuple_terms(vols.mod2()) == {(1, 2, 3, 4): 1, (5, 6, 7, 8): 1}


class TestSq:
    def test_sq0_is_identity(self):
        x = ExteriorClass.monomial([1, 2], 4, modulus=2)
        assert sq_torus(0, x) == x

    def test_sq1_vanishes(self):
        assert sq_torus(1, ExteriorClass.generator(1, 4, modulus=2)).is_zero

    def test_sq2_vanishes_on_top(self):
        top = ExteriorClass.monomial([1, 2, 3, 4], 4, modulus=2)
        assert sq_torus(2, top).is_zero

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            sq_torus(-1, ExteriorClass.unit(4, modulus=2))


class TestTopCoefficient:
    def test_full_monomial(self):
        assert ExteriorClass.monomial([1, 2, 3, 4], 4, coeff=5).top_coefficient() == 5

    def test_missing_full_monomial(self):
        assert ExteriorClass.monomial([1, 2], 4).top_coefficient() == 0

    def test_volume_product_on_rank_eight(self):
        vol1 = ExteriorClass.monomial([1, 2, 3, 4], 8)
        vol2 = ExteriorClass.monomial([5, 6, 7, 8], 8)
        assert vol1.wedge(vol2).top_coefficient() == 1


class TestBeyondMachineWords:
    """Masks wider than 64 bits and coefficients wider than 64 bits."""

    def test_rank_80_wedge_sign(self):
        a, b = gen(1, 80), gen(70, 80)
        pair = ExteriorClass.monomial([1, 70], 80)
        assert a.wedge(b) == pair
        assert b.wedge(a) == pair.scale(-1)
        assert a.wedge(a).is_zero

    def test_rank_80_linear_ops(self):
        a, b = gen(1, 80), gen(70, 80)
        pair = ExteriorClass.monomial([1, 70], 80)
        assert as_tuple_terms(a.add(b)) == {(1,): 1, (70,): 1}
        assert as_tuple_terms(pair.scale(3)) == {(1, 70): 3}
        assert as_tuple_terms(a.add(b.scale(-1))) == {(1,): 1, (70,): -1}
        assert pair.add(pair.scale(-1)).is_zero

    def test_rank_80_mod2(self):
        pair = ExteriorClass.monomial([1, 70], 80)
        assert as_tuple_terms(pair.scale(3).mod2()) == {(1, 70): 1}
        assert pair.scale(2).mod2().is_zero

    def test_big_coefficients_are_exact(self):
        big = 10 ** 40 + 1
        x = ExteriorClass.monomial([1, 2], 4, coeff=big)
        y = ExteriorClass.monomial([3, 4], 4, coeff=big)
        assert as_tuple_terms(x.wedge(y)) == {(1, 2, 3, 4): big * big}


class TestMonomial:
    def test_indices_roundtrip(self):
        m = Monomial.from_indices([2, 5, 7])
        assert m.indices == (2, 5, 7)
        assert m.degree == 3
        for mask in [*range(1 << 10), 1 << 70, (1 << 65) | 5]:
            indices = Monomial(mask).indices
            assert indices == tuple(sorted(indices))
            assert Monomial.from_indices(indices).mask == mask

    def test_repeated_index_rejected(self):
        with pytest.raises(ValueError):
            Monomial.from_indices([1, 1])

    def test_negative_mask_rejected_when_made(self):
        # only made, never read: the bit loop of a negative mask never ends
        for mask in (-1, -3, -(1 << 70)):
            with pytest.raises(ValueError, match="nonnegative"):
                Monomial(mask)


# every mask of the spec limit (b1 <= 12), and masks past the machine words
TEXT_MASKS = [*range(1 << 12), 1 << 40, 1 << 63, 1 << 64, 1 << 79,
              (1 << 79) | (1 << 64) | (1 << 63) | (1 << 40) | 0b101,
              (1 << 64) - 1, (1 << 80) - 1]


class TestMaskText:
    """Indices and text come from the mask table: equal to a fresh bit
    loop, and the same objects on every read."""

    def test_indices_and_text_match_the_bit_loop(self):
        for mask in TEXT_MASKS:
            mono = Monomial(mask)
            assert mono.indices == bit_loop_indices(mask), mask
            assert str(mono) == bit_loop_str(mask), mask
            assert Monomial(mask).indices is mono.indices

    def test_table_is_filled_per_mask_not_per_rank(self):
        mask = (1 << 79) | (1 << 41)
        exterior._MASK_TEXT.pop(mask, None)
        before = len(exterior._MASK_TEXT)
        assert Monomial(mask).indices == (42, 80)
        assert str(Monomial(mask)) == "{42,80}"
        assert len(exterior._MASK_TEXT) == before + 1

    def test_entries_are_immutable(self):
        for mask in (0, 0b1011, 1 << 79):
            indices, text = exterior.mask_text(mask)
            assert type(indices) is tuple and type(text) is str
            assert text == ",".join(map(str, bit_loop_indices(mask)))


class TestRandomizedAxioms:
    """Algebra axioms over seeded random classes, rank <= 8."""

    def test_wedge_matches_bubble_oracle(self):
        rng = random.Random(20260810)
        for _ in range(400):
            rank = rng.randint(0, 8)
            a = random_class(rng, rank)
            b = random_class(rng, rank)
            got = as_tuple_terms(a.wedge(b))
            want = bubble_wedge(as_tuple_terms(a), as_tuple_terms(b))
            assert got == want

    def test_associative_and_bilinear(self):
        rng = random.Random(7)
        for _ in range(300):
            rank = rng.randint(0, 8)
            a, b, c = (random_class(rng, rank) for _ in range(3))
            assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))
            assert a.wedge(b.add(c)) == a.wedge(b).add(a.wedge(c))
            n = rng.randint(-5, 5)
            assert a.wedge(b.scale(n)) == a.wedge(b).scale(n)

    def test_graded_commutativity(self):
        rng = random.Random(11)
        for _ in range(300):
            rank = rng.randint(1, 8)
            da = rng.randint(0, rank)
            db = rng.randint(0, rank)
            a = random_class(rng, rank, degree=da)
            b = random_class(rng, rank, degree=db)
            sign = -1 if (da * db) % 2 else 1
            assert a.wedge(b) == b.wedge(a).scale(sign)

    def test_odd_degree_squares_vanish(self):
        rng = random.Random(13)
        for _ in range(200):
            rank = rng.randint(1, 8)
            deg = rng.choice([d for d in range(1, rank + 1) if d % 2 == 1])
            a = random_class(rng, rank, degree=deg)
            assert a.wedge(a).is_zero

    def test_mod2_is_a_ring_morphism(self):
        rng = random.Random(17)
        for _ in range(300):
            rank = rng.randint(0, 8)
            a = random_class(rng, rank)
            b = random_class(rng, rank)
            assert a.wedge(b).mod2() == a.mod2().wedge(b.mod2())

    def test_cartan_formula_is_vacuous(self):
        rng = random.Random(19)
        for _ in range(100):
            rank = rng.randint(0, 6)
            x = random_class(rng, rank, modulus=2)
            y = random_class(rng, rank, modulus=2)
            for n in (1, 2, 3):
                lhs = sq_torus(n, x.wedge(y))
                rhs = ExteriorClass.zero(rank, 2)
                for i in range(n + 1):
                    rhs = rhs.add(sq_torus(i, x).wedge(sq_torus(n - i, y)))
                assert lhs == rhs
                assert lhs.is_zero
