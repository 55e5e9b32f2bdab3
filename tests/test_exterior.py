"""Exterior-algebra classes and the wedge oracle the tests multiply with.

The package keeps no ring product: ch_2 comes in closed form, and each
Steenrod detection reads only the support of a Stiefel-Whitney class. So
`ExteriorClass` is checked here for its constructor's contract, `scale`,
`mod2`, text and the mask table, at rank 80 and with 10^40 coefficients
too. The one wedge left is `helpers.bubble_wedge`, which `sq_thom` (and
through it the dense label oracle) stands on; its signs and its algebra
axioms are pinned here on {index tuple: coefficient} maps.
"""

import random
from collections import Counter

import pytest

from helpers import (as_tuple_terms, bit_loop_indices, bit_loop_str,
                     bubble_wedge, random_class)
from thomstem import exterior
from thomstem.exterior import ExteriorClass, Monomial


def terms_of(rng, rank, **kwargs):
    """A seeded random class as an {index tuple: coefficient} map."""
    return as_tuple_terms(random_class(rng, rank, **kwargs))


class TestConstructor:
    @pytest.mark.parametrize("terms, rank, modulus, message", [
        ({(1, 5): 1}, 4, 0, "exceeds ambient rank 4"),
        ({(1, 2): 1, 3: 2}, 4, 0, "duplicate monomial"),  # mask 3 is {1,2}
        ({(1, 2): 1}, 4, 3, "modulus must be 0"),
        ({}, -1, 0, "ambient rank must be nonnegative"),
    ], ids=["beyond-rank", "duplicate-key", "modulus-3", "negative-rank"])
    def test_rejects_with_value_error(self, terms, rank, modulus, message):
        with pytest.raises(ValueError, match=message):
            ExteriorClass(terms, rank, modulus)


class TestWedge:
    """The bubble oracle's product on index-tuple maps; a class's rank,
    which the product once checked, now shows only in equality."""

    def test_adjacent_merge(self):
        assert bubble_wedge({(1,): 1}, {(2,): 1}) == {(1, 2): 1}

    def test_exterior_square(self):
        assert bubble_wedge({(1,): 1}, {(1,): 1}) == {}

    def test_one_transposition(self):
        assert bubble_wedge({(2,): 1}, {(1,): 1}) == {(1, 2): -1}

    def test_rank_mismatch(self):
        # same terms, different rank: different classes
        x4, x5 = ExteriorClass({1: 1}, 4), ExteriorClass({1: 1}, 5)
        assert as_tuple_terms(x4) == as_tuple_terms(x5)
        assert x4 != x5

    def test_unit(self):
        x = {(2, 3): 7}
        assert bubble_wedge({(): 1}, x) == x
        assert bubble_wedge(x, {(): 1}) == x


class TestModuleOps:
    """The Z-module structure that is left: scale, and the modulus."""

    def test_scale(self):
        assert ExteriorClass({(1, 2): 1}, 4).scale(2) == \
            ExteriorClass({(1, 2): 2}, 4)

    def test_modulus_mixing_rejected(self):
        # an integer class and its mod-2 reduction are different values
        x = ExteriorClass({1: 1}, 4)
        assert as_tuple_terms(x) == as_tuple_terms(x.mod2())
        assert x != x.mod2()


class TestMod2:
    def test_even_coefficient_dies(self):
        assert ExteriorClass({(1, 2): 2}, 4).mod2().is_zero

    def test_odd_coefficient_normalizes(self):
        reduced = ExteriorClass({(1, 2): 3}, 4).mod2()
        assert as_tuple_terms(reduced) == {(1, 2): 1}
        assert reduced.modulus == 2

    def test_odd_volume_pair(self):
        # both determinants odd: the reduction keeps both volume classes
        vols = ExteriorClass({(1, 2, 3, 4): 3, (5, 6, 7, 8): 5}, 8)
        assert as_tuple_terms(vols.mod2()) == {(1, 2, 3, 4): 1, (5, 6, 7, 8): 1}


class TestTopCoefficient:
    def test_volume_product_on_rank_eight(self):
        # the product of the two volume classes is the top monomial, with
        # coefficient 1 in either order
        vol1, vol2 = {(1, 2, 3, 4): 1}, {(5, 6, 7, 8): 1}
        full = {(1, 2, 3, 4, 5, 6, 7, 8): 1}
        assert bubble_wedge(vol1, vol2) == full
        assert bubble_wedge(vol2, vol1) == full


class TestBeyondMachineWords:
    """Masks wider than 64 bits and coefficients wider than 64 bits."""

    def test_rank_80_wedge_sign(self):
        pair = ExteriorClass({(1, 70): 1}, 80)
        swapped = bubble_wedge({(70,): 1}, {(1,): 1})
        assert ExteriorClass(swapped, 80) == pair.scale(-1)
        assert pair.scale(-1).format() == "-a{1,70}"

    def test_rank_80_linear_ops(self):
        pair = ExteriorClass({(1, 70): 1}, 80)
        assert as_tuple_terms(pair.scale(3)) == {(1, 70): 3}
        assert pair.scale(3).format() == "3*a{1,70}"
        assert pair.scale(0).is_zero
        two = ExteriorClass({(1,): 1, (70,): -1}, 80)
        assert two.format() == "a{1} - a{70}"
        assert two.scale(-1).format() == "-a{1} + a{70}"

    def test_rank_80_mod2(self):
        pair = ExteriorClass({(1, 70): 1}, 80)
        assert as_tuple_terms(pair.scale(3).mod2()) == {(1, 70): 1}
        assert pair.scale(2).mod2().is_zero

    def test_big_coefficients_are_exact(self):
        big = 10 ** 40 + 1
        x = ExteriorClass({(1, 2): big}, 4)
        assert as_tuple_terms(x.scale(big)) == {(1, 2): big * big}
        assert x.scale(-big).format() == f"-{big * big}*a{{1,2}}"
        assert as_tuple_terms(x.scale(big).mod2()) == {(1, 2): 1}
        assert x.scale(2 * big).mod2().is_zero


class TestMonomial:
    def test_indices_roundtrip(self):
        m = Monomial.from_indices([2, 5, 7])
        assert m.indices == (2, 5, 7)
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
    """Algebra axioms of the bubble oracle over seeded random classes,
    rank <= 8: the package has no product to check it against."""

    def test_associative_and_bilinear(self):
        rng = random.Random(7)
        for _ in range(300):
            rank = rng.randint(0, 8)
            a, b, c = (terms_of(rng, rank) for _ in range(3))
            assert bubble_wedge(bubble_wedge(a, b), c) == \
                bubble_wedge(a, bubble_wedge(b, c))
            c = {m: v for m, v in c.items() if m not in b}
            total = Counter(bubble_wedge(a, b))
            total.update(bubble_wedge(a, c))
            assert bubble_wedge(a, {**b, **c}) == \
                {m: v for m, v in total.items() if v}
            n = rng.randint(-5, 5)
            scaled = {m: n * v for m, v in b.items() if n}
            assert bubble_wedge(a, scaled) == \
                {m: n * v for m, v in bubble_wedge(a, b).items() if n}

    def test_graded_commutativity(self):
        rng = random.Random(11)
        for _ in range(300):
            rank = rng.randint(1, 8)
            da = rng.randint(0, rank)
            db = rng.randint(0, rank)
            a = terms_of(rng, rank, degree=da)
            b = terms_of(rng, rank, degree=db)
            sign = -1 if (da * db) % 2 else 1
            assert bubble_wedge(a, b) == \
                {m: sign * v for m, v in bubble_wedge(b, a).items()}

    def test_odd_degree_squares_vanish(self):
        rng = random.Random(13)
        for _ in range(200):
            rank = rng.randint(1, 8)
            deg = rng.choice([d for d in range(1, rank + 1) if d % 2 == 1])
            a = terms_of(rng, rank, degree=deg)
            assert bubble_wedge(a, a) == {}

    def test_mod2_is_a_ring_morphism(self):
        rng = random.Random(17)
        for _ in range(300):
            rank = rng.randint(0, 8)
            a = random_class(rng, rank)
            b = random_class(rng, rank)
            product = ExteriorClass(
                bubble_wedge(as_tuple_terms(a), as_tuple_terms(b)), rank)
            reduced = ExteriorClass(
                bubble_wedge(as_tuple_terms(a.mod2()),
                             as_tuple_terms(b.mod2())), rank, modulus=2)
            assert product.mod2() == reduced
