"""The stem table and composition products."""

import random
from itertools import product

import pytest

from thomstem.stems import (TRIVIAL_GROUP, AbelianGroup, OutOfTableError,
                            compose, eta, eta_sq, group_sum, nu_multiple, one,
                            stem_group, zero)


class TestStemTable:
    def test_table_values(self):
        assert stem_group(0) == AbelianGroup(free_rank=1)
        assert stem_group(1) == AbelianGroup(torsion=(2,))
        assert stem_group(2) == AbelianGroup(torsion=(2,))
        assert stem_group(3) == AbelianGroup(torsion=(24,))
        assert stem_group(4).is_trivial and stem_group(5).is_trivial
        assert stem_group(6) == AbelianGroup(torsion=(2,))
        assert stem_group(7) == AbelianGroup(torsion=(240,))

    def test_group_orders(self):
        # Z, then Z/2, Z/2 and Z/24 = Z/8 + Z/3 (Toda)
        assert stem_group(0) == AbelianGroup(free_rank=1)
        assert stem_group(1) == AbelianGroup(torsion=(2,))
        assert stem_group(2) == AbelianGroup(torsion=(2,))
        assert stem_group(3) == AbelianGroup(torsion=(24,))

    def test_negative_stems_trivial(self):
        assert stem_group(-1).is_trivial
        assert stem_group(-12).is_trivial

    def test_out_of_table_is_loud(self):
        with pytest.raises(OutOfTableError):
            stem_group(8)


class TestAbelianGroup:
    def test_pretty(self):
        assert AbelianGroup(4, (2,)).pretty() == "Z^4 + Z/2"
        assert AbelianGroup(1, ()).pretty() == "Z"
        assert AbelianGroup(0, ()).pretty() == "0"
        assert AbelianGroup(2, (2, 2, 24)).pretty() == "Z^2 + (Z/2)^2 + Z/24"

    def test_direct_sum(self):
        got = group_sum((AbelianGroup(1, (24,)), AbelianGroup(2, (2,))))
        assert got == AbelianGroup(3, (2, 24))

    def test_torsion_order_is_canonical(self):
        assert AbelianGroup(0, (24, 2)) == AbelianGroup(0, (2, 24))

    def test_group_sum_equals_iterated_plus(self):
        rng = random.Random(20261018)
        for _ in range(200):
            groups = [AbelianGroup(rng.randint(0, 3), tuple(
                rng.choice((2, 3, 24, 240)) for _ in range(rng.randint(0, 4))))
                for _ in range(rng.randint(0, 12))]
            total = TRIVIAL_GROUP  # summed two at a time
            for group in groups:
                total = group_sum((total, group))
            assert group_sum(groups) == total
            assert group_sum(iter(groups)) == total


class TestElements:
    def test_zero_normalization(self):
        assert one(0).is_zero
        assert nu_multiple(24).is_zero
        assert nu_multiple(25) == nu_multiple(1)

    def test_degree_consistency_enforced(self):
        from thomstem.stems import StemElement
        with pytest.raises(ValueError):
            StemElement(2, "eta")


class TestCompose:
    def test_eta_squared(self):
        assert compose(eta(), eta()) == eta_sq()

    def test_nu_is_linear_over_degrees(self):
        assert compose(nu_multiple(1), one(5)) == nu_multiple(5)
        assert compose(one(5), nu_multiple(1)) == nu_multiple(5)

    def test_two_eta_vanishes(self):
        assert compose(one(2), eta()).is_zero

    def test_eta_cubed(self):
        assert compose(eta(), eta_sq()) == nu_multiple(12)
        assert compose(eta_sq(), eta()) == nu_multiple(12)

    def test_out_of_table_products_error(self):
        with pytest.raises(OutOfTableError):
            compose(eta_sq(), eta_sq())
        with pytest.raises(OutOfTableError):
            compose(nu_multiple(1), eta())

    def _samples(self):
        out = [zero(0), zero(1), one(1), one(2), one(-3), eta(), eta_sq()]
        out.extend(nu_multiple(k) for k in (0, 1, 5, 12, 23))
        return out

    def test_bilinear_over_degree_elements(self):
        # (d*e) . x == d*(e . x) for all degree pairs and table elements
        for d, e in product((-2, -1, 0, 1, 2, 3), repeat=2):
            for x in (eta(), eta_sq(), nu_multiple(7)):
                assert compose(one(d * e), x) == \
                    compose(one(d), compose(one(e), x))

    def test_associative_on_the_whole_table(self):
        samples = self._samples()
        for a in samples:
            for b in samples:
                for c in samples:
                    if a.q + b.q + c.q > 3:
                        continue
                    assert compose(compose(a, b), c) == \
                        compose(a, compose(b, c)), (a, b, c)
