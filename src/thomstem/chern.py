"""Manifold bookkeeping and the characteristic classes of the index bundle.

A 4-manifold enters purely algebraically: the rank of H^1, the quadruple
cup-product form, the signature and b+. The curvature of the universal
line bundle is Omega = sum_k x_k t_k (manifold 1-class times dual Picard
1-class). Each x_k t_k is even and squares to zero, so exp(Omega) is the
product of the (1 + x_k t_k), and integrating over the manifold leaves the
quadruple form itself as the degree-4 Chern character of the Dirac index
bundle. That bundle is then packaged as a rank-1 quaternionic bundle over
the Picard torus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from .exterior import ExteriorClass

QUATERNIONIC = "quaternionic"
REAL = "real"

# The quadruple-product sign is pinned to the positive interleaving
# permutation; only mod-2 values feed the Steenrod detections downstream,
# so the open +/- choice never changes a verdict. Reports quote this.
SIGN_CONVENTION_NOTE = (
    "sign convention: c2 = -ch2 with the positive interleaving-permutation "
    "sign; only mod-2 values feed Sq detection, so the open +/- choice never "
    "affects verdicts")


class FrozenMap(dict):
    """A read-only dict that copies and pickles through its constructor
    (a `types` mappingproxy does not pickle at all). Every method that
    would change it raises `TypeError`; like a dict, it is unhashable."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("FrozenMap is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = \
        setdefault = update = _read_only

    def __reduce__(self):       # copy and pickle without __setitem__
        return FrozenMap, (dict(self),)

    def __repr__(self):
        return f"FrozenMap({dict.__repr__(self)})"


@dataclass(frozen=True)
class ManifoldData:
    """Algebraic stand-in for a spin 4-manifold (or a connected sum).

    quad_form maps ascending 4-subsets of {1..b1} to the integer value of
    the quadruple cup product on the corresponding H^1 basis elements; it
    is stored as a `FrozenMap` and left out of the hash.
    """

    b1: int
    quad_form: Mapping[Tuple[int, int, int, int], int] = field(hash=False)
    signature: int = 0
    b_plus: int = 3
    label: str = "M"

    def __post_init__(self):
        if self.b1 < 0:
            raise ValueError("b1 must be nonnegative")
        clean: Dict[Tuple[int, ...], int] = {}
        for key, value in self.quad_form.items():
            subset = tuple(key)
            if len(subset) != 4 or list(subset) != sorted(set(subset)):
                raise ValueError(f"quad_form key {key} is not an ascending 4-subset")
            if not all(1 <= k <= self.b1 for k in subset):
                raise ValueError(f"quad_form key {key} exceeds b1 = {self.b1}")
            if value:
                clean[subset] = value
        if self.b1 < 4 and clean:
            raise ValueError("b1 < 4 forces an empty quadruple form")
        object.__setattr__(self, "quad_form", FrozenMap(clean))

    def quad(self, subset: Tuple[int, ...]) -> int:
        return self.quad_form.get(tuple(subset), 0)


def make_homology_torus(determinant: int) -> ManifoldData:
    """A homology 4-torus: b1 = 4, signature 0, b+ = 3, given determinant."""
    if determinant == 0:
        raise ValueError("determinant must be nonzero (degenerate cup form)")
    return ManifoldData(
        b1=4,
        quad_form={(1, 2, 3, 4): determinant},
        signature=0,
        b_plus=3,
        label=f"T(det={determinant})",
    )


def connected_sum(m1: ManifoldData, m2: ManifoldData) -> ManifoldData:
    """Block sum: generators of m2 are shifted past those of m1; mixed
    4-subsets carry no quadruple product."""
    shift = m1.b1
    quad = dict(m1.quad_form)
    for subset, value in m2.quad_form.items():
        quad[tuple(k + shift for k in subset)] = value
    return ManifoldData(
        b1=m1.b1 + m2.b1,
        quad_form=quad,
        signature=m1.signature + m2.signature,
        b_plus=m1.b_plus + m2.b_plus,
        label=f"{m1.label} # {m2.label}",
    )


def chern_character_index(manifold: ManifoldData) -> List[ExteriorClass]:
    """Chern character of the Dirac index bundle over the Picard torus.

    Returns the even-degree pieces [degree 0, degree 2, degree 4] as
    classes on T^{b1}. Requires signature 0 so the A-hat factor is 1.

    exp(Omega) = prod_k (1 + x_k t_k); its X-degree-4 part is
    sum over 4-subsets S of x_S t_S with sign +1 (moving each t past the
    later x's takes 6 swaps), so integration gives ch2 = sum_S quad(S) t_S
    and ch0 = ch1 = 0.
    """
    if manifold.signature != 0:
        raise ValueError(
            "nonzero signature is unsupported: the A-hat factor is fixed to 1")
    zero = ExteriorClass.zero(manifold.b1)
    return [zero, zero, ExteriorClass(manifold.quad_form, manifold.b1)]


@dataclass(frozen=True)
class BundleData:
    """A vector bundle over T^{base_rank} by rank, coefficient field and
    Chern classes. Its Stiefel-Whitney classes are read from c1 and c2
    (`w_class`); a real bundle has c1 = c2 = 0."""

    base_rank: int
    field: str
    rank: int
    c1: ExteriorClass
    c2: ExteriorClass
    sphere_shift: int

    def __post_init__(self):
        if self.field not in (QUATERNIONIC, REAL):
            raise ValueError(f"unknown coefficient field {self.field!r}")
        if self.field == REAL:
            for name, c in (("c1", self.c1), ("c2", self.c2)):
                if not c.is_zero:
                    raise ValueError(f"a real bundle needs {name} = 0, "
                                     f"got {name} = {c.format()}")

    def w_class(self, i: int) -> ExteriorClass:
        """w_i as a mod-2 class: w2 = c1 mod 2, w4 = c2 mod 2 and every
        other w_i zero (Milnor-Stasheff, Characteristic Classes, 19)."""
        if i == 2:
            return self.c1.mod2()
        if i == 4:
            return self.c2.mod2()
        return ExteriorClass.zero(self.base_rank, modulus=2)


def index_bundle(manifold: ManifoldData) -> BundleData:
    """The index bundle as a rank-1 quaternionic bundle over T^{b1}:
    c1 = 0, c2 = -ch_2 (degree-4 character part), and a sphere shift n
    solving m - n = -signature/4 with m = 1."""
    ch = chern_character_index(manifold)
    return BundleData(
        base_rank=manifold.b1,
        field=QUATERNIONIC,
        rank=1,
        c1=ExteriorClass.zero(manifold.b1),
        c2=ch[2].scale(-1),
        sphere_shift=1 + manifold.signature // 4,
    )
