"""Exact classes in the exterior algebra on b degree-1 generators.

A class is an integer combination of square-free monomials in generators
a_1..a_b, i.e. an element of H^*(T^b; Z) or of its mod-2 reduction.
Monomials are ascending generator subsets packed into bitmasks, so
canonical forms and equality are exact. A class is scaled, reduced mod 2,
read term by term and formatted, and nothing more: ch_2 comes in closed
form from the quadruple form, and a Steenrod detection reads only the
support of a Stiefel-Whitney class, so no pipeline stage needs a ring
product. Values are immutable after construction.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, Iterable, Iterator, Mapping, Tuple, Union

from .values import CheckedTuple, Frozen


# mask -> (ascending generator indices, their digit text "1,2,4"), filled
# on demand: each mask is read off and formatted once per process, however
# many monomials and cells carry it. Keyed by mask, never a dense 2^b
# array, so a mask of rank 80 costs one entry.
_MASK_TEXT: Dict[int, Tuple[Tuple[int, ...], str]] = {}


def mask_text(mask: int) -> Tuple[Tuple[int, ...], str]:
    """(ascending indices, comma-joined digits) of a generator bitmask."""
    entry = _MASK_TEXT.get(mask)
    if entry is None:
        out, rest = [], mask
        while rest:                     # one step per set bit, lowest first
            low = rest & -rest
            out.append(low.bit_length())
            rest ^= low
        entry = _MASK_TEXT[mask] = (tuple(out), ",".join(map(str, out)))
    return entry


def monomial_text(mask: int) -> str:
    """The text of a monomial: "1" for the empty mask, else "{1,2,4}"."""
    return "{" + mask_text(mask)[1] + "}" if mask else "1"


class Monomial(CheckedTuple, namedtuple("Monomial", "mask")):
    """Ascending subset of {1..rank} packed as a bitmask (bit k-1 = generator k)."""

    __slots__ = ()

    def __new__(cls, mask: int):
        if mask < 0:
            raise ValueError("monomial mask must be nonnegative")
        return tuple.__new__(cls, (mask,))

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "Monomial":
        mask = 0
        for k in indices:
            if k < 1:
                raise ValueError(f"generator index must be >= 1, got {k}")
            bit = 1 << (k - 1)
            if mask & bit:
                raise ValueError(f"repeated generator index {k}")
            mask |= bit
        return cls(mask)

    @property
    def indices(self) -> Tuple[int, ...]:
        return mask_text(self.mask)[0]

    def __str__(self) -> str:
        return monomial_text(self.mask)


MonomialKey = Union[Monomial, int, Iterable[int]]


def _as_mask(key: MonomialKey) -> int:
    if isinstance(key, Monomial):
        return key.mask
    if isinstance(key, int):
        if key < 0:
            raise ValueError("monomial mask must be nonnegative")
        return key
    return Monomial.from_indices(key).mask


class ExteriorClass(Frozen):
    """Finite map from monomials to nonzero coefficients, with a fixed rank.

    `modulus` is 0 over the integers and 2 for the mod-2 shadow; mod-2
    classes keep their coefficients normalized to 1.
    """

    __slots__ = ("ambient_rank", "modulus", "_terms")

    def __init__(self, terms: Mapping[MonomialKey, int], ambient_rank: int,
                 modulus: int = 0):
        if ambient_rank < 0:
            raise ValueError("ambient rank must be nonnegative")
        if modulus not in (0, 2):
            raise ValueError("modulus must be 0 (integers) or 2")
        full = (1 << ambient_rank) - 1
        clean: dict = {}
        for key, coeff in terms.items():
            mask = _as_mask(key)
            if mask & ~full:
                raise ValueError(
                    f"monomial {Monomial(mask)} exceeds ambient rank {ambient_rank}")
            c = coeff % modulus if modulus else coeff
            if c:
                if mask in clean:
                    raise ValueError(f"duplicate monomial {Monomial(mask)}")
                clean[mask] = c
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "_terms", clean)

    def __reduce__(self):       # copy and pickle without __setattr__
        return ExteriorClass, (self._terms, self.ambient_rank, self.modulus)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ambient_rank: int, modulus: int = 0) -> "ExteriorClass":
        return cls({}, ambient_rank, modulus)

    # -- inspection ----------------------------------------------------

    def terms(self) -> Iterator[Tuple[Monomial, int]]:
        for mask in sorted(self._terms):
            yield Monomial(mask), self._terms[mask]

    def support(self) -> Tuple[Monomial, ...]:
        return tuple(Monomial(m) for m in sorted(self._terms))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    # -- arithmetic ----------------------------------------------------

    def scale(self, n: int) -> "ExteriorClass":
        return ExteriorClass({m: n * c for m, c in self._terms.items()},
                             self.ambient_rank, self.modulus)

    def mod2(self) -> "ExteriorClass":
        """Coefficientwise reduction; the result stores coefficients in {1}."""
        return ExteriorClass(self._terms, self.ambient_rank, 2)

    # -- equality ------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, ExteriorClass)
                and self.ambient_rank == other.ambient_rank
                and self.modulus == other.modulus
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.ambient_rank, self.modulus,
                     frozenset(self._terms.items())))

    def __repr__(self):
        tag = " mod 2" if self.modulus else ""
        return f"<ExteriorClass rank {self.ambient_rank}{tag}: {self.format()}>"

    def format(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in self.terms():
            if mono.mask == 0:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(f"a{mono}")
            elif coeff == -1:
                parts.append(f"-a{mono}")
            else:
                parts.append(f"{coeff}*a{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __str__ = format

