"""Exact arithmetic in the exterior algebra on b degree-1 generators.

A class is an integer combination of square-free monomials in generators
a_1..a_b, i.e. an element of H^*(T^b; Z) or of its mod-2 reduction.
Monomials are ascending generator subsets packed into bitmasks, so
canonical forms, equality and the wedge sign (parity of the interleaving
permutation) are exact. Values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Tuple, Union


class RankMismatchError(ValueError):
    """Operands live in exterior algebras of different ambient rank."""


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


@dataclass(frozen=True)
class Monomial:
    """Ascending subset of {1..rank} packed as a bitmask (bit k-1 = generator k)."""

    mask: int

    def __post_init__(self):
        if self.mask < 0:
            raise ValueError("monomial mask must be nonnegative")

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

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    def __str__(self) -> str:
        if not self.mask:
            return "1"
        return "{" + mask_text(self.mask)[1] + "}"


MonomialKey = Union[Monomial, int, Iterable[int]]


def _merge_sign(a: int, b: int) -> int:
    """Sign of interleaving two disjoint ascending index sets.

    The sign is the parity of the permutation sorting the concatenation
    (ascending a) ++ (ascending b): for each generator in b, count the
    generators of a strictly above it.
    """
    inversions = 0
    rest = b
    while rest:
        low = rest & -rest
        inversions += (a >> low.bit_length()).bit_count()
        rest ^= low
    return -1 if inversions & 1 else 1


def _as_mask(key: MonomialKey) -> int:
    if isinstance(key, Monomial):
        return key.mask
    if isinstance(key, int):
        if key < 0:
            raise ValueError("monomial mask must be nonnegative")
        return key
    return Monomial.from_indices(key).mask


class ExteriorClass:
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
                raise RankMismatchError(
                    f"monomial {Monomial(mask)} exceeds ambient rank {ambient_rank}")
            c = coeff % modulus if modulus else coeff
            if c:
                if mask in clean:
                    raise ValueError(f"duplicate monomial {Monomial(mask)}")
                clean[mask] = c
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ExteriorClass is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ambient_rank: int, modulus: int = 0) -> "ExteriorClass":
        return cls({}, ambient_rank, modulus)

    @classmethod
    def unit(cls, ambient_rank: int, modulus: int = 0) -> "ExteriorClass":
        return cls({0: 1}, ambient_rank, modulus)

    @classmethod
    def generator(cls, k: int, ambient_rank: int, modulus: int = 0) -> "ExteriorClass":
        if not 1 <= k <= ambient_rank:
            raise RankMismatchError(f"generator {k} outside 1..{ambient_rank}")
        return cls({1 << (k - 1): 1}, ambient_rank, modulus)

    @classmethod
    def monomial(cls, indices: Iterable[int], ambient_rank: int,
                 coeff: int = 1, modulus: int = 0) -> "ExteriorClass":
        return cls({Monomial.from_indices(indices): coeff}, ambient_rank, modulus)

    @classmethod
    def _raw(cls, terms: dict, ambient_rank: int, modulus: int) -> "ExteriorClass":
        out = cls.__new__(cls)
        object.__setattr__(out, "ambient_rank", ambient_rank)
        object.__setattr__(out, "modulus", modulus)
        object.__setattr__(out, "_terms", terms)
        return out

    # -- inspection ----------------------------------------------------

    def terms(self) -> Iterator[Tuple[Monomial, int]]:
        for mask in sorted(self._terms):
            yield Monomial(mask), self._terms[mask]

    def support(self) -> Tuple[Monomial, ...]:
        return tuple(Monomial(m) for m in sorted(self._terms))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def degree_part(self, d: int) -> "ExteriorClass":
        terms = {m: c for m, c in self._terms.items() if m.bit_count() == d}
        return ExteriorClass._raw(terms, self.ambient_rank, self.modulus)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "ExteriorClass") -> None:
        if not isinstance(other, ExteriorClass):
            raise TypeError(f"expected ExteriorClass, got {type(other).__name__}")
        if other.ambient_rank != self.ambient_rank:
            raise RankMismatchError(
                f"ambient ranks differ: {self.ambient_rank} vs {other.ambient_rank}")
        if other.modulus != self.modulus:
            raise ValueError("cannot mix integer and mod-2 classes")

    def wedge(self, other: "ExteriorClass") -> "ExteriorClass":
        self._check(other)
        modulus = self.modulus
        terms: dict = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                if ma & mb:
                    continue
                m = ma | mb
                c = terms.get(m, 0) + _merge_sign(ma, mb) * ca * cb
                if modulus:
                    c %= modulus
                if c:
                    terms[m] = c
                elif m in terms:
                    del terms[m]
        return ExteriorClass._raw(terms, self.ambient_rank, modulus)

    def add(self, other: "ExteriorClass") -> "ExteriorClass":
        self._check(other)
        modulus = self.modulus
        terms = dict(self._terms)
        for m, c in other._terms.items():
            v = terms.get(m, 0) + c
            if modulus:
                v %= modulus
            if v:
                terms[m] = v
            elif m in terms:
                del terms[m]
        return ExteriorClass._raw(terms, self.ambient_rank, modulus)

    def scale(self, n: int) -> "ExteriorClass":
        modulus = self.modulus
        terms: dict = {}
        for m, c in self._terms.items():
            v = n * c
            if modulus:
                v %= modulus
            if v:
                terms[m] = v
        return ExteriorClass._raw(terms, self.ambient_rank, modulus)

    def mod2(self) -> "ExteriorClass":
        """Coefficientwise reduction; the result stores coefficients in {1}."""
        terms = {m: 1 for m, c in self._terms.items() if c % 2}
        return ExteriorClass._raw(terms, self.ambient_rank, 2)

    def top_coefficient(self) -> int:
        """Coefficient of the full monomial {1..b} (the orientation class)."""
        return self._terms.get((1 << self.ambient_rank) - 1, 0)

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


def sq_torus(i: int, x: ExteriorClass) -> ExteriorClass:
    """Steenrod square on torus classes: the identity for i = 0, zero above.

    The exterior algebra on degree-1 generators carries no higher squares
    (Cartan formula + Sq^1 = 0 on each generator), so the action reduces
    to Sq^0 = id.
    """
    if i < 0:
        raise ValueError("Sq^i needs i >= 0")
    if i == 0:
        return x
    return ExteriorClass.zero(x.ambient_rank, x.modulus)
