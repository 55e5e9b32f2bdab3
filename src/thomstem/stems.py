"""Low stable homotopy groups of spheres, named generators, and their
composition products. The assembly rules read only the stem table.

The table is deliberately finite (stems 0..7) and queries beyond it raise
OutOfTableError: a silent zero here would fabricate a vanishing result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


class OutOfTableError(LookupError):
    """A stem or composition outside the supported table was requested."""


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: free rank plus torsion coefficients."""

    free_rank: int = 0
    torsion: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion coefficients must be >= 2")
        object.__setattr__(self, "torsion", tuple(sorted(self.torsion)))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def pretty(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        run: list = []
        for t in self.torsion + (None,):
            if run and t != run[0]:
                parts.append(f"Z/{run[0]}" if len(run) == 1
                             else f"(Z/{run[0]})^{len(run)}")
                run = []
            run.append(t)
        return " + ".join(parts) if parts else "0"

    __str__ = pretty


TRIVIAL_GROUP = AbelianGroup()


def group_sum(groups) -> AbelianGroup:
    """Direct sum of groups; the torsion is sorted once, at the end."""
    free_rank, torsion = 0, []
    for group in groups:
        free_rank += group.free_rank
        torsion.extend(group.torsion)
    return AbelianGroup(free_rank, tuple(torsion))


# pi_q^s for 0 <= q <= 7; negative stems are trivial, higher stems error.
STEM_TABLE = {
    0: AbelianGroup(free_rank=1),
    1: AbelianGroup(torsion=(2,)),
    2: AbelianGroup(torsion=(2,)),
    3: AbelianGroup(torsion=(24,)),
    4: TRIVIAL_GROUP,
    5: TRIVIAL_GROUP,
    6: AbelianGroup(torsion=(2,)),
    7: AbelianGroup(torsion=(240,)),
}

MAX_STEM = max(STEM_TABLE)


def stem_group(q: int) -> AbelianGroup:
    """The q-th stable stem; trivial for q < 0, an explicit error above 7."""
    if q < 0:
        return TRIVIAL_GROUP
    if q > MAX_STEM:
        raise OutOfTableError(
            f"stable stem {q} is outside the table (0..{MAX_STEM})")
    return STEM_TABLE[q]


# -- named elements ----------------------------------------------------

ZERO, ONE, ETA, ETA_SQ, NU = "zero", "one", "eta", "eta_sq", "nu_multiple"


@dataclass(frozen=True)
class StemElement:
    """A named element of a stable stem.

    kind/payload pairs: zero (any stem), one(d) = the degree-d class in
    stem 0, eta and eta_sq in stems 1 and 2, nu_multiple(k) = k*nu in
    stem 3 with k taken mod 24.
    """

    q: int
    kind: str
    payload: int = 0

    def __post_init__(self):
        expected = {ONE: 0, ETA: 1, ETA_SQ: 2, NU: 3}
        if self.kind in expected and self.q != expected[self.kind]:
            raise ValueError(f"{self.kind} lives in stem {expected[self.kind]},"
                             f" not {self.q}")
        if self.kind not in (ZERO, ONE, ETA, ETA_SQ, NU):
            raise ValueError(f"unknown stem element kind {self.kind!r}")

    @property
    def is_zero(self) -> bool:
        return self.kind == ZERO

    def __str__(self):
        if self.kind == ZERO:
            return "0"
        if self.kind == ONE:
            return f"one({self.payload})"
        if self.kind == NU:
            return f"nu_multiple({self.payload})"
        return self.kind


def zero(q: int = 0) -> StemElement:
    return StemElement(q, ZERO)


def one(d: int) -> StemElement:
    """The degree-d class in stem 0 (d = 0 is the zero element)."""
    return StemElement(0, ONE, d) if d else zero(0)


def eta() -> StemElement:
    return StemElement(1, ETA)


def eta_sq() -> StemElement:
    return StemElement(2, ETA_SQ)


def nu_multiple(k: int) -> StemElement:
    k %= 24
    return StemElement(3, NU, k) if k else zero(3)


def compose(a: StemElement, b: StemElement) -> StemElement:
    """Composition product, defined on the stems the assembly engine uses.

    Covers all products landing in stems 0..3: a degree-d class acts by
    adding d times, eta*eta = eta_sq, eta*eta_sq = 12*nu, and nu composes
    with degree classes linearly. Anything landing above stem 3 raises.
    """
    q = a.q + b.q
    if q > 3:
        raise OutOfTableError(
            f"composition {a} o {b} lands in stem {q}, outside the table (<= 3)")
    if a.is_zero or b.is_zero:
        return zero(q)
    if a.kind == ONE:
        return _multiple(a.payload, b)
    if b.kind == ONE:
        return _multiple(b.payload, a)
    if a.kind == ETA and b.kind == ETA:
        return eta_sq()
    if {a.kind, b.kind} == {ETA, ETA_SQ}:
        # eta^3 = 12 nu, the relation that lands eta^2-type classes in stem 3
        return nu_multiple(12)
    raise OutOfTableError(f"composition {a} o {b} is not in the table")


def _multiple(d: int, x: StemElement) -> StemElement:
    """d copies of x in its own stem."""
    if x.kind == ONE:
        return one(d * x.payload)
    if x.kind == ETA:
        return eta() if d % 2 else zero(1)
    if x.kind == ETA_SQ:
        return eta_sq() if d % 2 else zero(2)
    if x.kind == NU:
        return nu_multiple(d * x.payload)
    return zero(x.q)
