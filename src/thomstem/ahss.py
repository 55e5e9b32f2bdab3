"""Assembly of the stable cohomotopy group {complex, S^N} cell by cell,
and evaluation of user-supplied class assignments against it.

Each cell contributes the stable stem of (dim - N), and each column is
made once, from the d4 page and the unknown scan of the labels. The
engine implements exactly the patterns the verdicts need: the cellular
d1 vanishes on torus models, the d2 vanishes because every bundle has
w2 = 0, an odd-nu label drives a d4 onto a Z/24 column, and every other
potentially nonzero configuration is reported as unknown rather than
guessed. Surviving columns are direct-summed; extension problems are
ignored and noted.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Sequence
from itertools import accumulate, groupby
from operator import eq, itemgetter, lt
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from . import stems
from .stems import AbelianGroup, OutOfTableError, StemElement, group_sum
from .thom import (_DIM, DETECTION_OF, DETECTIONS, FIBER_SPHERE_ZERO,
                   POLICY_REDUCED, StableCell, StableCellComplex, TRIVIAL,
                   UNKNOWN)
from .values import CheckedTuple, Frozen

SURVIVES, KILLED, REDUCED = "survives", "killed", "reduced"
# column status "unknown" reuses thom.UNKNOWN

VERDICT_TRIVIAL, VERDICT_NONTRIVIAL, VERDICT_UNKNOWN = (
    "trivial", "nontrivial", "unknown")


class ColumnEntry(NamedTuple):
    """One cell's column: the stem it contributes and what happened to it."""

    cell: StableCell
    stem_q: int
    group: AbelianGroup
    status: str = SURVIVES
    killer: Optional[str] = None
    reduced_index: Optional[int] = None


_CELL = itemgetter(0)


class Notes(Frozen, Sequence):
    """An immutable sequence of note strings kept as `items`: each item is
    a plain note, or a run `(head, tails)` that stands for the notes
    `head + tail`, one per tail of the tuple `tails` (a run with no tails
    is dropped). Indexing finds its run by bisection and builds that one
    note; a slice is a tuple. Equal and equally hashed to any `Notes` or
    tuple that holds the same strings, whatever the run layout."""

    __slots__ = ("items", "_ends")

    def __init__(self, items):
        items = tuple(item for item in items
                      if isinstance(item, str) or item[1])
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "_ends", tuple(accumulate(
            1 if isinstance(item, str) else len(item[1]) for item in items)))

    def __len__(self):
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        i = range(len(self))[i]         # negative or out of range as a tuple
        k = bisect_right(self._ends, i)
        item = self.items[k]
        if isinstance(item, str):
            return item
        return item[0] + item[1][i - (self._ends[k - 1] if k else 0)]

    def __iter__(self):
        for item in self.items:
            if isinstance(item, str):
                yield item
            else:
                yield from map(item[0].__add__, item[1])

    def __eq__(self, other):
        if not isinstance(other, (Notes, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"Notes({self.items!r})"

    def __reduce__(self):       # copy and pickle without __setattr__
        return Notes, (self.items,)


class GroupReport(CheckedTuple, namedtuple(
        "GroupReport", "target_n entries assembled bounds notes differentials "
        "complex")):
    """Result of assembling {complex, S^N}.

    `assembled` is exact when no entry is unknown; otherwise `bounds`
    holds the (all unknowns die, all unknowns survive) pair. `notes` is
    a `Notes`: each unknown column's pair notes are one run over the
    tails its dimension shares. `entries` holds one entry per proper
    cell, in strictly ascending canonical order (checked); `entry_for`
    bisects them. `complex` is left out of `repr`.
    """

    __slots__ = ()

    def __new__(cls, target_n, entries, *rest):
        cells = tuple(map(_CELL, entries))
        if not all(map(lt, cells, cells[1:])):
            raise ValueError("entries: the cells must strictly ascend")
        return super().__new__(cls, target_n, entries, *rest)

    def __repr__(self) -> str:
        return (f"GroupReport(target_n={self[0]!r}, entries={self[1]!r}, "
                f"assembled={self[2]!r}, bounds={self[3]!r}, "
                f"notes={self[4]!r}, differentials={self[5]!r})")

    def entry_for(self, cell: StableCell) -> ColumnEntry:
        entries = self.entries
        i = bisect_left(entries, cell, key=_CELL)
        if i < len(entries) and entries[i].cell == cell:
            return entries[i]
        raise KeyError(f"no column for cell {cell.name()}")

    def blocks(self) -> Dict[str, AbelianGroup]:
        """Surviving contribution split by fiber kind (unknowns excluded)."""
        parts: Dict[str, List[AbelianGroup]] = {}
        for entry in self.entries:
            if entry.status in (SURVIVES, REDUCED):
                parts.setdefault(entry.cell.fiber_part, []).append(entry.group)
        return {key: group_sum(groups) for key, groups in parts.items()}


ClassAssignment = Mapping[StableCell, StemElement]


def stem_groups(complex_: StableCellComplex, target_n: int
                ) -> Dict[int, AbelianGroup]:
    """The stable stem group of each stem that holds a column: a proper
    cell of dimension d sits in stem d - N. The proper cells come in
    ascending dimension, so each dimension is read once and this raises
    OutOfTableError at the lowest stem outside the table."""
    return {dim - target_n: stems.stem_group(dim - target_n)
            for dim, _ in groupby(complex_.proper_cells, _DIM)}


def assemble(complex_: StableCellComplex, target_n: int) -> GroupReport:
    """Assemble {complex, S^N}: each column is made once, from its stem
    group and its d4 page row, and is unknown when it is neither killed
    nor trivial and some label could still hit it."""
    if complex_.attachments is None:
        raise ValueError("assemble needs a labelled complex: run "
                         "infer_attachments first")

    notes = [
        "surviving columns are direct-summed; extension problems in reading "
        "the limit page are ignored",
        "basepoint cells contribute no column",
    ]
    differentials: List[str] = []
    groups = stem_groups(complex_, target_n)
    page = _d4_page(complex_.attachments.detected, target_n, differentials,
                    notes)
    threats = _threats(complex_)
    entries = []
    for cell in complex_.proper_cells:
        q = cell.dim - target_n
        entry = ColumnEntry(cell, q, groups[q], *page.get(cell, ()))
        if entry.status != KILLED and not entry.group.is_trivial:
            # a kill is onto whatever the unknown maps do; a reduced
            # column keeps its index when it turns unknown
            tails = threats(cell, q)
            if tails:
                entry = entry._replace(status=UNKNOWN, killer=None)
                notes.append((f"column {cell.name()} marked unknown: "
                              "reachable through a ", tails))
        entries.append(entry)
    entries = tuple(entries)

    if complex_.basepoint_policy == POLICY_REDUCED:
        for entry in entries:
            if entry.cell.fiber_part == FIBER_SPHERE_ZERO and entry.stem_q >= 0:
                notes.append(
                    f"extra base-block cell {entry.cell.name()} (sphere 0-cell "
                    f"fiber) contributes {entry.group.pretty()} at stem "
                    f"{entry.stem_q} on top of the fiber 2-cell block; the "
                    "binomial count covers only the fiber 2-cell block")

    lower = group_sum(entry.group for entry in entries
                      if entry.status in (SURVIVES, REDUCED))
    unknowns = [entry.group for entry in entries if entry.status == UNKNOWN]
    if unknowns:
        assembled, bounds = None, (lower, group_sum([lower] + unknowns))
        notes.append(f"{len(unknowns)} column(s) unknown: assembled group "
                     "reported as bounds (lower = unknowns die, upper = "
                     "unknowns survive)")
    else:
        assembled, bounds = lower, None

    if not differentials:
        differentials.append("direct sum, no differentials")

    return GroupReport(target_n, entries, assembled, bounds,
                       Notes(notes), tuple(differentials), complex_)


(_NU,) = DETECTIONS


def _d4_page(detected, target_n, differentials, notes):
    """{cell: (status, killer[, reduced_index])} of each column an odd-nu
    attachment moves, in one pass over the detected labels in canonical
    order that appends each differential and note as it is found.

    Kill side: an upper Z/24 column at a stem in `_NU.decides` dies by
    its first source, because any odd multiple of nu generates pi_3, so
    the composition from the lower cell's Z column is onto. Source side:
    a lower Z column at stem 0 is reduced to the kernel 24Z (still Z) by
    its first target. The sides sit at different stems: no cell is on both.
    """
    page = {}
    for (upper, lower), _ in detected:
        if upper.dim - target_n in _NU.decides and upper not in page:
            page[upper] = (KILLED, f"d4 from {lower.name()}")
            differentials.append(
                f"d4: column {upper.name()} (Z/24) killed by composition "
                f"with nu from {lower.name()}; the source Z column one "
                "degree over is reduced to index 24")
            notes.append(
                f"d4 source recorded as {lower.name()}, the first "
                "nu-attached cell in canonical order; any of the "
                "nu-attached cells kills the column")
        if lower.dim - target_n == 0 and lower not in page:
            page[lower] = (REDUCED, f"d4 into {upper.name()}", 24)
            differentials.append(
                f"d4: column {lower.name()} reduced to index 24 (kernel of "
                f"composition with nu into {upper.name()}); still Z abstractly")
    return page


def _threat_source(value: str, gap: int, stem_q: int) -> Optional[int]:
    """The source stem through which a `value` label at `gap` could hit a
    nontrivial column at `stem_q`, or None when it cannot. The d4 page
    kills every column at a stem a detected label's rule decides."""
    if value == TRIVIAL:
        return None
    source_q = stem_q - gap + 1
    if source_q < 0:
        return None
    try:
        source_group = stems.stem_group(source_q)
    except OutOfTableError:
        return source_q
    return None if source_group.is_trivial else source_q


def _threats(complex_):
    """threats(upper, q): the note tails of the column of `upper` at stem
    q, one per label that could hit it (its source stem q - gap + 1
    carries a nonzero group), in canonical pair order. Ask it only about
    a column that is neither killed nor trivial.

    A tail depends only on the upper cell's dimension and the lower cell.
    A dimension's default-labelled {lower: tail} and its tuple of tails
    are built once, and every column of that dimension without
    exceptions shares that tuple. A column with exceptions copies the
    row: an exception replaces its lower's tail, drops it when the label
    is no threat, or adds one; only an added tail needs the row sorted
    again. Equal tuples of tails are kept as one object.
    """
    labels = complex_.attachments
    defaults = labels.rules.defaults
    by_dim: Dict[int, Tuple[Dict[StableCell, str], Tuple[str, ...]]] = {}
    shared: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

    def tail(value, gap, lower, source_q):
        return (f"{value} gap-{gap} label from {lower.name()} "
                f"(source stem {source_q})")

    def threats(upper, q):
        dim = upper.dim
        if dim not in by_dim:
            # lower dims ascend in canonical order, so gaps descend
            tails = {}
            for gap in sorted(defaults, reverse=True):
                value = defaults[gap].value
                source_q = _threat_source(value, gap, q)
                if source_q is not None:
                    for lower in labels.cells_at(dim - gap):
                        tails[lower] = tail(value, gap, lower, source_q)
            run = tuple(tails.values())
            by_dim[dim] = tails, shared.setdefault(run, run)
        tails, run = by_dim[dim]
        own = labels.exceptions_from(upper)
        if not own:
            return run
        tails, added = dict(tails), False
        for lower, label in own:
            gap = dim - lower.dim
            source_q = _threat_source(label.value, gap, q)
            if source_q is None:
                tails.pop(lower, None)
                continue
            added = added or lower not in tails
            tails[lower] = tail(label.value, gap, lower, source_q)
        if added:
            tails = {lower: tails[lower] for lower in sorted(tails)}
        run = tuple(tails.values())
        return shared.setdefault(run, run)

    return threats


def evaluate_class(report: GroupReport, assignment: ClassAssignment) -> str:
    """Verdict for a class given by its per-cell components.

    Nontrivial as soon as one nonzero component sits in a surviving (or
    merely index-reduced) column; trivial when every component is zero or
    lives in a killed column; unknown when the deciding columns are
    unknown.
    """
    saw_unknown = False
    saw_nonzero_survivor = False
    for cell, element in assignment.items():
        try:
            entry = report.entry_for(cell)
        except KeyError:
            raise ValueError(
                f"cell {cell.name()} carries no assembly column (basepoint "
                "cells and collapsed cells cannot carry a class)")
        if element.q != entry.stem_q:
            raise ValueError(
                f"degree mismatch: element {element} has stem {element.q} but "
                f"cell {cell.name()} contributes stem {entry.stem_q}")
        if element.is_zero:
            continue
        if entry.status in (SURVIVES, REDUCED):
            saw_nonzero_survivor = True
        elif entry.status == UNKNOWN:
            saw_unknown = True
    if saw_nonzero_survivor:
        return VERDICT_NONTRIVIAL
    if saw_unknown:
        return VERDICT_UNKNOWN
    return VERDICT_TRIVIAL


def vanishing_certificate(report: GroupReport,
                          assignment: ClassAssignment) -> str:
    """Human-readable chain of the rules behind a verdict."""
    lines = [f"target: S^{report.target_n}"]
    nonzero = {cell: el for cell, el in assignment.items() if not el.is_zero}
    if not nonzero:
        lines.append("class assignment: zero class")
    else:
        for cell in sorted(nonzero):
            lines.append(f"class assignment: {nonzero[cell]} on cell "
                         f"{cell.name()} (dim {cell.dim})")
    for diff in report.differentials:
        lines.append(f"assembly: {diff}")
    for cell in sorted(nonzero):
        entry = report.entry_for(cell)
        line = (f"column {cell.name()} (stem {entry.stem_q}, "
                f"{entry.group.pretty()}): {entry.status}")
        if entry.killer:
            line += f" [{entry.killer}]"
        lines.append(line)
        labels = report.complex.attachments
        if entry.status == KILLED and labels is not None:
            for _, label in labels.exceptions_from(cell):
                if label.value in DETECTION_OF:
                    lines.append(f"  label {label.value}: {label.justification}")
    verdict = evaluate_class(report, assignment)
    lines.append(f"verdict: {verdict}")
    return "\n".join(lines)
