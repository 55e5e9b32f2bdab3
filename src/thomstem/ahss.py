"""Assembly of the stable cohomotopy group {complex, S^N} cell by cell,
and evaluation of user-supplied class assignments against it.

Each cell contributes the stable stem of (dim - N); attaching-map labels
drive the differentials. The engine implements exactly the patterns the
verdicts need: the cellular d1 vanishes on torus models, an eta label
drives a d2 onto the neighbouring stem, an odd-nu label drives a d4 onto
a Z/24 column, and every other potentially nonzero configuration is
reported as unknown rather than guessed. Surviving columns are
direct-summed; extension problems are ignored and noted.
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


def _surviving_sum(entries) -> AbelianGroup:
    return group_sum(entry.group for entry in entries
                     if entry.status in (SURVIVES, REDUCED))


def stem_groups(complex_: StableCellComplex, target_n: int
                ) -> Dict[int, AbelianGroup]:
    """The stable stem group of each stem that holds a column: a proper
    cell of dimension d sits in stem d - N. The proper cells come in
    ascending dimension, so each dimension is read once and this raises
    OutOfTableError at the lowest stem outside the table."""
    return {dim - target_n: stems.stem_group(dim - target_n)
            for dim, _ in groupby(complex_.proper_cells, _DIM)}


def assemble(complex_: StableCellComplex, target_n: int) -> GroupReport:
    """Assemble {complex, S^N} from cell columns and attachment labels."""
    if complex_.attachments is None:
        raise ValueError("assemble needs a labelled complex: run "
                         "infer_attachments first")

    # {cell: entry}, one per proper cell in canonical order; a rule that
    # changes a column stores a new entry under its cell, and each label
    # reads its entries afresh, so a later label sees an earlier kill
    groups = stem_groups(complex_, target_n)
    columns = {cell: ColumnEntry(cell, cell.dim - target_n,
                                 groups[cell.dim - target_n])
               for cell in complex_.proper_cells}

    notes = [
        "surviving columns are direct-summed; extension problems in reading "
        "the limit page are ignored",
        "basepoint cells contribute no column",
    ]
    differentials: List[str] = []

    # page order: all d2 effects, then d4; gap-3 labels never act
    # definitively (trivial = no differential, unknown handled last).
    drained = _run_eta_rules(complex_, columns, differentials)
    _run_nu_rules(complex_, columns, drained, differentials, notes)
    _mark_unknowns(complex_, columns, notes)
    entries = tuple(columns.values())

    if complex_.basepoint_policy == POLICY_REDUCED:
        for entry in entries:
            if entry.cell.fiber_part == FIBER_SPHERE_ZERO and entry.stem_q >= 0:
                notes.append(
                    f"extra base-block cell {entry.cell.name()} (sphere 0-cell "
                    f"fiber) contributes {entry.group.pretty()} at stem "
                    f"{entry.stem_q} on top of the fiber 2-cell block; the "
                    "binomial count covers only the fiber 2-cell block")

    unknowns = [e for e in entries if e.status == UNKNOWN]
    if unknowns:
        lower = _surviving_sum(entries)
        upper = group_sum([lower] + [entry.group for entry in unknowns])
        assembled, bounds = None, (lower, upper)
        notes.append(f"{len(unknowns)} column(s) unknown: assembled group "
                     "reported as bounds (lower = unknowns die, upper = "
                     "unknowns survive)")
    else:
        assembled, bounds = _surviving_sum(entries), None

    if not differentials:
        differentials.append("direct sum, no differentials")

    return GroupReport(target_n, entries, assembled, bounds,
                       Notes(notes), tuple(differentials), complex_)


_ETA, _NU = DETECTIONS


def _run_eta_rules(complex_, columns, differentials):
    """d2 driven by eta attachments.

    Kill side: an upper column at a stem in `_ETA.decides` is hit from
    the lower cell's column one degree over, and composition with eta
    (Z -> Z/2 onto, or Z/2 -> Z/2 iso) wipes it out. Source side: a
    lower column at stem 0 is reduced to the kernel 2Z (still Z); at
    stem 1 it is consumed entirely (eta composes injectively).

    Returns the lower cells of the eta attachments whose upper column
    sits at stem 1, for the d4 pass.
    """
    drained = set()
    for (upper, lower), label in complex_.attachments.detected:
        if label.value != _ETA.value:
            continue
        up, low = columns[upper], columns[lower]
        if up.stem_q == 1:
            drained.add(lower)
        if up.stem_q in _ETA.decides and KILLED not in (up.status, low.status):
            # onto: 1 o eta = eta and eta o eta = eta^2 generate stems 1, 2
            columns[upper] = up._replace(status=KILLED,
                                         killer=f"d2 from {lower.name()}")
            differentials.append(
                f"d2: column {upper.name()} ({up.group.pretty()}) killed "
                f"by composition with eta from {lower.name()}")
        if low.stem_q == 0 and low.status == SURVIVES:
            columns[lower] = low._replace(status=REDUCED, reduced_index=2,
                                          killer=f"d2 into {upper.name()}")
            differentials.append(
                f"d2: column {lower.name()} reduced to index 2 (kernel of "
                f"composition with eta into {upper.name()}); still Z abstractly")
        elif low.stem_q == 1 and low.status == SURVIVES:
            columns[lower] = low._replace(
                status=KILLED,
                killer=f"d2 into {upper.name()} (source consumed)")
            differentials.append(
                f"d2: column {lower.name()} consumed as a d2 source onto "
                f"{upper.name()} (eta composes injectively)")
    return drained


def _run_nu_rules(complex_, columns, drained, differentials, notes):
    """d4 driven by odd-nu attachments.

    Kill side: an upper Z/24 column at a stem in `_NU.decides` dies
    because any odd multiple of nu generates pi_3, so the composition
    from the lower cell's Z column is onto. Source side: a lower Z
    column at stem 0 is reduced to the kernel 24Z (still Z).

    `drained` holds the cells whose Z column one degree over already
    fired a d2: an eta attachment whose upper cell sits at in-report
    stem 1 consumed half of the lower cell's source column (kernel 2Z),
    so a d4 out of that column only reaches the even multiples of nu and
    is no longer onto Z/24.
    """
    for (upper, lower), label in complex_.attachments.detected:
        if label.value != _NU.value:
            continue
        up, low = columns[upper], columns[lower]
        if up.stem_q in _NU.decides and KILLED not in (up.status, low.status):
            if lower in drained:
                columns[upper] = up._replace(status=UNKNOWN, killer=None)
                notes.append(
                    f"column {upper.name()} marked unknown: the d4 source "
                    f"{lower.name()} was reduced by an earlier d2, so the "
                    "composition with nu reaches only even multiples")
                continue
            # any odd multiple of nu generates pi_3, so the composition
            # from the intact source Z column is onto
            columns[upper] = up._replace(status=KILLED,
                                         killer=f"d4 from {lower.name()}")
            differentials.append(
                f"d4: column {upper.name()} (Z/24) killed by composition "
                f"with nu from {lower.name()}; the source Z column one "
                "degree over is reduced to index 24")
            notes.append(
                f"d4 source recorded as {lower.name()}, the first "
                "nu-attached cell in canonical order; any of the "
                "nu-attached cells kills the column")
        if low.stem_q == 0 and low.status == SURVIVES:
            columns[lower] = low._replace(status=REDUCED, reduced_index=24,
                                          killer=f"d4 into {upper.name()}")
            differentials.append(
                f"d4: column {lower.name()} reduced to index 24 (kernel of "
                f"composition with nu into {upper.name()}); still Z abstractly")


def _threat_source(value: str, gap: int, stem_q: int) -> Optional[int]:
    """The source stem through which a `value` label at `gap` could hit a
    nontrivial column at `stem_q`, or None when it cannot."""
    if value == TRIVIAL:
        return None
    rule = DETECTION_OF.get(value)
    if rule is not None and stem_q in rule.decides:
        return None     # handled definitively by the d2/d4 rules
    source_q = stem_q - gap + 1
    if source_q < 0:
        return None
    try:
        source_group = stems.stem_group(source_q)
    except OutOfTableError:
        return source_q
    return None if source_group.is_trivial else source_q


def _mark_unknowns(complex_, columns, notes):
    """Columns that could be hit only through unknown or unhandled labels.

    A label threatens the upper column when the source stem (one degree
    over: stem_q(upper) - gap + 1) carries a nonzero group. Definitively
    killed columns stay killed: the kill was a surjection and holds
    whatever the unknown maps do.

    Each threatening pair gets one note, in canonical pair order. A note
    is a head naming the column plus a tail that depends only on the
    upper cell's dimension and the lower cell, and a column's notes are
    appended as one `Notes` run, (head, tails tuple): no note string is
    built here. The default-labelled tails of a dimension, {lower: tail}
    in canonical order and its tuple of tails, are built once per
    dimension, and every column of that dimension without exceptions
    shares that tuple. A column with exceptions copies its dimension's
    row: an exception replaces its lower's tail, drops it when the label
    is no threat, or adds a new tail; only an added tail needs the row
    sorted again. Equal tuples of tails, a dimension's or a column's, are
    kept as one object.
    """
    labels = complex_.attachments
    defaults = labels.rules.defaults
    by_dim: Dict[int, Tuple[Dict[StableCell, str], Tuple[str, ...]]] = {}
    shared: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

    def tail(value, gap, lower, source_q):
        return (f"{value} gap-{gap} label from {lower.name()} "
                f"(source stem {source_q})")

    def threats_at(dim, q):
        """{lower: tail} of the pairs at the threatening default gaps, in
        canonical order (lower dims ascend, so gaps descend), and its
        tails as a tuple."""
        if dim not in by_dim:
            tails = {}
            for gap in sorted(defaults, reverse=True):
                value = defaults[gap].value
                source_q = _threat_source(value, gap, q)
                if source_q is not None:
                    for lower in labels.cells_at(dim - gap):
                        tails[lower] = tail(value, gap, lower, source_q)
            run = tuple(tails.values())
            by_dim[dim] = tails, shared.setdefault(run, run)
        return by_dim[dim]

    for upper, column in columns.items():
        if column.status == KILLED or column.group.is_trivial:
            continue
        q = column.stem_q
        tails, run = threats_at(upper.dim, q)
        own = labels.exceptions_from(upper)
        if own:
            tails, added = dict(tails), False
            for lower, label in own:
                gap = upper.dim - lower.dim
                source_q = _threat_source(label.value, gap, q)
                if source_q is None:
                    tails.pop(lower, None)
                    continue
                added = added or lower not in tails
                tails[lower] = tail(label.value, gap, lower, source_q)
            if added:
                tails = {lower: tails[lower]
                         for lower in sorted(tails)}
            run = tuple(tails.values())
            run = shared.setdefault(run, run)
        if run:
            columns[upper] = column._replace(status=UNKNOWN, killer=None)
            notes.append((f"column {upper.name()} marked unknown: reachable "
                          "through a ", run))


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
