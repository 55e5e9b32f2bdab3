"""Stable CW models of Thom spaces over tori and of the circle-quotient
sphere-bundle complex, with Steenrod-square detection of attaching maps.

Cells are generator subsets decorated with a fiber contribution (the Thom
cell of the quaternionic fiber, or the 0-/2-cell of an S^2 fiber) and a
suspension counter. Steenrod squares act on the Thom-class basis u*x_S
through Stiefel-Whitney classes by the Cartan formula; whenever
Sq^g(u*x_L) contains u*x_U the attachment from the upper cell U to the
lower cell L carries the Hopf class that Sq^g detects.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, namedtuple
from collections.abc import ItemsView, Mapping
from itertools import chain, compress, filterfalse, groupby, repeat
from operator import itemgetter
from typing import Dict, Iterable, Iterator, NamedTuple, Optional, Tuple

from .chern import QUATERNIONIC, REAL, BundleData, FrozenMap
from .exterior import ExteriorClass, Monomial, mask_text, monomial_text
from .values import CheckedTuple, Frozen

# Fiber kinds and the dimension they add on top of the base subset.
FIBER_POINT = "point"            # basepoint at infinity (Thom construction)
FIBER_THOM = "thom"              # the 4m-cell of the quaternionic fiber
FIBER_SPHERE_ZERO = "sphere_zero"  # 0-cell of the S^2 fiber
FIBER_SPHERE_TWO = "sphere_two"    # 2-cell of the S^2 fiber

FIBER_PARTS = (FIBER_POINT, FIBER_THOM, FIBER_SPHERE_ZERO, FIBER_SPHERE_TWO)
_FIBER_ORDER = {part: i for i, part in enumerate(FIBER_PARTS)}
_FIBER_TAG = {FIBER_POINT: "*", FIBER_THOM: "H", FIBER_SPHERE_ZERO: "S0",
              FIBER_SPHERE_TWO: "S2"}

POLICY_THOM = "thom"        # single 0-cell at infinity
POLICY_REDUCED = "reduced"  # one 0-cell designated the basepoint

BASEPOINT_NOTE = (
    "basepoint policy: 'thom' keeps a single 0-cell at infinity; 'reduced' "
    "designates the empty-subset 0-cell as basepoint; basepoint cells are "
    "excluded from attachment labels and assembly columns")

TRIVIAL, NU_ODD, UNKNOWN = "trivial", "nu_odd", "unknown"
# no rule reads it and a view rejects it: kept for perfbench's traced
# counter, which imports it until it reads `len(detected)`
ETA_LABEL = "eta"


class Detection(NamedTuple):
    """Sq^gap detects the Hopf class `hopf`, labelled `value`, on a pair of
    Thom-fiber cells at dimension gap `gap`; the d_gap it drives settles
    an upper column at the stems in `decides` and no other."""

    gap: int
    value: str
    hopf: str
    decides: Tuple[int, ...]


# the one table of detection rules: Sq^2 would detect eta, but w2 = c1 mod 2
# and c1 = 0 for every bundle (`BundleData`), so Sq^4 is the one rule
DETECTIONS = (Detection(4, NU_ODD, "odd multiples of nu", (3,)),)
DETECTION_OF = {rule.value: rule for rule in DETECTIONS}


class StableCell(tuple):
    """One stable cell: base subset, fiber contribution, suspension count.

    The cell is the tuple (dim, fiber order, base_mask, suspension,
    fiber_part, fiber_offset), where the dimension is always derived:
    |base| + fiber offset + suspension. Tuple order is the canonical
    order, so `sorted(cells)` needs no key, and hash and == are the
    tuple's. A cell therefore equals a plain tuple that holds the same
    items; no code path mixes the two.
    """

    __slots__ = ()

    def __new__(cls, base_mask: int, fiber_part: str, fiber_offset: int,
                suspension: int = 0):
        if base_mask < 0:
            raise ValueError("base mask must be nonnegative")
        if fiber_part not in _FIBER_ORDER:
            raise ValueError(f"unknown fiber part {fiber_part!r}")
        if suspension < 0:
            raise ValueError("suspension must be nonnegative")
        return tuple.__new__(cls, (
            base_mask.bit_count() + fiber_offset + suspension,
            _FIBER_ORDER[fiber_part], base_mask, suspension, fiber_part,
            fiber_offset))

    dim = property(itemgetter(0))
    base_mask = property(itemgetter(2))
    suspension = property(itemgetter(3))
    fiber_part = property(itemgetter(4))
    fiber_offset = property(itemgetter(5))

    def __reduce__(self):   # copy and pickle through the constructor
        return StableCell, (self[2], self[4], self[5], self[3])

    def __repr__(self) -> str:
        return (f"StableCell(base_mask={self[2]}, fiber_part={self[4]!r}, "
                f"fiber_offset={self[5]}, suspension={self[3]})")

    @property
    def base_indices(self) -> Tuple[int, ...]:
        return mask_text(self[2])[0]

    def suspended(self, k: int) -> "StableCell":
        if k < 0:
            raise ValueError("suspension must be nonnegative")
        return StableCell(self[2], self[4], self[5], self[3] + k)

    def name(self) -> str:
        out = f"{_FIBER_TAG[self[4]]}{{{mask_text(self[2])[1]}}}"
        return f"{out}+{self[3]}" if self[3] else out

    __str__ = name


_DIM = itemgetter(0)


class AttachLabel(NamedTuple):
    """Stable class of an attaching map plus the rule that decided it."""

    value: str
    justification: str


Pair = Tuple[StableCell, StableCell]


class LabelRules(NamedTuple):
    """Attachment labels as rules rather than as every cell pair.

    `defaults` maps a dimension gap to the label of every pair of proper
    cells at that gap; `exceptions` maps single (upper, lower) pairs to
    labels that override the default at their gap, or stand alone off
    the default gaps. Detected Hopf classes are always exceptions.
    """

    defaults: Mapping[int, AttachLabel]
    exceptions: Mapping[Pair, AttachLabel]


class AttachmentView(Frozen):
    """The (upper, lower) -> AttachLabel labels of one complex, read from
    its `LabelRules`; no pair map is written out.

    `detected` lists, in canonical (upper, lower) order, the
    exceptions whose label is a `DETECTIONS` value; a detected label off
    its rule's gap is rejected, and so is an exception whose label is
    neither trivial, unknown nor detected, since no rule reads it. `len`
    and `counts` are arithmetic. Two views are equal when they have the
    same proper cells and rules.
    """

    __slots__ = ("rules", "detected", "_proper", "_by_dim", "_by_upper")

    def __init__(self, cells: Tuple[StableCell, ...],
                 proper_cells: Tuple[StableCell, ...], rules: LabelRules):
        defaults = FrozenMap(rules.defaults)
        exceptions = FrozenMap(rules.exceptions)
        if any(label.value not in (TRIVIAL, UNKNOWN)
               for label in defaults.values()):
            raise ValueError("only trivial or unknown labels can be defaults")
        # each cell is hashed once, here; only a cell outside the proper
        # cells (the basepoint, or a foreign one) is looked for in `cells`
        proper = frozenset(proper_cells)
        for upper, lower in exceptions:
            if (upper not in proper and upper not in cells
                    or lower not in proper and lower not in cells):
                raise ValueError(f"attachment {upper.name()} -> {lower.name()} "
                                 "names a cell outside the complex")
        # only trivial and unknown can be defaults, so every detected
        # label is an exception
        detected = []
        by_upper: Dict[StableCell, Dict[StableCell, AttachLabel]] = {}
        # distinct pairs: no label compared
        for item in sorted(exceptions.items()):
            (upper, lower), label = item
            gap, rule = upper.dim - lower.dim, DETECTION_OF.get(label.value)
            if rule is not None and gap == rule.gap:  # d_r spans gap r only
                detected.append(item)
            elif rule is not None or label.value not in (TRIVIAL, UNKNOWN):
                raise ValueError(
                    f"label {label.value} on a gap-{gap} attachment "
                    f"{upper.name()} -> {lower.name()}: " + (
                        "no rule reads it" if rule is None else
                        f"d{rule.gap} spans gap {rule.gap} only"))
            by_upper.setdefault(upper, {})[lower] = label
        object.__setattr__(self, "rules", LabelRules(defaults, exceptions))
        object.__setattr__(self, "detected", tuple(detected))
        object.__setattr__(self, "_proper", proper)
        # canonical order sorts by dim first, so each group is one run
        object.__setattr__(self, "_by_dim", {
            dim: tuple(group) for dim, group in groupby(proper_cells, _DIM)})
        object.__setattr__(self, "_by_upper", by_upper)

    def __reduce__(self):   # copy and pickle through the constructor
        return AttachmentView, (frozenset(chain(*self.rules.exceptions)),
                                tuple(sorted(self._proper)), self.rules)

    def _pairs_at(self, gap: int) -> int:
        return sum(len(uppers) * len(self._by_dim.get(dim - gap, ()))
                   for dim, uppers in self._by_dim.items())

    def _covered(self, upper: StableCell, lower: StableCell) -> bool:
        """Does a default label cover this pair?"""
        return (upper.dim - lower.dim in self.rules.defaults
                and upper in self._proper and lower in self._proper)

    def __eq__(self, other):
        if not isinstance(other, AttachmentView):
            return NotImplemented
        return self._proper == other._proper and self.rules == other.rules

    def __len__(self) -> int:
        return sum(self.counts().values())

    def values(self) -> Iterator[AttachLabel]:
        """Every label once, in no set order: each exception, then each
        default label repeated over the pairs at its gap that no exception
        overrides. Only perfbench's detected-label counter reads it, and
        it can go once that counter reads `len(detected)`."""
        exceptions = self.rules.exceptions
        overridden = Counter(upper.dim - lower.dim for upper, lower
                             in exceptions if self._covered(upper, lower))
        return chain(exceptions.values(), *(
            repeat(label, self._pairs_at(gap) - overridden[gap])
            for gap, label in self.rules.defaults.items()))

    def cells_at(self, dim: int) -> Tuple[StableCell, ...]:
        """The proper cells of dimension `dim`, in canonical order."""
        return self._by_dim.get(dim, ())

    def exceptions_from(self, upper: StableCell) -> ItemsView:
        """(lower, label) of every exception out of `upper`, in canonical
        order: a read-only view, empty when there is none."""
        return self._by_upper.get(upper, {}).items()

    def counts(self) -> Dict[Tuple[int, str], int]:
        """(gap, value) -> number of labels, by arithmetic on the rules."""
        defaults = self.rules.defaults
        out = {(gap, label.value): self._pairs_at(gap)
               for gap, label in defaults.items()}
        for (upper, lower), label in self.rules.exceptions.items():
            gap = upper.dim - lower.dim
            if self._covered(upper, lower):
                out[(gap, defaults[gap].value)] -= 1
            out[(gap, label.value)] = out.get((gap, label.value), 0) + 1
        return {key: n for key, n in out.items() if n}


class StableCellComplex(CheckedTuple, namedtuple(
        "StableCellComplex",
        "cells bundle basepoint_policy attachments gap3_trivial")):
    """A finite stable cell complex together with its bundle of origin.

    `attachments` labels the (upper, lower) cell pairs with dimension gap
    1..4; it is None until infer_attachments has run. It is given
    as `LabelRules` and stored as an `AttachmentView` over this complex's
    cells; any other value raises TypeError, a view passed back too, so a
    `_replace` without `attachments=` fails at once.
    `gap3_trivial` is the geometric flag (pi_2(SO(3)) = 1) that
    sphere-bundle complexes carry, upgrading gap-3 labels from unknown to
    trivial. `proper_cells`, the cells other than the basepoint in
    canonical order, is computed once when the complex is made, as a
    sixth item after the fields, and is left out of `repr`.
    """

    __slots__ = ()

    def __new__(cls, cells: Tuple[StableCell, ...], bundle: BundleData,
                basepoint_policy: str,
                attachments: Optional[LabelRules] = None,
                gap3_trivial: bool = False):
        cells = tuple(sorted(cells))
        # unlabelled and with no proper cells yet: enough to tell the
        # basepoint, and to finish in `_derive`
        bare = tuple.__new__(cls, (cells, bundle, basepoint_policy, None,
                                   gap3_trivial, ()))
        return bare._derive(cells, tuple(filterfalse(bare.is_basepoint,
                                                     cells)), attachments)

    proper_cells = property(itemgetter(5))

    def _derive(self, cells: Tuple[StableCell, ...],
                proper_cells: Tuple[StableCell, ...],
                rules: Optional[LabelRules]) -> "StableCellComplex":
        """This complex's bundle, policy and flag over `cells`, labelled by
        `rules`: the cells are in canonical order, and `proper_cells` are
        those that are not the basepoint. The constructor ends here, and
        `infer_attachments` and `skeletal_quotient` come here from a
        complex already made, so they neither sort nor test cells again."""
        if rules is not None:
            if not isinstance(rules, LabelRules):
                raise TypeError("attachments must be LabelRules or None, "
                                f"not {type(rules).__name__}")
            rules = AttachmentView(cells, proper_cells, rules)
        return tuple.__new__(type(self), (cells, self[1], self[2], rules,
                                          self[4], proper_cells))

    def __reduce__(self):   # copy and pickle the rules through the constructor
        labels = self[3]
        return StableCellComplex, self[:3] + (
            None if labels is None else labels.rules, self[4])

    def __repr__(self) -> str:
        return (f"StableCellComplex(cells={self[0]!r}, bundle={self[1]!r}, "
                f"basepoint_policy={self[2]!r}, attachments={self[3]!r}, "
                f"gap3_trivial={self[4]!r})")

    def is_basepoint(self, cell: StableCell) -> bool:
        if self.basepoint_policy == POLICY_THOM:
            return cell.fiber_part == FIBER_POINT
        return cell.fiber_part == FIBER_SPHERE_ZERO and cell.base_mask == 0

    def cells_by_dim(self) -> Dict[int, int]:
        return {dim: len(tuple(group))
                for dim, group in groupby(self.cells, _DIM)}

    @property
    def top_cell(self) -> StableCell:
        return self.cells[-1]       # the cells are in canonical order

    def find_cell(self, base_indices: Iterable[int], fiber_part: str) -> StableCell:
        # a scan, not a dict: a spec picks one or two cells, and building
        # a dict over every cell costs more than the scans it would save
        mask = Monomial.from_indices(base_indices).mask
        for cell in self.cells:
            if cell.base_mask == mask and cell.fiber_part == fiber_part:
                return cell
        raise KeyError(f"no cell with base {tuple(base_indices)} and fiber "
                       f"{fiber_part}")


def _fiber_cells(rank: int, fiber_part: str, fiber_offset: int,
                 suspension: int) -> Tuple[StableCell, ...]:
    """The cells of `fiber_part` over every base subset of T^rank, in
    canonical order: what `StableCell(mask, fiber_part, fiber_offset,
    suspension)` makes for each mask, checked once here rather than once
    per cell. One fiber part's dimension is |mask| + a constant, so the
    order is popcount-major, mask-ascending."""
    if fiber_part not in _FIBER_ORDER:
        raise ValueError(f"unknown fiber part {fiber_part!r}")
    if suspension < 0:
        raise ValueError("suspension must be nonnegative")
    masks = sorted(range(1 << rank), key=int.bit_count)
    dims = map((fiber_offset + suspension).__add__, map(int.bit_count, masks))
    return tuple(map(tuple.__new__, repeat(StableCell), zip(
        dims, repeat(_FIBER_ORDER[fiber_part]), masks, repeat(suspension),
        repeat(fiber_part), repeat(fiber_offset))))


def _canonical_complex(cells: Tuple[StableCell, ...], bundle: BundleData,
                       basepoint_policy: str,
                       gap3_trivial: bool = False) -> StableCellComplex:
    """The unlabelled complex over `cells`, which are in canonical order
    with the basepoint first, as the builders make them: what
    `StableCellComplex(...)` gives, with no sort and no basepoint test."""
    bare = tuple.__new__(StableCellComplex, (cells, bundle, basepoint_policy,
                                             None, gap3_trivial, ()))
    return bare._derive(cells, cells[1:], None)


def thom_cells(bundle: BundleData, suspension: int = 0) -> StableCellComplex:
    """Stable cell model of the Thom space of a quaternionic bundle over
    T^b: one cell per generator subset S, of dimension |S| + 4m, plus the
    0-cell at infinity. The cohomology basis is {u * x_S} by the Thom
    isomorphism. Each cell is made suspended `suspension` times."""
    if bundle.field != QUATERNIONIC:
        raise ValueError("Thom cell model requires a quaternionic bundle")
    # the point at infinity is the one cell of the lowest dim and order
    cells = _fiber_cells(0, FIBER_POINT, 0, suspension) + _fiber_cells(
        bundle.base_rank, FIBER_THOM, 4 * bundle.rank, suspension)
    return _canonical_complex(cells, bundle, POLICY_THOM)


def sphere_bundle_quotient(bundle: BundleData,
                           suspension: int = 0) -> StableCellComplex:
    """Circle quotient of the sphere bundle of a rank-1 quaternionic
    bundle: an S^2-bundle, modeled by the sphere bundle of a rank-3 real
    bundle with vanishing Stiefel-Whitney classes.

    Each base subset S contributes a 0-cell (dim |S|) and a 2-cell
    (dim |S|+2) of the fiber; the empty-subset 0-cell is the basepoint.
    The pi_2(SO(3)) flag makes gap-3 attachments trivial. Each cell is
    made suspended `suspension` times.
    """
    if bundle.field != QUATERNIONIC or bundle.rank != 1:
        raise ValueError("the circle quotient needs a rank-1 quaternionic bundle")
    b = bundle.base_rank
    quotient = BundleData(
        base_rank=b,
        field=REAL,
        rank=3,
        c1=ExteriorClass.zero(b),
        c2=ExteriorClass.zero(b),
        sphere_shift=bundle.sphere_shift,
    )
    # a merge of two ascending runs; the basepoint, the empty-subset
    # 0-cell, is the one cell of the lowest dim
    cells = tuple(sorted(_fiber_cells(b, FIBER_SPHERE_ZERO, 0, suspension)
                         + _fiber_cells(b, FIBER_SPHERE_TWO, 2, suspension)))
    return _canonical_complex(cells, quotient, POLICY_REDUCED,
                              gap3_trivial=True)


def _default_labels(complex_: StableCellComplex) -> Dict[int, AttachLabel]:
    """The label of every pair at gaps 1..4 that no Sq detection hits."""
    bundle = complex_.bundle
    if complex_.gap3_trivial:
        gap3 = AttachLabel(TRIVIAL, "pi_2(SO(3)) is trivial: the framed "
                           "normal 2-sphere bounds, so the attaching map is "
                           "trivial")
    else:
        gap3 = AttachLabel(UNKNOWN, "gap-3 attaching class undetermined "
                           "(could be eta^2); no detection rule applies")
    w2, w4 = bundle.w_class(2), bundle.w_class(4)
    return {
        1: AttachLabel(TRIVIAL, "adjacent attaching map: the cellular "
                       "differential vanishes (every cell survives in the "
                       "homology of the torus model)"),
        2: AttachLabel(TRIVIAL, f"eta excluded: Sq^2(u*x) = u*(w2^x) misses "
                       f"the upper cell (w2 = {w2}); Sq^2 detects eta "
                       "exactly, so the class is trivial"),
        3: gap3,
        4: AttachLabel(UNKNOWN, f"Sq^4(u*x) = u*(w4^x) misses the upper cell "
                       f"(w4 = {w4}); even multiples of nu are undetected, "
                       "so the class stays unknown"),
    }


def _detected_labels(complex_: StableCellComplex, rule: Detection
                     ) -> Dict[Pair, AttachLabel]:
    """Pairs of Thom-fiber cells whose attaching map `rule` detects.

    By the Cartan formula Sq^gap(u*x_L) = u*(w_gap ^ x_L), so the only
    candidates are the pairs (L | w, L) for w in supp(w_gap) disjoint
    from L, and a pair is detected when it is hit an odd number of times.
    The work is O(cells * |supp w_gap|).
    """
    gap = rule.gap
    w = complex_.bundle.w_class(gap)
    proper = complex_.proper_cells
    if w.is_zero or not proper:
        return {}
    # (mask, dim) -> cell over the Thom-fiber cells, read off one transpose
    dims, _, masks, _, parts, _ = zip(*proper)
    thom = dict(compress(zip(zip(masks, dims), proper),
                         map(FIBER_THOM.__eq__, parts)))
    w_masks = tuple(m.mask for m in w.support())
    hits: Dict[Pair, int] = {}
    for (mask, dim), lower in thom.items():
        for wm in w_masks:
            upper = None if wm & mask else thom.get((mask | wm, dim + gap))
            if upper is not None:
                hits[(upper, lower)] = hits.get((upper, lower), 0) ^ 1
    head = f"Sq^{gap} detects {rule.hopf}: Sq^{gap}(u*x"
    via = f" via w{gap} = {w}"      # one text of w for every pair
    return {(upper, lower): AttachLabel(
        rule.value, f"{head}{monomial_text(lower[2])}) contains "
        f"u*x{monomial_text(upper[2])}{via}")
        for (upper, lower), odd in hits.items() if odd}


def infer_attachments(complex_: StableCellComplex) -> StableCellComplex:
    """Label every (upper, lower) cell pair with dimension gap 1..4.

    Deterministic: labels depend only on the bundle data and the cell
    pair. Basepoint cells carry no labels. The labels are kept as rules:
    one default per gap plus the pairs `DETECTIONS` detects as exceptions.
    """
    exceptions = {pair: label for rule in DETECTIONS
                  for pair, label in _detected_labels(complex_, rule).items()}
    return complex_._derive(complex_.cells, complex_.proper_cells, LabelRules(
        _default_labels(complex_), exceptions))


def skeletal_quotient(complex_: StableCellComplex, k: int) -> StableCellComplex:
    """Collapse the k-skeleton: cells of dimension <= k disappear, and all
    attachments touching them are dropped."""
    rules = None
    if complex_.attachments is not None:
        defaults, exceptions = complex_.attachments.rules
        rules = LabelRules(defaults, {
            (u, l): label for (u, l), label in exceptions.items()
            if u.dim > k and l.dim > k})
    # canonical order is dimension-major, so what is kept is a suffix
    cells, proper = complex_.cells, complex_.proper_cells
    return complex_._derive(cells[bisect_right(cells, k, key=_DIM):],
                            proper[bisect_right(proper, k, key=_DIM):], rules)


def label_counts(labels: AttachmentView) -> Dict[str, int]:
    """{"gap<g>:<value>": count}, sorted by key, for reports and explain."""
    return dict(sorted((f"gap{gap}:{value}", n)
                       for (gap, value), n in labels.counts().items()))
