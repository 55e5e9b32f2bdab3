"""Shared test oracles, deliberately independent of the library's own paths.

The wedge oracle, the project's one exterior-algebra product (the package
has none), multiplies index tuples by concatenation and bubble-sorts with
an explicit swap count; the Chern oracle expands exp(Omega) in a flat
symbol algebra with no bitmasks and no Koszul bookkeeping; the assembly
oracle direct-sums stems straight off the cell list; the label oracle
writes out every attachment pair the way the library once stored them,
deciding each Sq detection by a bubble-oracle wedge with a Stiefel-Whitney
class (`sq_thom`) rather than by the library's bitmask walk over
`DETECTIONS`; the rule-expansion oracle `label_rows` writes a complex's
label rules out pair by pair, the way its attachment view once iterated;
the unknown-column oracle formats one note per threatening pair, pair by
pair, the way assembly once did; the monomial-text oracle
reads a mask off bit by bit on every call, the way each monomial and cell
once did; the suspension oracle `suspend` remakes every cell of a built
complex one dimension up per suspension, the way the pipeline once did
before it learned to make each cell at its final dimension; the
canonical-order oracle `naive_key` reads a cell's place in the order off
its public fields, not off the cell's tuple.
"""

import os
import random
from fractions import Fraction
from itertools import combinations

import thomstem
from thomstem import stems
from thomstem.ahss import KILLED, _threat_source
from thomstem.exterior import ExteriorClass, Monomial
from thomstem.thom import (FIBER_PARTS, FIBER_THOM, NU_ODD, TRIVIAL,
                           UNKNOWN, AttachLabel, LabelRules, StableCellComplex)


# -- wedge oracle: list concatenation + bubble parity --------------------

def bubble_wedge_monomials(t1, t2):
    """Product of two ascending index tuples: (sorted tuple, sign) or
    (None, 0) when a generator repeats."""
    seq = list(t1) + list(t2)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] == seq[i + 1]:
                return None, 0
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
    return tuple(seq), sign


def bubble_wedge(a_terms, b_terms):
    """Wedge of {index-tuple: coeff} maps via the bubble oracle."""
    out = {}
    for m1, c1 in a_terms.items():
        for m2, c2 in b_terms.items():
            mono, sign = bubble_wedge_monomials(m1, m2)
            if sign == 0:
                continue
            out[mono] = out.get(mono, 0) + sign * c1 * c2
    return {m: c for m, c in out.items() if c}


def as_tuple_terms(cls: ExteriorClass):
    return {mono.indices: coeff for mono, coeff in cls.terms()}


# -- monomial-text oracle: a fresh bit loop per call ---------------------

def bit_loop_indices(mask):
    """Ascending generator indices of a bitmask, lowest set bit first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def bit_loop_str(mask):
    """The text of `Monomial(mask)`: "1" for the empty monomial."""
    if not mask:
        return "1"
    return "{" + ",".join(str(k) for k in bit_loop_indices(mask)) + "}"


# -- random class generator ----------------------------------------------

def random_class(rng: random.Random, rank: int, max_terms: int = 4,
                 degree=None, modulus: int = 0) -> ExteriorClass:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        if degree is None:
            mask = rng.randrange(1 << rank)
        else:
            if degree > rank:
                continue
            indices = rng.sample(range(1, rank + 1), degree)
            mask = 0
            for k in indices:
                mask |= 1 << (k - 1)
        coeff = rng.randint(-9, 9)
        if coeff:
            terms[mask] = terms.get(mask, 0) + coeff
    terms = {m: c for m, c in terms.items() if c}
    return ExteriorClass(terms, rank, modulus)


# -- brute-force Chern character oracle -----------------------------------

def oracle_chern_character(manifold):
    """exp(Omega) by direct enumeration of all monomial products in a flat
    symbol algebra: symbols ('x', k) < ('t', k) ordered with every x before
    every t, signs by bubble sort, coefficients exact fractions. Returns
    {picard index tuple: integer} maps for degrees 0, 2, 4.
    """
    b = manifold.b1
    omega = {(("x", k), ("t", k)): Fraction(1) for k in range(1, b + 1)}

    def key(sym):
        return (0 if sym[0] == "x" else 1, sym[1])

    def mul(u, v):
        out = {}
        for m1, c1 in u.items():
            for m2, c2 in v.items():
                seq = list(m1) + list(m2)
                sign = 1
                changed = True
                while changed:
                    changed = False
                    for i in range(len(seq) - 1):
                        if seq[i] == seq[i + 1]:
                            sign = 0
                            break
                        if key(seq[i]) > key(seq[i + 1]):
                            seq[i], seq[i + 1] = seq[i + 1], seq[i]
                            sign = -sign
                            changed = True
                    if sign == 0:
                        break
                if sign == 0:
                    continue
                mono = tuple(seq)
                out[mono] = out.get(mono, 0) + sign * c1 * c2
        return {m: c for m, c in out.items() if c}

    total = {(): Fraction(1)}
    power = {(): Fraction(1)}
    factorial = 1
    for j in range(1, 5):
        power = mul(power, omega)
        factorial *= j
        for mono, coeff in power.items():
            total[mono] = total.get(mono, Fraction(0)) + coeff / factorial

    by_degree = {0: {}, 2: {}, 4: {}}
    for mono, coeff in total.items():
        xs = tuple(k for kind, k in mono if kind == "x")
        ts = tuple(k for kind, k in mono if kind == "t")
        if len(xs) != 4:
            continue  # fiber integration kills every other X-degree
        weight = coeff * manifold.quad(xs)
        if not weight:
            continue
        assert weight.denominator == 1, "oracle hit a fractional coefficient"
        deg = len(ts)
        if deg in by_degree:
            by_degree[deg][ts] = by_degree[deg].get(ts, 0) + int(weight)
    return {d: {m: c for m, c in terms.items() if c}
            for d, terms in by_degree.items()}


# -- assembly oracle -------------------------------------------------------

def direct_sum_oracle(complex_, target_n):
    """Direct sum of stems over proper cells, no differentials at all."""
    free_rank, torsion = 0, ()
    for cell in complex_.proper_cells:
        group = stems.stem_group(cell.dim - target_n)
        free_rank += group.free_rank
        torsion += group.torsion
    return stems.AbelianGroup(free_rank, torsion)


def binomial(n, k):
    if k < 0 or k > n:
        return 0
    return len(list(combinations(range(n), k))) if n <= 12 else _binom(n, k)


def _binom(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


# -- Steenrod squares on Thom classes ---------------------------------------

def sq_thom(i: int, x: ExteriorClass, bundle) -> ExteriorClass:
    """Sq^i on a Thom-basis class u*x: the Cartan formula collapses to
    u * (w_i wedge x) because the squares vanish on torus classes.

    `x` is the base part of the class; the Thom class u is implicit, and
    the result is the base part of Sq^i(u*x), a mod-2 class. The wedge is
    the bubble oracle's, reduced mod 2 by the constructor.
    """
    if i not in (1, 2, 3, 4):
        raise ValueError("sq_thom supports Sq^1..Sq^4")
    product = bubble_wedge(as_tuple_terms(bundle.w_class(i)),
                           as_tuple_terms(x))
    return ExteriorClass(product, bundle.base_rank, modulus=2)


# -- dense label oracle ------------------------------------------------------

def _dense_labeler(complex_, gap):
    bundle = complex_.bundle
    if gap == 1:
        label = AttachLabel(TRIVIAL, "adjacent attaching map: the cellular "
                            "differential vanishes (every cell survives in "
                            "the homology of the torus model)")
        return lambda upper, lower: label
    if gap == 3:
        if complex_.gap3_trivial:
            label = AttachLabel(TRIVIAL, "pi_2(SO(3)) is trivial: the framed "
                                "normal 2-sphere bounds, so the attaching "
                                "map is trivial")
        else:
            label = AttachLabel(UNKNOWN, "gap-3 attaching class undetermined "
                                "(could be eta^2); no detection rule applies")
        return lambda upper, lower: label
    w = bundle.w_class(gap)
    if gap == 2:
        miss = AttachLabel(TRIVIAL, f"eta excluded: Sq^2(u*x) = u*(w2^x) "
                           f"misses the upper cell (w2 = {w}); Sq^2 detects "
                           "eta exactly, so the class is trivial")
    else:
        miss = AttachLabel(UNKNOWN, f"Sq^4(u*x) = u*(w4^x) misses the upper "
                           f"cell (w4 = {w}); even multiples of nu are "
                           "undetected, so the class stays unknown")
    hits_by_lower = {}

    def hits(lower):
        """The base masks of the upper cells in Sq^gap(u*x_lower)."""
        if lower not in hits_by_lower:
            x = ExteriorClass({lower.base_mask: 1}, bundle.base_rank,
                              modulus=2)
            hits_by_lower[lower] = {
                m.mask for m in sq_thom(gap, x, bundle).support()}
        return hits_by_lower[lower]

    def labeler(upper, lower):
        if (upper.fiber_part == FIBER_THOM and lower.fiber_part == FIBER_THOM
                and upper.base_mask in hits(lower)):
            # w2 = c1 mod 2, and every bundle has c1 = 0
            assert gap == 4, f"Sq^2 hits {upper.name()} over {lower.name()}"
            return AttachLabel(
                NU_ODD,
                "Sq^4 detects odd multiples of nu: "
                f"Sq^4(u*x{Monomial(lower.base_mask)}) contains "
                f"u*x{Monomial(upper.base_mask)} via w4 = {w}")
        return miss

    return labeler


def dense_attachments(complex_):
    """Every (upper, lower) pair of proper cells with gap 1..4, labelled
    pair by pair: {pair: AttachLabel}."""
    by_dim = {}
    for cell in complex_.proper_cells:
        by_dim.setdefault(cell.dim, []).append(cell)
    labelers = {gap: _dense_labeler(complex_, gap) for gap in (1, 2, 3, 4)}
    labels = {}
    for dim, uppers in sorted(by_dim.items()):
        for gap in (1, 2, 3, 4):
            for upper in uppers:
                for lower in by_dim.get(dim - gap, ()):
                    labels[(upper, lower)] = labelers[gap](upper, lower)
    return labels


# -- canonical order oracle: the public fields, not the cell's tuple ------

def naive_dim(cell):
    return bin(cell.base_mask).count("1") + cell.fiber_offset + cell.suspension


def naive_key(cell):
    """The canonical order, from the public fields alone."""
    return (naive_dim(cell), FIBER_PARTS.index(cell.fiber_part),
            cell.base_mask, cell.suspension)


def label_rows(complex_):
    """{upper: [(lower, label), ...]} for every cell: each label the
    complex's rules stand for, written out pair by pair from `rules`,
    `cells_at` and `exceptions_from`, lowers in canonical order."""
    view = complex_.attachments
    defaults = view.rules.defaults
    proper = set(complex_.proper_cells)
    rows = {}
    for upper in complex_.cells:
        row = {lower: label for gap, label in defaults.items()
               if upper in proper
               for lower in view.cells_at(upper.dim - gap)}
        row.update(view.exceptions_from(upper))
        rows[upper] = sorted(row.items(), key=lambda kv: naive_key(kv[0]))
    return rows


def expand_labels(complex_):
    """{(upper, lower): label} for every labelled pair of a complex, in
    canonical order, from `label_rows`."""
    return {(upper, lower): label
            for upper, row in label_rows(complex_).items()
            for lower, label in row}


def basepoint_cell(complex_):
    """The complex's basepoint cell, or None."""
    return next(filter(complex_.is_basepoint, complex_.cells), None)


def canonical_pairs(labels):
    """The pairs of a label dict in canonical (upper, lower) key order."""
    return sorted(labels, key=lambda pair: (naive_key(pair[0]),
                                            naive_key(pair[1])))


# -- suspension oracle: remake every cell ------------------------------------

def suspend(complex_: StableCellComplex, k: int) -> StableCellComplex:
    """Shift every cell up by k; labels ride along unchanged."""
    if k < 0:
        raise ValueError("suspension must be nonnegative")
    if k == 0:
        return complex_
    lifted = {c: c.suspended(k) for c in complex_.cells}
    rules = None
    if complex_.attachments is not None:
        defaults, exceptions = complex_.attachments.rules
        rules = LabelRules(defaults, {
            (lifted[u], lifted[l]): label
            for (u, l), label in exceptions.items()})
    return complex_._replace(cells=tuple(lifted.values()), attachments=rules)


# -- subprocesses -------------------------------------------------------------

def package_env(**extra):
    """os.environ plus `extra`, with PYTHONPATH naming the directory this
    process imported thomstem from, so a child process imports the same
    package whether or not PYTHONPATH was set."""
    package = os.path.dirname(os.path.abspath(thomstem.__file__))
    return dict(os.environ, PYTHONPATH=os.path.dirname(package), **extra)


# -- scaling probe -----------------------------------------------------------

def thom_rung(b1):
    """The complex of the benchmark ladder's thom rungs as a scenario with
    the zero class: a det-3 torus summed with a b1 - 4 block
    `[1,2,3,4] = 5`, one suspension (target S^10). Its stem-2 columns
    carry gap-4 nu_odd exceptions."""
    return {"schema": "thomstem-scenario/1", "name": f"thom-b1-{b1}",
            "manifolds": [{"determinant": 3},
                          {"b1": b1 - 4, "quad_form": ["[1,2,3,4] = 5"]}],
            "suspensions": 1}


# -- per-pair unknown-column oracle -------------------------------------------


def per_pair_mark_unknowns(complex_, columns, notes):
    """Drop-in for `ahss._mark_unknowns`: walks every threatening pair of
    every column and formats each note from scratch. Like it, stores an
    unknown column's new entry under that column's cell in `columns`."""
    rows = label_rows(complex_)
    for upper, column in columns.items():
        if column.status == KILLED or column.group.is_trivial:
            continue
        q = column.stem_q
        head = None
        for lower, label in rows[upper]:
            gap = upper.dim - lower.dim
            source_q = _threat_source(label.value, gap, q)
            if source_q is None:
                continue
            if head is None:
                columns[upper] = column._replace(status=UNKNOWN, killer=None)
                head = f"column {upper.name()} marked unknown: reachable " \
                       "through a "
            notes.append(f"{head}{label.value} gap-{gap} label from "
                         f"{lower.name()} (source stem {source_q})")
