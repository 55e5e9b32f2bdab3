"""The nine value types are checked tuples.

Each is a namedtuple subclass with one checked constructor. `_make`,
`_replace`, copy and pickle all go through that constructor, so none of
them can build a value it rejects; a value forged with `tuple.__new__`
is rejected (or made again) the moment it is copied or pickled. A fresh
`import thomstem.cli` loads neither `dataclasses` nor `inspect`. A value
neither adds nor multiplies as a tuple would.

The values that are not tuples (`AttachmentView`, `Notes`,
`ExteriorClass`) are `values.Frozen`: setting or deleting any attribute
raises `AttributeError`, and copy and pickle give equal values.
"""

import copy
import dataclasses
import pickle
import subprocess
import sys

import pytest

from helpers import package_env
from thomstem import pipeline
from thomstem.ahss import GroupReport, Notes
from thomstem.chern import (REAL, BundleData, FrozenMap, ManifoldData,
                            make_homology_torus)
from thomstem.exterior import ExteriorClass, Monomial
from thomstem.pipeline import RunResult, ScenarioSpec
from thomstem.stems import AbelianGroup, StemElement
from thomstem.thom import (TRIVIAL, AttachLabel, AttachmentView,
                           StableCellComplex, skeletal_quotient)
from thomstem.values import Frozen

SEC4 = pipeline.preset("paper-sec4", det1=3, det2=5)
RESULT = pipeline.run_scenario(SEC4)

TYPES = (Monomial, AbelianGroup, StemElement, ManifoldData, BundleData,
         StableCellComplex, GroupReport, ScenarioSpec, RunResult)

VALUES = {
    Monomial: Monomial(0b1011),
    AbelianGroup: AbelianGroup(1, (24, 2)),
    StemElement: StemElement(3, "nu_multiple", 12),
    ManifoldData: RESULT.manifold,
    BundleData: RESULT.bundle,
    StableCellComplex: RESULT.final_complex,
    GroupReport: RESULT.report,
    ScenarioSpec: SEC4,
    RunResult: RESULT,
}

_C2 = ExteriorClass({(1, 2, 3, 4): 1}, 4)

# type -> (field changes the constructor rejects, error type, message)
REJECTED = {
    Monomial: ({"mask": -1}, ValueError, "monomial mask must be nonnegative"),
    AbelianGroup: ({"free_rank": 0, "torsion": (1,)}, ValueError,
                   "torsion coefficients must be >= 2"),
    StemElement: ({"q": 1, "kind": "one"}, ValueError,
                  "one lives in stem 0, not 1"),
    ManifoldData: ({"b1": -1}, ValueError, "b1 must be nonnegative"),
    BundleData: ({"field": REAL, "c2": _C2}, ValueError,
                 "a real bundle needs c2 = 0"),
    GroupReport: ({"entries": RESULT.report.entries[::-1]}, ValueError,
                  "entries: the cells must strictly ascend"),
}


def _forged(value, **changes):
    """`value` with `changes`, made past the constructor."""
    items = value._asdict()
    items.update(changes)
    return tuple.__new__(type(value), tuple(items.values()))


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{f"pickle{protocol}":
       (lambda value, protocol=protocol:
        pickle.loads(pickle.dumps(value, protocol)))
       for protocol in range(pickle.HIGHEST_PROTOCOL + 1)},
}


def test_fresh_cli_import_loads_neither_dataclasses_nor_inspect():
    # typing, argparse, json and re load neither on Pythons 3.10 to 3.13,
    # so only thomstem could
    probe = ("import sys, thomstem.cli; print(sorted({'dataclasses', "
             "'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env=package_env()).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("kind", TYPES, ids=lambda kind: kind.__name__)
def test_value_is_a_read_only_tuple_of_its_fields(kind):
    value = VALUES[kind]
    assert isinstance(value, tuple) and not hasattr(value, "__dict__")
    assert tuple(value)[:len(kind._fields)] == tuple(
        getattr(value, name) for name in kind._fields)
    for name in kind._fields[:1] + ("other",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


@pytest.mark.parametrize("kind", TYPES, ids=lambda kind: kind.__name__)
def test_copies_are_equal_values_of_the_type(kind):
    value = VALUES[kind]
    for copier in COPIES.values():
        copied = copier(value)
        assert type(copied) is kind and copied == value
    # a complex takes its labels back as rules, never as its view
    labels = {"attachments": value.attachments.rules} \
        if kind is StableCellComplex else {}
    assert value._replace(**labels) == value
    assert kind._make({**value._asdict(), **labels}.values()) == value


@pytest.mark.parametrize("kind", sorted(REJECTED, key=TYPES.index),
                         ids=lambda kind: kind.__name__)
def test_replace_make_copy_and_pickle_reject_what_the_constructor_does(
        kind):
    changes, error, message = REJECTED[kind]
    value = VALUES[kind]
    with pytest.raises(error, match=message):
        value._replace(**changes)
    forged = _forged(value, **changes)
    with pytest.raises(error, match=message):
        kind._make(forged)
    for copier in COPIES.values():
        with pytest.raises(error, match=message):
            copier(forged)


def test_a_complex_copies_its_rules_through_the_constructor():
    full = RESULT.final_complex
    cut = skeletal_quotient(full, 8)
    # the cut's cells under the full complex's view: an exception names a
    # collapsed cell, which the constructor rejects
    forged = tuple.__new__(StableCellComplex, (
        cut.cells, cut.bundle, cut.basepoint_policy, full.attachments,
        cut.gap3_trivial, cut.proper_cells))
    for copier in COPIES.values():
        with pytest.raises(ValueError, match="outside the complex"):
            copier(forged)
    with pytest.raises(ValueError, match="outside the complex"):
        cut._replace(attachments=full.attachments.rules)
    # a view passed back is refused, so a _replace must name the rules
    with pytest.raises(TypeError, match="LabelRules"):
        cut._replace(gap3_trivial=True)
    # cells out of order are sorted again, and proper_cells made again
    shuffled = tuple.__new__(StableCellComplex, (
        full.cells[::-1], full.bundle, full.basepoint_policy, None,
        full.gap3_trivial, ()))
    plain = full._replace(attachments=None)
    for copier in COPIES.values():
        again = copier(shuffled)
        assert again == plain and again.proper_cells == full.proper_cells


def test_derived_items_are_made_again():
    report, result = RESULT.report, RESULT
    top = result.final_complex.top_cell
    # a report derives nothing: `entry_for` reads the entries themselves
    assert len(report) == len(GroupReport._fields)
    for copier in COPIES.values():
        assert copier(report).entry_for(top) == report.entry_for(top)
    fewer = report._replace(entries=report.entries[:-1])
    with pytest.raises(KeyError, match="no column for cell"):
        fewer.entry_for(top)
    plain = _forged(result, assignment=dict(result.assignment))
    for value in (result._replace(assignment=dict(result.assignment)),
                  *(copier(plain) for copier in COPIES.values())):
        assert type(value.assignment) is FrozenMap
        assert value.assignment == result.assignment


def test_a_report_takes_entries_in_strictly_ascending_cell_order():
    report = RESULT.report
    entries = report.entries
    swapped = entries[:1] + entries[2:3] + entries[1:2] + entries[3:]
    for bad in (entries[::-1], swapped, entries[:2] + entries[1:]):
        with pytest.raises(ValueError, match="^entries: "):
            report._replace(entries=bad)
    for good in ((), entries[:1], entries[::2]):
        assert report._replace(entries=good).entries == good


def test_hash_leaves_out_the_mappings_and_equal_values_hash_equal():
    # a manifold's quad_form and a spec's manifolds are FrozenMaps, which
    # do not hash; the types that hash hash equal for equal values
    again = pipeline.preset("paper-sec4", det1=3, det2=5)
    assert again == SEC4 and hash(again) == hash(SEC4)
    torus = make_homology_torus(3)
    assert hash(torus) == hash(make_homology_torus(3))
    assert hash(torus) == hash(torus._replace(quad_form={(1, 2, 3, 4): 5}))
    assert torus != torus._replace(quad_form={(1, 2, 3, 4): 5})
    for kind in (Monomial, AbelianGroup, StemElement, BundleData):
        value = VALUES[kind]
        assert hash(copy.deepcopy(value)) == hash(value)
        assert value == tuple(value)
    unlabelled = RESULT.final_complex._replace(attachments=None)
    assert hash(unlabelled) == hash(copy.deepcopy(unlabelled))
    for unhashable in (RESULT.final_complex, RESULT.report, RESULT):
        with pytest.raises(TypeError):
            hash(unhashable)


def test_repr_leaves_out_derived_items_and_the_report_complex():
    complex_, report = RESULT.final_complex, RESULT.report
    assert repr(complex_).startswith(
        f"StableCellComplex(cells={complex_.cells!r}, bundle=")
    assert repr(complex_).endswith(", gap3_trivial=False)")
    assert "proper_cells" not in repr(complex_)
    assert repr(report) == (
        f"GroupReport(target_n={report.target_n!r}, "
        f"entries={report.entries!r}, assembled={report.assembled!r}, "
        f"bounds={report.bounds!r}, notes={report.notes!r}, "
        f"differentials={report.differentials!r})")
    assert repr(AbelianGroup(1, (24, 2))) == \
        "AbelianGroup(free_rank=1, torsion=(2, 24))"


def test_dataclasses_replace_on_a_result_goes_through_the_constructor():
    # perfbench's self-tests change a verdict this way
    changed = dataclasses.replace(RESULT, verdict="trivial",
                                  assignment=dict(RESULT.assignment))
    assert type(changed) is RunResult and changed.verdict == "trivial"
    assert type(changed.assignment) is FrozenMap
    assert changed._replace(verdict=RESULT.verdict) == RESULT


@pytest.mark.parametrize("kind", TYPES, ids=lambda kind: kind.__name__)
def test_values_neither_add_nor_multiply(kind):
    # a tuple's + and * would concatenate or repeat the items into a
    # plain tuple
    value = VALUES[kind]
    for combine in (lambda: value + value, lambda: value * 2,
                    lambda: 2 * value):
        with pytest.raises(TypeError, match="unsupported operand"):
            combine()


FROZEN = {
    AttachmentView: RESULT.final_complex.attachments,
    Notes: RESULT.report.notes,
    ExteriorClass: RESULT.bundle.c2,
}


@pytest.mark.parametrize("kind", FROZEN, ids=lambda kind: kind.__name__)
def test_frozen_values_refuse_setting_and_deleting_attributes(kind):
    value = FROZEN[kind]
    assert isinstance(value, kind) and isinstance(value, Frozen)
    assert not hasattr(value, "__dict__")
    for name in kind.__slots__ + ("other",):
        before = getattr(value, name, None)
        with pytest.raises(AttributeError, match=f"{kind.__name__} is "
                           "immutable"):
            setattr(value, name, ())
        with pytest.raises(AttributeError, match=f"{kind.__name__} is "
                           "immutable"):
            delattr(value, name)
        assert getattr(value, name, None) is before



@pytest.mark.parametrize("kind", FROZEN, ids=lambda kind: kind.__name__)
def test_frozen_values_copy_and_pickle_to_equal_values(kind):
    value = FROZEN[kind]
    for copier in COPIES.values():
        copied = copier(value)
        assert type(copied) is kind and copied == value


def test_a_view_copies_its_rules_through_the_constructor():
    labels = RESULT.final_complex.attachments
    complex_ = RESULT.final_complex
    # an exception that names the basepoint, a cell outside the proper ones
    basepoint, top = complex_.cells[0], complex_.top_cell
    assert basepoint not in complex_.proper_cells
    rules = labels.rules._replace(exceptions={
        **labels.rules.exceptions,
        (top, basepoint): AttachLabel(TRIVIAL, "named by hand")})
    for view in (labels, AttachmentView(complex_.cells,
                                        complex_.proper_cells, rules)):
        for copier in COPIES.values():
            copied = copier(view)
            assert copied == view and copied.detected == view.detected
            assert copied.counts() == view.counts()
            assert list(copied.exceptions_from(top)) == \
                list(view.exceptions_from(top))
