"""The report writer against the stdlib encoder it stands in for.

`report_json` must give `json.dumps(report_dict(r), indent=2,
sort_keys=True, default=list) + "\n"` byte for byte, and refuse what a
report must never hold. A report holds two kinds of value that are not
plain lists: row tables (`CellRows`, `EntryRows`, `DetectedRows`), which
`default=list` writes as their row dicts, and the `Notes` sequence,
which it writes as its notes.
"""

import enum
import io
import json
import pathlib
import random
import sys

import pytest

from helpers import thom_rung
from test_golden import CASES
from thomstem import pipeline
from thomstem.ahss import ColumnEntry, Notes
from thomstem.pipeline import CellRows, DetectedRows, EntryRows
from thomstem.stems import AbelianGroup
from thomstem.thom import AttachLabel, AttachmentView, StableCell

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "perfbench"))
from workloads import catalogue  # noqa: E402


def stdlib(value):
    return json.dumps(value, indent=2, sort_keys=True, default=list) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_reports_match_stdlib_encoder(name):
    result = pipeline.run_scenario(CASES[name])
    assert pipeline.report_json(result) == stdlib(pipeline.report_dict(result))


@pytest.mark.parametrize("name", sorted(CASES))
def test_write_report_streams_the_report_json_bytes(monkeypatch, name):
    """`write_report` writes `report_json`'s text, one write per slice of
    `_SLICE_PARTS` parts, whatever the slice size."""
    result = pipeline.run_scenario(CASES[name])
    text, parts = pipeline.report_json(result), pipeline._report_parts(result)
    for size in (pipeline._SLICE_PARTS, 7, 1):
        monkeypatch.setattr(pipeline, "_SLICE_PARTS", size)
        chunks = []
        pipeline.write_report(result, Chunks(chunks))
        assert "".join(chunks) == text
        assert len(chunks) == -(-len(parts) // size)


class Chunks:
    """A text file that keeps each write in `chunks`."""

    def __init__(self, chunks):
        self.write = chunks.append


def test_write_report_matches_report_json_on_catalogue_items():
    items = [item for item in catalogue()
             if item.mode == "run" and item.expect == "report"]
    # a seeded sample, and the ladder's thom b1 = 9, 10 and sphere b1 = 9
    rungs = [item for item in items if "_b1_" in item.name][:3]
    for item in random.Random(26).sample(items, 20) + rungs:
        result = pipeline.run_scenario(pipeline.parse_scenario(item.raw))
        out = io.StringIO()
        pipeline.write_report(result, out)
        assert out.getvalue() == pipeline.report_json(result), item.name


class Level(enum.IntEnum):
    HIGH = 3


class Name(str):
    pass


def cell_with(cell, at, value):
    """`cell` with item `at` set to `value`, which `StableCell` refuses."""
    return tuple.__new__(StableCell, cell[:at] + (value,) + cell[at + 1:])


# a detected nu pair of dims 9 and 5, as the sec4 complex has
UPPER, LOWER = StableCell(15, "thom", 4, 1), StableCell(0, "thom", 4, 1)
NU = AttachLabel("nu_odd", "Sq^4 detects odd multiples of nu")


ZOO = {
    "empties": [[], {}, [[]], [{}], {"a": []}, {"b": {}}],
    "tuples": (1, "two", (3, ()), [(4,)]),
    "ints": [0, -1, 7, -(10 ** 30), 10 ** 30],
    "bools next to ints": [True, 1, False, 0, {"t": True, "one": 1}],
    "none": None,
    "nones": [None, {"n": None}],
    "strings": ['a "quoted" word', "back\\slash", "tab\tnew\nline\r",
                "control \x00\x01\x1f\x7f", "non-ascii é ∂ \U0001f600",
                "", "/", "  "],
    "keys": {"b": 1, "a": 2, "é": 3, '"q"': 4, "": 5, "B": 6,
             "a\nb": 7},
    "nested": {"z": [{"y": [{"x": ["deep", 1, None, True]}]}]},
    "mixed list": ["s", 1, None, True, [], {}, ["t"], {"k": "v"}],
}


@pytest.mark.parametrize("value", [
    ZOO, [], {}, ["only"], (), ("a", "b"), [None], [True, False], [-3],
])
def test_value_zoo_matches_stdlib_encoder(monkeypatch, value):
    monkeypatch.setattr(pipeline, "report_dict", lambda result: value)
    assert pipeline.report_json(None) == stdlib(value)


@pytest.mark.parametrize("value", [
    1.5, {"x": 0.25}, [1, [2.0]], {"x": float("nan")},
    {1: "int key"}, {None: "null key"}, {("a",): "tuple key"},
    {"a": 1, 2: "mixed keys"}, {"set": {1, 2}}, [b"bytes"], [object()],
    # subclasses of the scalars are not written either
    [Level.HIGH], {"name": Name("x")},
    # nor inside lists, or inside the columns of a table
    ["a", Name("b")], [Name("b")], [1, Level.HIGH], [1.0],
    [{"name": "a"}, {"name": Name("b")}], [{"dim": 1}, {"dim": 2.0}],
    [{"dim": Level.HIGH}], [{"base": [1, 2.0]}], [{"base": [Level.HIGH]}],
    [{"base": 1, "x": 2}, {"base": 1, "x": 2, 3: "int key"}],
    [{"a": 1}, {1: "int key"}],
    # a report is a container
    "top-level string", 12, None,
    # a detected-label row holds cells of exact int dim, and its name,
    # label value and justification are exact str, in every row
    *(DetectedRows(rows, names) for rows, names in (
        ([((cell_with(UPPER, 0, 9.0), LOWER), NU)], {}),
        ([((UPPER, cell_with(LOWER, 0, Level.HIGH)), NU)], {}),
        ([((UPPER, cell_with(LOWER, 0, True)), NU)], {}),
        ([((cell_with(UPPER, 0, "9"), LOWER), NU)], {}),
        ([((UPPER, cell_with(LOWER, 0, None)), NU)], {}),
        ([((UPPER, LOWER), NU._replace(value=Name("nu_odd")))], {}),
        ([((UPPER, LOWER), NU._replace(value=4))], {}),
        ([((UPPER, LOWER), NU._replace(justification=Name("Sq^4")))], {}),
        ([((UPPER, LOWER), NU._replace(justification=b"Sq^4"))], {}),
        ([((UPPER, LOWER), NU)], {id(UPPER): Name("H{1,2,3,4}+1")}),
        ([((UPPER, LOWER), NU)], {id(LOWER): 5}),
        ([((UPPER, LOWER), NU), ((UPPER, cell_with(LOWER, 0, 5.0)), NU)],
         {}),
        ([((UPPER, LOWER), NU),
          ((UPPER, LOWER), NU._replace(value=Name(NU.value)))], {}))),
    # a Notes item, run head or tail is an exact str
    Notes(["a", Name("b")]), Notes([Name("b")]), Notes([("h", (1,))]),
    Notes([(Name("h"), ("t",))]), Notes([("h", ("t", Name("u")))]),
    Notes([(1, ("t",))]), Notes([("h", (None,))]),
    Notes([("h", ('"t',)), (Name("h"), ("t",))]),
])
def test_values_a_report_cannot_hold_raise(monkeypatch, value):
    monkeypatch.setattr(pipeline, "report_dict", lambda result: value)
    with pytest.raises(TypeError):
        pipeline.report_json(None)


def inexact_results():
    """The thom b1 = 9 rung, whose report has killed and reduced columns,
    with one value of a table made inexact: in a cell of the final complex
    (items: dim, fiber order, mask, suspension, fiber part, offset), in a
    column entry of the report, or in a detected label of the complex."""
    result = pipeline.run_scenario(pipeline.parse_scenario(thom_rung(9)))
    final, report = result.final_complex, result.report
    top = final.cells[-1]
    for at, value in ((0, float(top[0])), (0, Level.HIGH), (3, True),
                      (3, 1.0), (4, Name(top[4]))):
        bad = final._replace(cells=final.cells[:-1] + (cell_with(top, at,
                                                                 value),),
                             attachments=None)
        yield f"cell item {at} {type(value).__name__}", result._replace(
            final_complex=bad)
    entries = report.entries
    # the last of each kind: a value equal to one before it is checked too
    killed = max(i for i, entry in enumerate(entries) if entry.killer)
    reduced = max(i for i, entry in enumerate(entries)
                  if entry.reduced_index is not None)
    last = entries[-1]
    for i, change in (
            (reduced, {"reduced_index": 24.0}),
            (reduced, {"reduced_index": True}),
            (-1, {"stem_q": True}), (-1, {"stem_q": float(last.stem_q)}),
            (killed, {"killer": Name(entries[killed].killer)}),
            (killed, {"status": Name(entries[killed].status)}),
            (-1, {"status": Name(last.status)}),
            (-1, {"cell": cell_with(last.cell, 0, float(last.cell.dim))})):
        i %= len(entries)
        bad = entries[:i] + (entries[i]._replace(**change),) + entries[i + 1:]
        (field, value), = change.items()
        yield f"entry {i} {field} {type(value).__name__}", result._replace(
            report=report._replace(entries=bad))
    detected = final.attachments.detected
    (upper, lower), label = detected[-1]
    # in the last row: its label value equals every row's before it, and
    # the justification it is given equals the first row's
    for key, item in (
            ("upper dim float", ((cell_with(upper, 0, float(upper.dim)),
                                  lower), label)),
            ("lower dim bool", ((upper, cell_with(lower, 0, True)), label)),
            ("label Name", ((upper, lower),
                            label._replace(value=Name(label.value)))),
            ("justification Name", ((upper, lower), label._replace(
                justification=Name(detected[0][1].justification))))):
        yield f"detected {key}", result._replace(final_complex=tuple.__new__(
            type(final), final[:3] + (view_with(final.attachments,
                                                 detected[:-1] + (item,)),)
            + final[4:]))


def view_with(labels, detected):
    """The view `labels` with `detected` as its detected labels, which
    `AttachmentView` would refuse or find again from its rules."""
    view = object.__new__(AttachmentView)
    for slot in AttachmentView.__slots__:
        object.__setattr__(view, slot, getattr(labels, slot))
    object.__setattr__(view, "detected", detected)
    return view


@pytest.mark.parametrize("result", [
    pytest.param(result, id=label) for label, result in inexact_results()])
def test_inexact_cells_and_entries_raise(result):
    """The three tables are written from the cells, entries and detected
    labels themselves, and refuse a float, a bool or an int subclass where
    an int goes, and a str subclass where a str goes."""
    with pytest.raises(TypeError):
        pipeline.report_json(result)
    with pytest.raises(TypeError):
        pipeline.write_report(result, io.StringIO())


# -- lists of strings -----------------------------------------------------

def written(value):
    """`value` through the writer, with no report around it."""
    parts = []
    pipeline._write(value, "\n", parts)
    return "".join(parts) + "\n"


@pytest.mark.parametrize("bad", [
    'a "quoted" word', "back\\slash", "new\nline", "unit \x1f sep",
    "del \x7f", "non-ascii é", "astral \U0001f600",
])
def test_str_lists_that_need_escapes_match_stdlib(bad):
    strings = ["plain", "", bad, "tail"]
    assert written(strings) == stdlib(strings)
    assert written(tuple(strings)) == stdlib(strings)


def test_plain_str_lists_match_stdlib():
    strings = ["", "plain", "  spaces and ~!@#$%^&*()_+-=[]{};':,./<>?", ""]
    assert written(strings) == stdlib(strings)
    assert written({"k": strings}) == stdlib({"k": strings})


def test_str_probe_reads_every_slice():
    """A long list of plain strings with one escape, at its start, in its
    middle or at its end, is written as the stdlib writes it."""
    for at in (0, 6143, 12287):
        strings = ["ok"] * 12288
        strings[at] = "late \\ escape"
        assert written(strings) == stdlib(strings), at


ROW_LISTS = [
    # a column of None and str, as the assembly's killer column
    [{"killer": None, "n": 1}, {"killer": 'd2 "into" x', "n": 2},
     {"killer": "é", "n": 3}],
    # a bool column next to an int column, and bools among ints
    [{"flag": True, "dim": 0}, {"flag": False, "dim": -7}],
    [{"x": True}, {"x": 1}, {"x": 0}, {"x": False}],
    # int-list columns, empty and not
    [{"base": [], "dims": [1, 2]}, {"base": [3], "dims": (4, -5)},
     {"base": [1, 2, 10 ** 20], "dims": []}],
    # key sets that differ, in runs and alternating
    [{"a": 1}, {"a": 2, "b": 3}, {"a": 4, "b": 5}, {"a": 6}],
    [{"a": 1}, {"b": 2}, {"a": 3}, {"b": 4}],
    # a single row, a row of one key
    [{"name": "H{1,2}", "dim": 6, "basepoint": False, "killer": None}],
    [{"only": "one"}],
    # % in keys and in values
    [{"50%": "%s", "%d": "%%", "%(x)s": 1},
     {"50%": "%", "%d": "", "%(x)s": 2}],
    # keys that need escapes, and a str value needing them
    [{'"q"': "a\nb", "é": 1, "": None}, {'"q"': "c", "é": 2, "": True}],
    # a list column holding a nested or a non-int list
    [{"base": [1, [2]]}, {"base": [3]}],
    [{"base": ["1"]}, {"base": [2]}],
    [{"base": [True]}, {"base": [2]}],
    [{"nested": {"a": 1}}, {"nested": {"a": 2}}],
    # a row without keys
    [{}, {"a": 1}, {}],
]


@pytest.mark.parametrize("rows", ROW_LISTS)
def test_row_lists_match_stdlib(rows):
    assert written(rows) == stdlib(rows)
    assert written({"rows": rows, "after": 1}) == \
        stdlib({"rows": rows, "after": 1})
    assert written([rows, rows]) == stdlib([rows, rows])


TOP = ColumnEntry(UPPER, 6, AbelianGroup(0, (24,)), "killed",
                  'd4 from "H{}+1"', None)


@pytest.mark.parametrize("table", [
    DetectedRows((), {}), EntryRows((), {}),
    # cells the names map does not hold are named afresh
    DetectedRows((((UPPER, LOWER), NU),), {}),
    EntryRows((TOP, TOP._replace(cell=LOWER, stem_q=2, status="reduced",
                                 killer=None, reduced_index=24)), {}),
    # names and labels that need escapes, and rows that share a label
    DetectedRows((((UPPER, LOWER), NU._replace(justification="é\n")),),
                 {id(UPPER): 'H"{1}"', id(LOWER): "back\\slash"}),
    DetectedRows((((UPPER, LOWER), NU), ((LOWER, UPPER), NU)),
                 {id(UPPER): "U"}),
])
def test_rows_edge_cases_match_stdlib(table):
    assert written(table) == stdlib(table)
    assert written({"t": table}) == stdlib({"t": list(table)})


@pytest.mark.parametrize("value", [
    [0, -1, 10 ** 30], [True, False], [None, None], ("a", "b"),
])
def test_one_scalar_type_lists_match_stdlib(value):
    assert written(value) == stdlib(value)


def test_int_lists_that_recur_match_stdlib():
    """Int lists that recur give their own bytes: a tuple object in
    several rows and both columns, and the dims pairs."""
    shared = (1, 2, 4)
    rows = [{"base": shared, "dims": (6, 4)},
            {"base": shared, "dims": (7, 5)},
            {"base": (), "dims": shared},
            {"base": shared, "dims": [6, 4]},
            {"base": [10 ** 20, -3], "dims": (6, 4)}]
    for _ in range(2):
        assert written(rows) == stdlib(rows)
        assert written({"t": rows}) == stdlib({"t": rows})


def test_large_lists_are_not_written_one_part_per_item():
    spec = pipeline.parse_scenario({
        "schema": "thomstem-scenario/1", "name": "thom-b1-9",
        "manifolds": [{"determinant": 3},
                      {"b1": 5, "quad_form": ["[1,2,3,4] = 5"]}],
        "suspensions": 1})
    report = pipeline.report_dict(pipeline.run_scenario(spec))
    assert type(report["complex"]["cells"]) is CellRows
    assert type(report["complex"]["detected_labels"]) is DetectedRows
    assert type(report["assembly"]["entries"]) is EntryRows
    assert len(report["assembly"]["notes"]) == 4548
    assert len(list(report["complex"]["cells"])) == 513
    parts, note_parts, other_parts = [], [], []
    pipeline._write(report, "\n", parts)
    assert "".join(parts) + "\n" == stdlib(report)
    # only the notes go a part per head, tail and separator; without
    # them (an empty list is one part) the tables keep the report small
    pipeline._write(report["assembly"]["notes"], "\n    ", note_parts)
    report["assembly"]["notes"] = Notes(())
    pipeline._write(report, "\n", other_parts)
    assert len(parts) == len(note_parts) + len(other_parts) - 1
    assert len(other_parts) < 200


# -- notes written as heads, tails and separators ------------------------

NOTE_CASES = [
    [], ["only"], [("h: ", ("a",))], ["", ("", ("", ""))],
    ["plain", ("column X: ", ("one", "two", "three")), "after"],
    # a tails tuple shared by runs, and runs of one head
    [("a: ", ("x", "y")), ("b: ", ("x", "y")), ("a: ", ("z",))],
    # text that needs escapes, in a plain note, a head or a tail
    ['a "quoted" note', ("h: ", ("t",))],
    [("back\\slash ", ("t", "u")), "plain"],
    [("h: ", ("t", "new\nline")), ("g: ", ("ok",))],
    [("non-ascii é ", ("t",))], [("h: ", ("astral \U0001f600",))],
    [("h: ", ("ok",)), ("h: ", ("\x7f",))],
]


def check_note_parts(notes, newline, parts):
    """`parts` are `notes` written flat, as the escaped strings without
    their quotes: after the opening, each plain note, or a run's head
    and then its tails with `sep + head` between them; `sep` after each
    item but the last, and the closing after that."""
    if not notes.items:
        assert parts == ["[]"]
        return
    sep = '",' + newline + '  "'
    expected = ["[" + newline + '  "']
    for item in notes.items:
        if isinstance(item, str):
            expected += [json.dumps(item)[1:-1], sep]
            continue
        head = json.dumps(item[0])[1:-1]
        expected.append(head)
        for tail in item[1]:
            expected += [json.dumps(tail)[1:-1], sep + head]
        expected[-1] = sep
    expected[-1] = '"' + newline + "]"
    assert parts == expected
    runs = sum(not isinstance(item, str) for item in notes.items)
    assert len(parts) == 1 + 2 * len(notes) + runs


@pytest.mark.parametrize("items", NOTE_CASES)
def test_notes_match_stdlib(items):
    notes = Notes(items)
    parts = []
    pipeline._write(notes, "\n", parts)
    check_note_parts(notes, "\n", parts)
    assert written(notes) == stdlib(notes) == stdlib(list(notes))
    assert written({"notes": notes, "z": 1}) == \
        stdlib({"notes": list(notes), "z": 1})
    assert written([notes, notes]) == stdlib([list(notes)] * 2)


def test_ladder_notes_are_parts_built_from_runs(monkeypatch):
    """The thom b1 = 10 rung's 32,624 notes are written as the parts of
    their runs: each head and each distinct tails tuple is escaped once,
    and no note is built on the way from `run_scenario` to
    `report_json`."""
    result = pipeline.run_scenario(pipeline.parse_scenario(thom_rung(10)))
    notes = result.report.notes
    expected = stdlib(pipeline.report_dict(result))
    parts = []
    pipeline._write(notes, "\n    ", parts)
    check_note_parts(notes, "\n    ", parts)
    runs = [item for item in notes.items if not isinstance(item, str)]
    tails = {id(item[1]): item[1] for item in runs}
    # opening, closing, `sep`, each head and `sep + head`, each distinct tail
    assert len(set(map(id, parts))) <= 3 + len(notes.items) + len(runs) + \
        sum(map(len, tails.values())) < len(notes)

    def refuse(*args):
        raise AssertionError("built a note one at a time")

    for name in ("__iter__", "__getitem__"):
        monkeypatch.setattr(Notes, name, refuse)
    result = pipeline.run_scenario(pipeline.parse_scenario(thom_rung(10)))
    assert pipeline.report_json(result) == expected
    # the columns of one dimension without exceptions share one tails tuple
    labels = result.final_complex.attachments
    cells = {entry.cell.name(): entry.cell for entry in result.report.entries}
    shared = {}
    for item in result.report.notes.items:
        if isinstance(item, str):
            continue
        cell = cells[item[0].split()[1]]
        if not labels.exceptions_from(cell):
            assert shared.setdefault(cell.dim, item[1]) is item[1]
    assert len(shared) >= 2


def test_report_formats_each_cell_name_once(monkeypatch):
    """The assembly and the detected labels read the complex's own cells,
    so the report formats each cell's name once for all three tables;
    only the class assignment names a cell again. The thom b1 = 10 rung
    once took 2,305 calls for 1,025 cells."""
    result = pipeline.run_scenario(pipeline.parse_scenario(thom_rung(10)))
    expected = stdlib(pipeline.report_dict(result))
    calls = []
    name = StableCell.name
    monkeypatch.setattr(StableCell, "name",
                        lambda cell: calls.append(cell) or name(cell))
    assert pipeline.report_json(result) == expected
    final = result.final_complex
    assert len(final.cells) == 1025
    assert final.attachments.detected
    assert len(calls) == len(final.cells) + len(result.assignment)
