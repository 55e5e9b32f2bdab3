"""The report writer against the stdlib encoder it stands in for.

`report_json` must give `json.dumps(report_dict(r), indent=2,
sort_keys=True, default=list) + "\n"` byte for byte, and refuse what a
report must never hold. `default=list` writes a `Rows` table as its row
dicts and a `Notes` sequence as its notes.
"""

import enum
import json
from itertools import groupby

import pytest

from helpers import thom_rung
from test_golden import CASES
from thomstem import pipeline
from thomstem.ahss import Notes
from thomstem.pipeline import Rows
from thomstem.thom import StableCell


def stdlib(value):
    return json.dumps(value, indent=2, sort_keys=True, default=list) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_reports_match_stdlib_encoder(name):
    result = pipeline.run_scenario(CASES[name])
    assert pipeline.report_json(result) == stdlib(pipeline.report_dict(result))


class Level(enum.IntEnum):
    HIGH = 3


class Name(str):
    pass


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
    # a Rows column holds scalars of exact type or lists of exact int
    Rows({"dim": [1, 2.0]}), Rows({"dim": [Level.HIGH]}),
    Rows({"name": ["a", Name("b")]}),
    Rows({"a": [1]}, {"name": [Name("b")]}),
    Rows({"base": [[1, [2]], [3]]}), Rows({"base": [[1], ["2"]]}),
    Rows({"base": [[True]]}), Rows({"base": [(1, 2.0)]}),
    Rows({"nested": [{"a": 1}]}), Rows({"set": [{1, 2}]}),
    # and its keys are str
    Rows({1: ["int key"]}), Rows({"a": [1], 1: [2]}),
    Rows({"a": [1]}, {2: [3]}),
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
    assert not pipeline._plain(strings)
    assert written(strings) == stdlib(strings)
    assert written(tuple(strings)) == stdlib(strings)


def test_plain_str_lists_match_stdlib():
    strings = ["", "plain", "  spaces and ~!@#$%^&*()_+-=[]{};':,./<>?", ""]
    assert pipeline._plain(strings)
    assert written(strings) == stdlib(strings)
    assert written({"k": strings}) == stdlib({"k": strings})


def test_str_probe_reads_every_slice():
    strings = ["ok"] * (3 * pipeline._PROBE_ITEMS)
    assert pipeline._plain(strings)
    strings[-1] = "late \\ escape"
    assert not pipeline._plain(strings)
    assert written(strings) == stdlib(strings)


def as_rows(dicts):
    """`dicts` as a `Rows` value: one run per run of rows with one key set."""
    runs = []
    for keys, run in groupby(dicts, dict.keys):
        run = list(run)
        runs.append({key: [row[key] for row in run] for key in keys})
    return Rows(*runs)


# written as Rows too, by `as_rows`
COLUMNAR_ROWS = [
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
]

# refused as Rows, and written item by item as plain lists
ITEMWISE_ROWS = [
    # a list column holding a nested or a non-int list
    [{"base": [1, [2]]}, {"base": [3]}],
    [{"base": ["1"]}, {"base": [2]}],
    [{"base": [True]}, {"base": [2]}],
    [{"nested": {"a": 1}}, {"nested": {"a": 2}}],
    # a row without keys
    [{}, {"a": 1}, {}],
]


@pytest.mark.parametrize("rows", COLUMNAR_ROWS + ITEMWISE_ROWS)
def test_row_lists_match_stdlib(rows):
    values, table = [rows], as_rows(rows)
    if rows in COLUMNAR_ROWS:
        assert list(table) == rows
        values.append(table)
    elif list(table) == rows:      # a row without keys is no Rows row
        with pytest.raises(TypeError):
            written(table)
    for value in values:
        assert written(value) == stdlib(rows)
        assert written({"rows": value, "after": 1}) == \
            stdlib({"rows": rows, "after": 1})
        assert written([value, value]) == stdlib([rows, rows])


@pytest.mark.parametrize("table", [
    Rows(), Rows({}), Rows({"a": [], "b": []}), Rows({"a": []}, {"b": []}),
    # runs that share a key set are written as one
    Rows({"a": [1]}, {"a": [2, 3]}),
    Rows({"a": [1], "b": [None]}, {}, {"b": ["x"], "a": [2]}),
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
    """An int list's digits are joined once per process and reused: a
    tuple object in several rows and both columns, the dims pairs, and a
    bool list after the int list it equals all give their own bytes."""
    shared = (1, 2, 4)
    rows = [{"base": shared, "dims": (6, 4)},
            {"base": shared, "dims": (7, 5)},
            {"base": (), "dims": shared},
            {"base": shared, "dims": [6, 4]},
            {"base": [10 ** 20, -3], "dims": (6, 4)}]
    for _ in range(2):
        assert written(as_rows(rows)) == stdlib(rows)
        assert written({"t": as_rows(rows)}) == stdlib({"t": rows})
    assert written(Rows({"dims": [(1,), (1, 0)]})) == \
        stdlib([{"dims": [1]}, {"dims": [1, 0]}])
    for bools in ((True,), [True, False]):
        with pytest.raises(TypeError):
            written(Rows({"dims": [bools]}))


def test_large_lists_are_not_written_one_part_per_item():
    spec = pipeline.parse_scenario({
        "schema": "thomstem-scenario/1", "name": "thom-b1-9",
        "manifolds": [{"determinant": 3},
                      {"b1": 5, "quad_form": ["[1,2,3,4] = 5"]}],
        "suspensions": 1})
    report = pipeline.report_dict(pipeline.run_scenario(spec))
    tables = (report["complex"]["cells"], report["complex"]["detected_labels"],
              report["assembly"]["entries"])
    assert all(type(table) is Rows for table in tables)
    assert len(report["assembly"]["notes"]) == 4548
    assert len(list(report["complex"]["cells"])) == 513
    parts = []
    pipeline._write(report, "\n", parts)
    assert len(parts) < 200
    assert "".join(parts) + "\n" == stdlib(report)


# -- notes written a run at a time ---------------------------------------

# written in one join
JOINED_NOTES = [
    ["only"], [("h: ", ("a",))], ["", ("", ("", ""))],
    ["plain", ("column X: ", ("one", "two", "three")), "after"],
    # a tails tuple shared by runs, and runs of one head
    [("a: ", ("x", "y")), ("b: ", ("x", "y")), ("a: ", ("z",))],
]

# text that needs escapes, in a plain note, a head or a tail: written
# item by item
ESCAPED_NOTES = [
    ['a "quoted" note', ("h: ", ("t",))],
    [("back\\slash ", ("t", "u")), "plain"],
    [("h: ", ("t", "new\nline")), ("g: ", ("ok",))],
    [("non-ascii é ", ("t",))], [("h: ", ("astral \U0001f600",))],
    [("h: ", ("ok",)), ("h: ", ("\x7f",))],
]


@pytest.mark.parametrize("items", [[]] + JOINED_NOTES + ESCAPED_NOTES)
def test_notes_match_stdlib(items):
    notes = Notes(items)
    parts = []
    pipeline._write(notes, "\n", parts)
    assert len(parts) == (3 if items in JOINED_NOTES else 1 if not items
                          else len(notes) + 1)
    assert written(notes) == stdlib(notes) == stdlib(list(notes))
    assert written({"notes": notes, "z": 1}) == \
        stdlib({"notes": list(notes), "z": 1})
    assert written([notes, notes]) == stdlib([list(notes)] * 2)


def test_ladder_notes_are_one_part_built_from_runs(monkeypatch):
    """The thom b1 = 10 rung's 32,624 notes are written as one part, and
    no note is built on the way from `run_scenario` to `report_json`."""
    result = pipeline.run_scenario(pipeline.parse_scenario(thom_rung(10)))
    notes = result.report.notes
    expected = stdlib(pipeline.report_dict(result))
    parts = []
    pipeline._write(notes, "\n    ", parts)
    assert len(parts) == 3
    assert parts[1].count('",\n      "') == len(notes) - 1

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
    """The assembly lists the complex's proper cells in the complex's
    order, so the report formats each cell's name once for both tables;
    only the detected labels and the class assignment name a cell again.
    The thom b1 = 10 rung once took 2,305 calls for 1,025 cells."""
    result = pipeline.run_scenario(pipeline.parse_scenario(thom_rung(10)))
    expected = stdlib(pipeline.report_dict(result))
    calls = []
    name = StableCell.name
    monkeypatch.setattr(StableCell, "name",
                        lambda cell: calls.append(cell) or name(cell))
    assert pipeline.report_json(result) == expected
    final = result.final_complex
    assert len(final.cells) == 1025
    assert len(calls) == len(final.cells) + \
        2 * len(final.attachments.detected) + len(result.assignment)
