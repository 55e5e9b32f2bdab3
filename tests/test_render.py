"""The report writer against the stdlib encoder it stands in for.

`report_json` must give `json.dumps(report_dict(r), indent=2,
sort_keys=True) + "\n"` byte for byte, and refuse what a report must
never hold.
"""

import enum
import json

import pytest

from test_golden import CASES
from thomstem import pipeline


def stdlib(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


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
    # a report is a container
    "top-level string", 12, None,
])
def test_values_a_report_cannot_hold_raise(monkeypatch, value):
    monkeypatch.setattr(pipeline, "report_dict", lambda result: value)
    with pytest.raises(TypeError):
        pipeline.report_json(None)
