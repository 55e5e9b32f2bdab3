"""The run and explain chains keep every span the benchmark traces.

perfbench records its per-layer spans by swapping the functions that
`thomstem.pipeline` looks up in its own namespace (`perfbench/tracing.py`
`SPAN_OF`), and skips a name the module lacks without an error. So a
stage that is renamed, or called through a reference held elsewhere,
would lose its span silently; these tests make that loud. The benchmark
modules are imported read-only from `perfbench/`, as
`tests/test_catalogue.py` does.

`RETIRED` names the `SPAN_OF` entries that `pipeline` no longer has on
purpose: `suspend` went when each run began to make its cells at their
final dimension. It must be exactly the set of span names the module
lacks, so any other missing name still fails.
"""

import pathlib
import sys

import pytest

from thomstem import pipeline

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "perfbench"))
from tracing import SPAN_OF, Tracer  # noqa: E402
from workloads import sec3, sec4, sec5  # noqa: E402

RETIRED = {"suspend"}
LIVE = sorted(set(SPAN_OF) - RETIRED)


def _run_and_explain():
    """Run and render a cut, a suspended and a sphere-quotient scenario,
    and explain one, through the module's namespace."""
    for raw in (sec3(5), sec4(3, 5), sec5(3, 5)):
        pipeline.report_json(pipeline.run_scenario(
            pipeline.parse_scenario(raw)))
    pipeline.explain_text(pipeline.parse_scenario(sec4(3, 5)))


@pytest.mark.parametrize("attr", sorted(SPAN_OF))
def test_every_span_name_is_a_pipeline_callable(attr):
    if attr in RETIRED:
        assert not hasattr(pipeline, attr)
    else:
        assert callable(getattr(pipeline, attr, None))


def test_the_retired_names_are_exactly_the_missing_ones():
    assert {attr for attr in SPAN_OF
            if not hasattr(pipeline, attr)} == RETIRED


def test_every_span_is_recorded():
    tracer = Tracer()
    with tracer.installed(pipeline):
        _run_and_explain()
    # a retired name's span is still recorded through the live names
    # that share it: `thom.cut_suspend` through `skeletal_quotient`
    assert {span[0] for span in tracer.spans} == set(SPAN_OF.values()) \
        == {SPAN_OF[attr] for attr in LIVE}


def test_every_traced_function_is_called(monkeypatch):
    called = set()

    def spy(attr, fn):
        def wrapped(*args, **kwargs):
            called.add(attr)
            return fn(*args, **kwargs)
        return wrapped

    for attr in LIVE:
        monkeypatch.setattr(pipeline, attr, spy(attr, getattr(pipeline, attr)))
    _run_and_explain()
    assert called == set(LIVE)
