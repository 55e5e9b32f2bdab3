"""Per-layer spans around thomstem's public calls, recorded from outside.

A traced pass makes the same calls as an untraced one: `parse_scenario`,
then `run_scenario` and `report_json`, or `explain_text`. For the duration
of the pass, the functions that `thomstem.pipeline` looks up in its own
namespace are replaced by wrappers that record a span; that is how the
calls nested inside `run_scenario`, `report_json` and `explain_text` are
seen. The originals are put back when the pass ends.

A span is (name, start, end, parent index, item name). Spans stay in
memory until the run ends. A layer's self time is its spans' durations
minus the parts covered by their child spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List

from measure import OUTCOMES, Outcome, PassResult, Program
from workloads import Item

# pipeline attribute -> span name (the layer and the step)
SPAN_OF = {
    "parse_scenario": "pipeline.parse",
    "resolve_manifold": "pipeline.resolve",
    "resolve_target": "pipeline.resolve",
    "resolve_assignment": "pipeline.resolve",
    "index_bundle": "chern.index_bundle",
    "thom_cells": "thom.cells",
    "sphere_bundle_quotient": "thom.cells",
    "infer_attachments": "thom.labels",
    "skeletal_quotient": "thom.cut_suspend",
    "suspend": "thom.cut_suspend",
    "complex_to_dict": "thom.complex_dict",
    "assemble": "ahss.assemble",
    "evaluate_class": "ahss.verdict",
    "vanishing_certificate": "ahss.verdict",
    "report_json": "pipeline.render",
    "explain_text": "pipeline.explain",
}
ROOT_SPAN = "item"

# span name -> per-layer metric of its self time
TIME_METRICS = {
    "pipeline.parse": "pipeline.parse_ms",
    "pipeline.resolve": "pipeline.resolve_ms",
    "chern.index_bundle": "chern.index_bundle_ms",
    "thom.cells": "thom.cells_ms",
    "thom.labels": "thom.labels_ms",
    "thom.cut_suspend": "thom.cut_suspend_ms",
    "thom.complex_dict": "thom.complex_dict_ms",
    "ahss.assemble": "ahss.assemble_ms",
    "ahss.verdict": "ahss.verdict_ms",
    "pipeline.render": "pipeline.render_ms",
    "pipeline.explain": "pipeline.explain_other_ms",
}

COUNTERS = ("chern.c2_terms", "thom.cells", "thom.labels",
            "thom.detected_labels", "ahss.columns", "ahss.unknown_columns",
            "ahss.differentials", "ahss.labels_scanned",
            "pipeline.report_bytes")
NO_DIFFERENTIALS = "direct sum, no differentials"


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.returns: List[tuple] = []   # (span name, args, result) of an item
        self.item = None
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.item)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            self.returns.append((name, args, out))
            return out
        return traced

    @contextmanager
    def installed(self, module):
        saved = {attr: getattr(module, attr) for attr in SPAN_OF
                 if hasattr(module, attr)}
        for attr, fn in saved.items():
            setattr(module, attr, self.wrap(SPAN_OF[attr], fn))
        try:
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)


def execute_traced(item: Item, program: Program, tracer: Tracer) -> Outcome:
    P = program.pipeline
    tracer.item = item.name
    tracer.returns = []
    result = text = error = None
    root = len(tracer.spans)
    with tracer.span(ROOT_SPAN):
        try:
            spec = P.parse_scenario(item.raw)
            if item.mode == "explain":
                text = P.explain_text(spec)
            else:
                result = P.run_scenario(spec)
                text = P.report_json(result)
        except Exception as exc:  # recorded and checked like an untraced run
            error = exc
    _, start, end, _, _ = tracer.spans[root]
    return Outcome(end - start, end - start, text, result, error)


def count(returns, counts: Dict[str, int], detected_values) -> None:
    """Add an item's counters, read from what the wrapped calls returned."""
    for name, args, out in returns:
        if name == "chern.index_bundle":
            counts["chern.c2_terms"] += len(out.c2.support())
        elif name == "thom.labels":
            counts["thom.cells"] += len(out.cells)
            counts["thom.labels"] += len(out.attachments)
            counts["thom.detected_labels"] += sum(
                1 for label in out.attachments.values()
                if label.value in detected_values)
        elif name == "ahss.assemble":
            counts["ahss.columns"] += len(out.entries)
            counts["ahss.unknown_columns"] += sum(
                1 for entry in out.entries if entry.status == "unknown")
            counts["ahss.differentials"] += sum(
                1 for line in out.differentials if line != NO_DIFFERENTIALS)
            counts["ahss.labels_scanned"] += len(args[0].attachments or ())
        elif name == "pipeline.render":
            counts["pipeline.report_bytes"] += len(out.encode())


def self_times_ms(spans, scale: Dict[str, float]) -> Dict[str, float]:
    """Summed self time per span name in ms, each span scaled by its
    item's calibration factor."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Dict[str, float] = {}
    for index, (name, start, end, _, item) in enumerate(spans):
        own = (end - start - covered[index]) * scale[item] * 1e3
        out[name] = out.get(name, 0.0) + own
    return out


def run_traced_pass(items: List[Item], program: Program,
                    expected: Dict[str, str], calibrator=None):
    """One traced pass. Returns the pass, its spans and its counters."""
    from thomstem.thom import ETA_LABEL, NU_ODD
    tracer = Tracer()
    counts = dict.fromkeys(COUNTERS, 0)
    out = PassResult(outcomes=dict.fromkeys(OUTCOMES, 0))
    with tracer.installed(program.pipeline):
        for index, item in enumerate(items):
            outcome = execute_traced(item, program, tracer)
            count(tracer.returns, counts, (ETA_LABEL, NU_ODD))
            tracer.returns = []
            out.record(item, outcome, program, expected)
            out.calibrate(calibrator, index == len(items) - 1)
    return out, tracer.spans, counts


def mark_differing(traced: PassResult, untraced: PassResult,
                   items: List[Item]) -> None:
    """Fail each item whose traced output bytes differ from the untraced."""
    for index, item in enumerate(items):
        if traced.digests[index] != untraced.digests[index]:
            traced.failures[item.name] = ("traced output bytes differ from "
                                          "the untraced run")
