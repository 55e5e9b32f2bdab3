#!/usr/bin/env python3
"""The thomstem benchmark: time to verdict, end to end and layer by layer.

    python3 perfbench/run.py --workload small_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; thomstem is imported from its `src/`.
Workloads (see workloads.py and README.md): `small_sweep`, `large_ladder`,
`explain`. The program gets only the generated scenarios; `--seed` picks
them, and the same seed gives the same scenarios.

Each pass over the draw runs in a fresh interpreter, so that nothing one
pass leaves behind (a cache, say) can speed up the next. This process
starts the passes one after another and times the calibration job
(`measure.Calibrator`) between their items; it never imports thomstem.

With `--trace 0` the run times untraced passes and reports the end-to-end
metrics. With `--trace 1` it alternates untraced and traced passes and
reports per-layer self times, counters and the tracing overhead; spans are
written to `.perfbench_out/` at the end. Every pass checks every output.
The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`; the lines above it are a readable table with each
metric's unit and sample count, the failures, and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from statistics import median, quantiles
from typing import Dict, List

from measure import (OUTCOMES, ROOT, Calibrator, CalibratorLink, PassResult,
                     Program, load_expected, per_item_medians, repeat_passes,
                     run_pass)
from workloads import WORKLOADS, Item, generate

SETUP_PROBES = 5     # set-ups per run, each in a fresh interpreter
MIN_PASSES = 3       # measured untraced passes, at the least
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_command(flag: str, workload: str, seed: int, trace: int = 0):
    return [sys.executable, os.path.abspath(__file__), flag, "--workload",
            workload, "--seed", str(seed), "--trace", str(trace)]


def setup_probe(workload: str, seed: int) -> float:
    """Import thomstem, generate the draw and parse it, in seconds."""
    start = time.perf_counter()
    program = Program()
    for item in generate(workload, seed):
        try:
            program.pipeline.parse_scenario(item.raw)
        except Exception:  # the malformed items are meant to fail here
            pass
    return time.perf_counter() - start


def setup_seconds(workload: str, seed: int,
                  calibrator: Calibrator) -> List[tuple]:
    """(raw seconds, calibration factor) of set-ups in fresh interpreters,
    one after another."""
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(child_command("--setup-probe", workload, seed),
                              capture_output=True, text=True, timeout=120)
        if done.returncode:
            raise SystemExit(f"perfbench: set-up failed:\n{done.stderr}")
        out.append((float(done.stdout), calibrator.factor()))
    return out


@dataclass
class WorkerPass:
    """What one pass, run in a fresh interpreter, sends back."""

    result: PassResult
    spans: list                 # traced passes only
    counts: Dict[str, int]      # traced passes only
    peak_rss_mb: float
    env: dict


def worker(workload: str, seed: int, traced: bool) -> int:
    """One pass over the draw, in this fresh interpreter.

    A pass is alone in its process, so a cache can only hit on work that
    repeats within the draw. Calibration requests go to the measuring
    process on stdout and the factors come back on stdin; the last stdout
    line is the pass as JSON.
    """
    program = Program()
    expected = load_expected()
    items = generate(workload, seed)
    link = CalibratorLink(sys.stdout, sys.stdin)
    spans, counts = [], {}
    if traced:
        from tracing import run_traced_pass
        done, spans, counts = run_traced_pass(items, program, expected, link)
    else:
        done = run_pass(items, program, expected, link)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"result": asdict(done), "spans": spans,
                      "counts": counts, "peak_rss_mb": peak,
                      "env": program.env()}))
    return 0


def run_worker(workload: str, seed: int, traced: bool,
               calibrator: Calibrator) -> WorkerPass:
    """Run one pass in a fresh interpreter, answering its calibration
    requests with this process's `calibrator`."""
    message = None
    command = child_command("--worker", workload, seed, int(traced))
    with subprocess.Popen(command, stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True) as child:
        for line in child.stdout:
            if line.rstrip("\n") == CalibratorLink.REQUEST:
                child.stdin.write(f"{calibrator.factor()!r}\n")
                child.stdin.flush()
            else:
                message = json.loads(line)
    if child.returncode or message is None:
        raise SystemExit(f"perfbench: a {workload} pass exited with code "
                         f"{child.returncode}")
    message["result"] = PassResult(**message["result"])
    return WorkerPass(**message)


class Metrics:
    """Metric name -> (value, unit, sample count), in insertion order."""

    def __init__(self):
        self.rows: Dict[str, tuple] = {}

    def add(self, name: str, value, unit: str, samples: int) -> None:
        self.rows[name] = (value, unit, samples)

    def table(self, title: str) -> List[str]:
        lines = [f"{title:<34}{'value':>16}  {'unit':<6}{'n':>7}"]
        for name, (value, unit, samples) in self.rows.items():
            lines.append(f"{name:<34}{value:>16.6g}  {unit:<6}{samples:>7}")
        return lines

    def as_json(self) -> dict:
        return {name: {"value": value, "unit": unit}
                for name, (value, unit, _) in self.rows.items()}


def tally(items: List[Item], passes: List[PassResult]):
    """(attempted, failed, correct, failure lines) over every checked pass.

    Failures of known-defect items count in `failed` but leave the run
    correct; any other failure makes it incorrect.
    """
    known = {item.name for item in items if item.known_defect}
    reasons: Dict[str, str] = {}
    failed = 0
    for p in passes:
        failed += len(p.failures)
        reasons.update(p.failures)
    correct = all(name in known for name in reasons)
    lines = [f"failed {name}{' (known defect)' if name in known else ''}: "
             f"{reason}" for name, reason in sorted(reasons.items())]
    return len(items) * len(passes), failed, correct, lines


def end_to_end(workload: str, seed: int, items: List[Item], seconds: float):
    calibrator = Calibrator()
    setups = setup_seconds(workload, seed, calibrator)
    workers = repeat_passes(
        lambda: run_worker(workload, seed, False, calibrator),
        seconds, MIN_PASSES)
    passes = [w.result for w in workers]
    attempted, failed, correct, lines = tally(items, passes)

    valid = [i for i, item in enumerate(items) if item.valid]
    totals = per_item_medians(passes, "scaled_total_s")
    computes = per_item_medians(passes, "scaled_compute_s")
    item_ms = sorted(totals[i] * 1e3 for i in valid)
    samples = len(valid) * len(passes)
    m = Metrics()
    m.add("setup_s", median(raw * f for raw, f in setups), "s", len(setups))
    m.add("wall_s", median(p.wall_s for p in passes), "s", len(passes))
    m.add("scenarios_per_s", len(items) * len(passes) /
          sum(p.wall_s for p in passes), "1/s", len(items) * len(passes))
    m.add("item_ms_p50", median(item_ms), "ms", samples)
    m.add("item_ms_p90", quantiles(item_ms, n=10, method="inclusive")[8],
          "ms", samples)
    m.add("peak_rss_mb", median(w.peak_rss_mb for w in workers), "MB",
          len(workers))
    m.add("ok_ratio", 1 - failed / attempted, "ratio", attempted)

    # the per-scenario figures behind the summary, for reading only
    detail = Metrics()
    if workload == "small_sweep":
        verdict_ms = sorted(computes[i] * 1e3 for i in valid)
        detail.add("verdict_ms_p50", median(verdict_ms), "ms", samples)
        detail.add("verdict_ms_p90",
                   quantiles(verdict_ms, n=10, method="inclusive")[8], "ms",
                   samples)
        detail.add("report_ms_p50",
                   median((totals[i] - computes[i]) * 1e3 for i in valid),
                   "ms", samples)
    else:
        for i in valid:
            name = items[i].name
            if workload == "explain":
                detail.add(f"explain_s.{name}", totals[i], "s", len(passes))
            else:
                detail.add(f"verdict_s.{name}", computes[i], "s", len(passes))
                detail.add(f"report_s.{name}", totals[i] - computes[i], "s",
                           len(passes))
    detail.add("failed_ratio", failed / attempted, "ratio", attempted)
    add_calibration(detail, passes)
    raw_ms = per_item_medians(passes, "total_s")
    detail.add("raw_item_ms_p50", median(raw_ms[i] * 1e3 for i in valid),
               "ms", samples)
    detail.add("raw_setup_s", median(raw for raw, _ in setups), "s",
               len(setups))
    return m, detail, attempted, failed, correct, lines, workers[0].env


def add_calibration(detail: Metrics, passes: List[PassResult]) -> None:
    """How far the calibration moved the figures, for reading only."""
    factors = [f for p in passes for f in p.scale]
    detail.add("calibration_factor", median(factors), "ratio", len(factors))
    detail.add("raw_wall_s", median(sum(p.total_s) for p in passes), "s",
               len(passes))


@dataclass
class Round:
    """An untraced pass followed by a traced one, each in its own process."""

    untraced: WorkerPass
    traced: WorkerPass


def per_layer(workload: str, seed: int, items: List[Item], seconds: float):
    from tracing import TIME_METRICS, mark_differing, self_times_ms

    calibrator = Calibrator()

    def one_round() -> Round:
        return Round(run_worker(workload, seed, False, calibrator),
                     run_worker(workload, seed, True, calibrator))

    rounds = repeat_passes(one_round, seconds, 1)
    for r in rounds:
        mark_differing(r.traced.result, r.untraced.result, items)
    checked = [w.result for r in rounds for w in (r.untraced, r.traced)]
    attempted, failed, correct, lines = tally(items, checked)
    counts = rounds[0].traced.counts
    outcomes = rounds[0].untraced.result.outcomes
    if any(r.traced.counts != counts or w.result.outcomes != outcomes
           for r in rounds for w in (r.untraced, r.traced)):
        correct = False
        lines.append("failed: counters or outcomes differ between passes")

    m = Metrics()
    n = len(rounds)
    names = [item.name for item in items]
    self_times = [self_times_ms(r.traced.spans,
                                dict(zip(names, r.traced.result.scale)))
                  for r in rounds]
    for span, metric in TIME_METRICS.items():
        m.add(metric, median(t.get(span, 0.0) for t in self_times), "ms", n)
    for name in ("chern.c2_terms", "thom.cells", "thom.labels",
                 "thom.detected_labels", "ahss.columns",
                 "ahss.unknown_columns", "ahss.differentials",
                 "ahss.labels_scanned"):
        m.add(name, counts[name], "count", 1)
    m.add("thom.detected_ratio",
          counts["thom.detected_labels"] / max(counts["thom.labels"], 1),
          "ratio", counts["thom.labels"])
    acting = counts["ahss.differentials"] + counts["ahss.unknown_columns"]
    m.add("ahss.acting_ratio", acting / max(counts["ahss.labels_scanned"], 1),
          "ratio", counts["ahss.labels_scanned"])
    m.add("pipeline.report_bytes", counts["pipeline.report_bytes"], "bytes", 1)
    for kind in OUTCOMES:
        m.add(f"pipeline.outcomes.{kind}", outcomes[kind], "count", 1)
    traced_ms = median(r.traced.result.wall_s for r in rounds) * 1e3
    untraced_ms = median(r.untraced.result.wall_s for r in rounds) * 1e3
    m.add("trace.wall_ms", traced_ms, "ms", n)
    m.add("trace.overhead_ms", traced_ms - untraced_ms, "ms", n)

    env = rounds[0].traced.env
    write_spans(workload, seed, env, rounds)
    detail = Metrics()
    add_calibration(detail, [r.traced.result for r in rounds])
    return m, detail, attempted, failed, correct, lines, env


def write_spans(workload: str, seed: int, env: dict,
                rounds: List[Round]) -> None:
    """One JSON line of environment, then one line per span:
    [round, name, start_us, end_us, parent, item], times from the first
    span of the run."""
    os.makedirs(OUT_DIR, exist_ok=True)
    origin = rounds[0].traced.spans[0][1]
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"workload": workload, "seed": seed,
                                 **env}) + "\n")
        for number, r in enumerate(rounds):
            for name, start, end, parent, item in r.traced.spans:
                handle.write(json.dumps([
                    number, name, round((start - origin) * 1e6),
                    round((end - origin) * 1e6), parent, item]) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    if args.worker:
        return worker(args.workload, args.seed, bool(args.trace))
    # this process only generates, orchestrates and times the calibration
    # job; thomstem runs in the probes and the passes
    items = generate(args.workload, args.seed)
    measure = per_layer if args.trace else end_to_end
    metrics, detail, attempted, failed, correct, lines, env = measure(
        args.workload, args.seed, items, args.seconds)

    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           **env}
    print("env " + json.dumps(env, sort_keys=True))
    print("\n".join(metrics.table("metric")))
    if detail.rows:
        print("\n".join(detail.table("detail")))
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics.as_json()}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
