#!/usr/bin/env python3
"""A/B runs of perfbench on two commits, written as a BENCH_*.json file.

    python benchmarks/ab_perfbench.py --parent REV --change REV \\
        --workload large_ladder --seed-base 31 --workdir /tmp/ab --out OUT.json

Run from a checkout that holds both revisions. Each revision is exported
with `git archive` into its own directory under `--workdir`, and
`perfbench/run.py` runs from there, so both sides use the benchmark code
of their own commit. Each run lasts `run_seconds` of the change's
BENCHMARK.json. There are 10 pairs, the number the claim rule needs;
pair i uses seed `seed-base + i` on both sides and alternates which side
runs first. For each end-to-end metric the file holds both sides' runs,
medians and quartiles, how many pairs the change won (ties count for
neither) and whether a gain would meet the claim rule: at least 9 pairs
in 10 won, and the medians further apart than the parent's quartile
spread. Per-layer self times and counters come from 5 traced pairs per
workload, seed 1, each run as long as an untraced one and alternating
which side runs first as the untraced pairs do; the file holds each
side's median of each metric, because one traced run of unchanged code
can move a layer's self time by a third. Under `per_layer` it also holds,
for each per-layer metric of BENCHMARK.json, both sides' traced runs,
medians and quartiles and how many traced pairs the change won, so a
layer's move can be set against its own spread. `--workload` may be
repeated.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
TRACE_PAIRS, TRACE_SEED = 5, 1


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, workdir: str) -> str:
    """A fresh copy of the committed files of `rev`; returns its path."""
    sha = git("rev-parse", rev)
    path = os.path.join(workdir, sha[:12])
    if not os.path.isdir(path):
        os.makedirs(path)
        archive = subprocess.run(["git", "-C", ROOT, "archive", sha],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", path], input=archive, check=True)
    return path


def perfbench(checkout: str, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """The JSON object on the last stdout line of one perfbench run."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def alternating(checkouts: Dict[str, str], workload: str, seeds: List[int],
                seconds: float, trace: int) -> Dict[str, List[dict]]:
    """One pair of runs per seed, alternating which side runs first."""
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change")
        for side in order if i % 2 == 0 else reversed(order):
            runs[side].append(perfbench(checkouts[side], workload, seed,
                                        seconds, trace))
            print(f"{workload} seed {seed} trace {trace} {side}: correct "
                  f"{runs[side][-1]['correct']}", file=sys.stderr)
    return runs


def summary(runs: List[float]) -> dict:
    q1, _, q3 = quantiles(runs, n=4, method="inclusive")
    return {"median": median(runs), "q1": q1, "q3": q3, "runs": runs}


def compare(parent: List[dict], change: List[dict], spec: dict) -> dict:
    """Both sides of one metric over the pairs; a per-layer metric has no
    bound."""
    name, lower = spec["name"], spec["better"] == "lower"
    a = [run["metrics"][name]["value"] for run in parent]
    b = [run["metrics"][name]["value"] for run in change]
    wins = sum(y < x if lower else y > x for x, y in zip(a, b))
    pa, pb = summary(a), summary(b)
    gap = pa["median"] - pb["median"] if lower else pb["median"] - pa["median"]
    return {"unit": spec["unit"], "better": spec["better"],
            "bound": spec.get("bound"), "parent": pa, "change": pb,
            "change_wins": wins,
            "gain_meets_claim_rule": wins >= 0.9 * len(a)
            and gap > pa["q3"] - pa["q1"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sides = {"parent": git("rev-parse", args.parent),
             "change": git("rev-parse", args.change)}
    checkouts = {side: export(rev, args.workdir)
                 for side, rev in sides.items()}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    specs, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    result: Dict[str, object] = {
        **sides, "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "run_seconds": seconds, "workloads": {}, "traced": {}}
    for workload in args.workload:
        seeds = [args.seed_base + i for i in range(PAIRS)]
        runs = alternating(checkouts, workload, seeds, seconds, 0)
        result["workloads"][workload] = {
            "seeds": seeds,
            "correct": {side: all(run["correct"] for run in side_runs)
                        for side, side_runs in runs.items()},
            "end_to_end": {spec["name"]: compare(runs["parent"],
                                                 runs["change"], spec)
                           for spec in specs}}
        traced = alternating(checkouts, workload, [TRACE_SEED] * TRACE_PAIRS,
                             seconds, 1)
        result["traced"][workload] = {
            "seed": TRACE_SEED, "pairs": TRACE_PAIRS,
            "correct": {side: all(run["correct"] for run in side_runs)
                        for side, side_runs in traced.items()},
            **{side: {name: median(run["metrics"][name]["value"]
                                   for run in side_runs)
                      for name in side_runs[0]["metrics"]}
               for side, side_runs in traced.items()},
            "per_layer": {spec["name"]: compare(traced["parent"],
                                                traced["change"], spec)
                          for spec in benchmark["per_layer"]
                          if spec["name"] in traced["parent"][0]["metrics"]}}
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
