"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench

They check that generation is deterministic and covered by the frozen
digests, that traced and untraced passes give the same bytes, and that
the output checks are not vacuous.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import workloads
from measure import (ROOT, Calibrator, Program, execute, hand_check,
                     load_expected, run_pass)
from run import run_worker, tally
from tracing import mark_differing, run_traced_pass

SEEDS = range(40)


@pytest.fixture(scope="module")
def program():
    return Program()


@pytest.fixture(scope="module")
def expected():
    return load_expected()


def sample(seed=3, size=30):
    """A cheap slice of the sweep: its first items, plus every malformed one."""
    items = workloads.small_sweep(seed)
    valid = [item for item in items if item.valid][:size]
    return valid + [item for item in items if item.expect == "spec_error"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    draws = {json.dumps([item.raw for item in workloads.generate(workload, s)],
                        sort_keys=True) for s in SEEDS}
    assert len(draws) > 1, "the seed must change the draw"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_seed_draws_the_same_amount_of_work(workload):
    shapes = {tuple(sorted((item.expect, item.raw["pipeline"])
                           for item in workloads.generate(workload, s)))
              for s in SEEDS}
    assert len(shapes) == 1


def test_every_drawable_item_has_a_frozen_digest(expected):
    catalogue = {item.key for item in workloads.catalogue()}
    assert catalogue == set(expected)
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for item in workloads.generate(workload, seed):
                assert not item.valid or item.key in catalogue, item.name


def test_traced_and_untraced_bytes_are_identical(program, expected):
    items = sample() + workloads.large_ladder(1)[:2]   # sec4 and sec4_even
    items += [item for item in workloads.explain(1) if item.name == "sec4"]
    untraced = run_pass(items, program, expected)
    traced, spans, counts = run_traced_pass(items, program, expected)
    mark_differing(traced, untraced, items)
    assert traced.digests == untraced.digests
    assert traced.outcomes == untraced.outcomes
    assert set(traced.failures) == set(untraced.failures)
    assert counts["thom.labels"] > 0 and counts["pipeline.report_bytes"] > 0
    assert {span[0] for span in spans} >= {
        "item", "pipeline.parse", "chern.index_bundle", "thom.labels",
        "ahss.assemble", "pipeline.render", "thom.complex_dict",
        "pipeline.explain"}
    # the wrappers are gone again once the traced pass ends
    assert program.pipeline.report_json.__name__ == "report_json"


def test_traced_bytes_that_differ_are_a_failure(program, expected):
    items = sample(size=2)
    untraced = run_pass(items, program, expected)
    traced, _, _ = run_traced_pass(items, program, expected)
    traced.digests[0] = "0" * 16
    mark_differing(traced, untraced, items)
    assert "traced output bytes differ" in traced.failures[items[0].name]


def test_a_pass_runs_in_its_own_interpreter():
    done = run_worker("small_sweep", 2, False, Calibrator())
    sweep = workloads.small_sweep(2)
    assert len(done.result.digests) == len(done.result.scale) == len(sweep)
    assert set(done.result.failures) <= {i.name for i in sweep
                                         if i.known_defect}
    assert done.peak_rss_mb > 0 and done.env["kernel_backend"]


def test_known_defects_fail_and_the_rest_pass(program, expected):
    items = sample()
    done = run_pass(items, program, expected)
    known = {item.name for item in items if item.known_defect}
    assert known and set(done.failures) <= known
    attempted, failed, correct, _ = tally(items, [done])
    assert correct and attempted == len(items) and failed == len(done.failures)


def test_a_corrupted_digest_is_a_failure(program, expected):
    items = sample()
    target = items[0]
    corrupted = dict(expected, **{target.key: "0" * 16})
    done = run_pass(items, program, corrupted)
    assert "frozen digest" in done.failures[target.name]
    _, _, correct, _ = tally(items, [done])
    assert not correct


def test_a_corrupted_field_is_a_failure(program, expected):
    item = next(i for i in sample() if i.expect == "spec_error"
                and not i.known_defect)
    wrong = dataclasses.replace(item, field="target_shift")
    done = run_pass([wrong], program, expected)
    assert "does not name" in done.failures[wrong.name]


def test_a_corrupted_hand_answer_is_a_failure(program):
    raw = workloads.sec3(5)
    result = execute(workloads.Item("sec3", "run", raw, "report"),
                     program).result
    assert hand_check(raw, result) is None
    assert "paper says" in hand_check(raw, dataclasses.replace(
        result, verdict="trivial"))


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
