"""Every checked-in benchmarks/BENCH_*.json records what its claim rests on.

The files are written by `benchmarks/ab_perfbench.py`: both commits and
the Python version, each end-to-end metric's median and quartiles on both
sides of the A/B pairs, and each side's per-layer self times and counters.
Files written since traced runs came in pairs hold each side's median over
those pairs; older files hold one traced run per side. Both sit under the
same keys. Newer files also hold, under `per_layer`, each side's traced
runs with their quartiles and the traced pairs the change won.
"""

import json
import pathlib

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
BENCH_FILES = sorted(BENCH_DIR.glob("BENCH_*.json"))
SIDES = ("parent", "change")
END_TO_END = ("setup_s", "wall_s", "scenarios_per_s", "item_ms_p50",
              "item_ms_p90", "peak_rss_mb", "ok_ratio")
PER_LAYER = ("pipeline.render_ms", "thom.complex_dict_ms",
             "ahss.assemble_ms", "thom.cells", "thom.labels",
             "pipeline.report_bytes")


def test_there_is_a_bench_file():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_has_the_required_keys(path):
    bench = json.loads(path.read_text())
    for side in SIDES:
        assert len(bench[side]) == 40 and int(bench[side], 16) >= 0
    assert bench["python"].count(".") == 2
    assert bench["workloads"] and bench["traced"]
    for workload, runs in bench["workloads"].items():
        assert set(runs["correct"]) == set(SIDES)
        for name in END_TO_END:
            metric = runs["end_to_end"][name]
            for side in SIDES:
                stats = metric[side]
                assert stats["q1"] <= stats["median"] <= stats["q3"]
                assert len(stats["runs"]) == len(runs["seeds"])
    for workload, traced in bench["traced"].items():
        for side in SIDES:
            assert all(isinstance(traced[side][name], (int, float))
                       for name in PER_LAYER), (workload, side)
        if "per_layer" not in traced:
            continue
        assert set(PER_LAYER) <= set(traced["per_layer"])
        for name, metric in traced["per_layer"].items():
            assert 0 <= metric["change_wins"] <= traced["pairs"]
            for side in SIDES:
                stats = metric[side]
                assert stats["q1"] <= stats["median"] <= stats["q3"]
                assert stats["median"] == traced[side][name]
                assert len(stats["runs"]) == traced["pairs"]
