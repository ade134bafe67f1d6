"""The pair statistics and claim rule of ``benchmarks/ab.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def test_compare_counts_pairwise_wins_and_ties_for_neither():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    change = [9.0, 11.0, 13.0, 12.0, 13.0]
    cmp = ab.compare(parent, change, lower_is_better=True)
    assert (cmp["change_wins"], cmp["parent_wins"]) == (3, 1)
    assert cmp["median_gap"] == pytest.approx(12.0 - 12.0)
    assert cmp["parent_iqr"] == pytest.approx(13.0 - 11.0)
    flipped = ab.compare(parent, change, lower_is_better=False)
    assert (flipped["change_wins"], flipped["parent_wins"]) == (1, 3)


@pytest.mark.parametrize("wins,gap,met", [(9, 2.1, True), (10, 2.0, False), (8, 50.0, False)])
def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_above_the_parent_iqr(wins, gap, met):
    assert ab.claim_met({"change_wins": wins, "median_gap": gap, "parent_iqr": 2.0}, 10) is met


def test_summary_uses_inclusive_quartiles():
    s = ab.summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["q1"], s["median"], s["q3"], s["n"]) == (2.0, 3.0, 4.0, 5)


def test_layer_figures_are_perfbench_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert set(ab.LAYER_METRICS) <= {m["name"] for m in spec["per_layer"]}


def test_each_side_gets_three_alternated_traced_runs_and_their_median_layer_figures(monkeypatch):
    calls = []

    def fake(tree, workload, seed, seconds, trace=False):
        calls.append((tree, workload, seed, trace))
        metrics = {m: {"value": float(len(calls)), "unit": "s"} for m in ab.LAYER_METRICS}
        metrics["slot_engine.rotations"] = {"value": 7.0, "unit": "count"}
        # the change's gate fails in its second run only
        return {"correct": len(calls) != 3, "returncode": 0, "metrics": metrics}

    monkeypatch.setattr(ab, "bench_once", fake)
    out = ab.trace_sides({"parent": "p", "change": "c"}, "s1-k15", 5, 10.0)
    assert ab.TRACED_RUNS == 3
    assert [tree for tree, *_ in calls] == ["p", "c", "c", "p", "p", "c"]
    assert {call[1:] for call in calls} == {("s1-k15", 5, True)}
    assert {"slot_engine.max_depth", "slot_engine.cheb_evals"} <= set(ab.LAYER_METRICS)
    assert out == {  # medians of calls 1, 4, 5 and of calls 2, 3, 6
        "parent": {**{m: 4.0 for m in ab.LAYER_METRICS}, "all_gates_passed": True},
        "change": {**{m: 3.0 for m in ab.LAYER_METRICS}, "all_gates_passed": False},
    }


@pytest.mark.parametrize("claim", [None, ["run_s", "s1-k15"]], ids=["no-claim", "claim"])
def test_every_pair_is_recorded_with_or_without_a_claim(monkeypatch, tmp_path, claim):
    # without --claim the file keeps every pair and its claim is null
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    runs = []

    def fake(tree, workload, seed, seconds, trace=False):
        runs.append((tree, workload, seed, trace))
        metrics = {m: {"value": 1.0 if tree == tmp_path else 2.0, "unit": "s"}
                   for m in [*ab.LAYER_METRICS, *(e["name"] for e in spec["end_to_end"])]}
        return {"correct": True, "returncode": 0, "failed": 0, "attempted": 1, "metrics": metrics}

    monkeypatch.setattr(ab, "ROOT", tmp_path)  # the change's tree, and where the file goes
    monkeypatch.setattr(ab, "resolve", lambda rev: "abc1234")
    monkeypatch.setattr(ab, "export", lambda rev, into: None)
    monkeypatch.setattr(ab, "bench_once", fake)
    argv = ["--label", "t", "--seeds", "1", "5", "--pairs", "3"] + (["--claim", *claim] if claim else [])
    assert ab.main(argv) == 0
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    assert sum(not trace for *_, trace in runs) == len(workloads) * 2 * 3 * 2
    for w in workloads:
        for seed in ("seed1", "seed5"):
            entry = report["workloads"][w][seed]
            assert entry["parent"]["run_s"]["runs"] == [2.0] * 3 and entry["change"]["run_s"]["runs"] == [1.0] * 3
    if claim is None:
        assert report["claim"] is None
    else:
        assert report["claim"]["metric"] == "run_s" and report["claim"]["workload"] == "s1-k15"
        assert set(report["claim"]["by_seed"]) == {"seed1", "seed5"}
