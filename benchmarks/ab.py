#!/usr/bin/env python3
"""Alternated A/B runs of perfbench: a parent commit against the working tree.

Usage (from the repository root):

    python3 benchmarks/ab.py --label spread-at-use --parent HEAD \\
        --claim peak_rss_mb mpc-d8-deg127 --seeds 1 5 --pairs 10

The parent's committed files are exported with ``git archive`` into a
temporary directory, which is removed afterwards; the change is the working
tree.  For every workload and seed, ``--pairs`` pairs of
``perfbench/run.py --trace 0`` processes run one after the other, each side
in its own tree, with even pairs running the parent first and odd pairs the
change first.  ``BENCH_<label>.json`` gets, per workload and seed, every
run's end-to-end metrics with their median and quartiles, the wins of each
side per metric, failed and attempted operations, and the claim: the change
wins at least nine of ten pairs and the median gap exceeds the parent's
interquartile range.  Which direction is better comes from BENCHMARK.json.
Without ``--claim`` the file keeps the same pairs and its claim is null, the
record of a change that claims no gain.
Per workload, ``TRACED_RUNS`` more ``--trace 1`` processes per side, at the
first seed and in alternating order, record the layer figures of
``LAYER_METRICS`` as their medians, which show where a change in ``run_s``
lands.  The timed figures of one traced run swing with machine load; the
counts (series evaluations, depth) repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9
# the per-layer figures that the traced runs add to the bench file
LAYER_METRICS = ("slot_engine.eval_chebyshev_s", "slot_engine.cheb_ms_per_ct",
                 "secure_argmin.indicator_phi_s", "slot_engine.mul_s", "slot_engine.add_s",
                 "slot_engine.max_depth", "slot_engine.cheb_evals")
# traced runs per side and workload, whose median is the recorded layer figure
TRACED_RUNS = 3


def export(rev: str, into: Path) -> None:
    """The committed files of ``rev`` under ``into``; nothing in .git changes."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def bench_once(tree: Path, workload: str, seed: int, seconds: float, trace: bool = False) -> dict:
    """One perfbench process: its final JSON line, plus the exit code."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(int(trace))],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"perfbench in {tree} printed nothing: {proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    out["returncode"] = proc.returncode
    return out


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(runs), "runs": runs}


def compare(parent: list[float], change: list[float], lower_is_better: bool) -> dict:
    """Pairwise wins (ties count for neither side), the median change in
    percent and the median gap, positive when the change is better."""
    sign = 1.0 if lower_is_better else -1.0
    gaps = [sign * (p - c) for p, c in zip(parent, change)]
    p, c = summary(parent), summary(change)
    return {
        "change_wins": sum(g > 0 for g in gaps),
        "parent_wins": sum(g < 0 for g in gaps),
        "median_change_pct": 100.0 * (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0,
        "parent_iqr": p["q3"] - p["q1"],
        "median_gap": sign * (p["median"] - c["median"]),
    }


def claim_met(cmp: dict, pairs: int) -> bool:
    return cmp["change_wins"] >= WIN_SHARE * pairs and cmp["median_gap"] > cmp["parent_iqr"]


def trace_sides(sides: dict, workload: str, seed: int, seconds: float) -> dict:
    """``TRACED_RUNS`` ``--trace 1`` processes per side, alternating which
    side runs first: the median of each ``LAYER_METRICS`` figure, and
    whether every gate passed in every run."""
    runs: dict = {name: [] for name in sides}
    order = list(sides)
    for i in range(TRACED_RUNS):
        for name in order if i % 2 == 0 else order[::-1]:
            runs[name].append(bench_once(sides[name], workload, seed, seconds, trace=True))
    out = {}
    for name, rs in runs.items():
        out[name] = {m: statistics.median(r["metrics"][m]["value"] for r in rs) for m in LAYER_METRICS}
        out[name]["all_gates_passed"] = all(r["correct"] and r["returncode"] == 0 for r in rs)
    return out


def run_pairs(sides: dict, workload: str, seed: int, pairs: int, seconds: float, better: dict) -> dict:
    results: dict = {name: [] for name in sides}
    first = []
    for i in range(pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        first.append(order[0])
        for name in order:
            results[name].append(bench_once(sides[name], workload, seed, seconds))
            r = results[name][-1]
            print(f"{workload} seed {seed} pair {i} {name}: failed {r['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
    entry = {
        "pairs": pairs,
        "first": first,
        "all_gates_passed": all(r["correct"] and r["returncode"] == 0 for rs in results.values() for r in rs),
        "failed_operations": {name: sum(r["failed"] for r in rs) for name, rs in results.items()},
        "attempted_operations": {name: sum(r["attempted"] for r in rs) for name, rs in results.items()},
    }
    values = {name: {m: [r["metrics"][m]["value"] for r in rs] for m in better}
              for name, rs in results.items()}
    for name in sides:
        entry[name] = {m: summary(values[name][m]) for m in better}
    entry["compare"] = {m: compare(values["parent"][m], values["change"][m], better[m])
                        for m in better}
    return entry


def resolve(rev: str) -> str:
    """The short hash of ``rev``."""
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", rev],
                          check=True, capture_output=True, text=True).stdout.strip()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    p.add_argument("--parent", default="HEAD", help="the commit to compare the working tree against")
    p.add_argument("--claim", nargs=2, metavar=("METRIC", "WORKLOAD"), default=None,
                   help="the gain to judge; without it the pairs are recorded with a null claim")
    p.add_argument("--seeds", nargs="+", type=int, default=[1, 5])
    p.add_argument("--pairs", type=int, default=10)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metric, claimed = args.claim or (None, None)
    if args.claim and (metric not in better or claimed not in workloads):
        raise SystemExit(f"the claim {metric} on {claimed} names no measured metric and workload")
    rev = resolve(args.parent)

    report = {
        "label": args.label,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "parent": rev,
        "change": "the working tree of the commit that adds this file",
        "order": "alternating: even pairs (0, 2, ...) run the parent first, odd pairs the change first",
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "claim": None if metric is None else {
            "metric": metric, "workload": claimed,
            "rule": "change wins at least nine tenths of the pairs and the median gap exceeds the parent's IQR",
            "by_seed": {}},
        "workloads": {},
        "layers": {"command": f"python3 perfbench/run.py --workload W --seed {args.seeds[0]} "
                              f"--seconds {seconds:g} --trace 1",
                   "runs": f"the median of {TRACED_RUNS} per side, alternating which side runs first",
                   "by_workload": {}},
    }
    with tempfile.TemporaryDirectory(prefix="ab-parent-") as tmp:
        parent = Path(tmp)
        export(rev, parent)
        sides = {"parent": parent, "change": ROOT}
        for workload in workloads:
            report["layers"]["by_workload"][workload] = trace_sides(sides, workload, args.seeds[0], seconds)
            report["workloads"][workload] = {}
            for seed in args.seeds:
                entry = run_pairs(sides, workload, seed, args.pairs, seconds, better)
                report["workloads"][workload][f"seed{seed}"] = entry
                if workload == claimed:
                    cmp = entry["compare"][metric]
                    report["claim"]["by_seed"][f"seed{seed}"] = {
                        "change_wins": cmp["change_wins"], "pairs": args.pairs,
                        "median_gap": cmp["median_gap"], "parent_iqr": cmp["parent_iqr"],
                        "met": claim_met(cmp, args.pairs)}
    report["machine"] = {"nproc": len(os.sched_getaffinity(0)),
                         "python": platform.python_version(), "numpy": numpy.__version__}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    if args.claim:
        print(f"wrote {out}; claim met on every seed: "
              f"{all(s['met'] for s in report['claim']['by_seed'].values())}")
    else:
        print(f"wrote {out}; no claim")
    return 0


if __name__ == "__main__":
    sys.exit(main())
