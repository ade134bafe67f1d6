"""Command-line entry points.

Subcommands: ``run`` (experiment from a JSON config), ``gen`` (synthetic
dataset to CSV), ``baseline`` (plaintext Lloyd only), ``estimate``
(transcript + network profile -> seconds).  Exit status is nonzero on any
validation or protocol error.
"""

from __future__ import annotations

import argparse
import csv as _csv
import json
import sys

import numpy as np

from . import bench, protocol
from .bench import NETWORK_PROFILES, BenchError
from .protocol import ProtocolError
from .slot_engine import EngineConfig, SizeModel


def _cmd_run(args) -> int:
    with open(args.config) as fh:
        config = json.load(fh)
    report = bench.run_experiment(config)
    out = args.output or config.get("output", "report.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"wrote {out}")
    mean = report["mean"]
    print(f"mean secure loss {mean['secure_loss']:.5g}", end="")
    if mean["secure_accuracy"] is not None:
        print(f", accuracy {mean['secure_accuracy']:.4f}", end="")
    print()
    return 0


def _cmd_gen(args) -> int:
    ds = bench.gen_synthetic(args.n, args.k, args.d, args.bound, args.std, args.seed)
    with open(args.output, "w", newline="") as fh:
        writer = _csv.writer(fh)
        for row, label in zip(ds.points, ds.labels):
            cells = [f"{v:.10g}" for v in row]
            if args.labels:
                cells.append(str(int(label)))
            writer.writerow(cells)
    print(f"wrote {args.output} ({ds.n} points, {ds.d} features)")
    return 0


def _cmd_baseline(args) -> int:
    if args.seeds < 1:
        raise BenchError(f"--seeds must be at least 1, got {args.seeds}")
    if args.rounds < 0:
        raise BenchError(f"--rounds must be non-negative, got {args.rounds}")
    if args.csv:
        ds = bench._build_dataset({"csv": {"path": args.csv, "normalize": args.normalize,
                                           "label_column": args.label_column}})
    else:
        ds = bench.gen_synthetic(args.n, args.k, args.d, args.bound, args.std, args.seed)
    bound = ds.bound or float(np.max(np.abs(ds.points)))
    losses, accs = [], []
    for seed in range(args.seed, args.seed + args.seeds):
        init = protocol.init_centroids(args.k, ds.d, bound, seed)
        res = bench.lloyd_plaintext(ds, init, args.rounds, seed=seed)
        losses.append(bench.normalized_loss(ds, res.centroids))
        if ds.labels is not None:
            accs.append(bench.cluster_accuracy(ds, res.centroids))
    print(f"plaintext loss: mean {np.mean(losses):.6g} over {args.seeds} seeds")
    if accs:
        print(f"plaintext accuracy: mean {np.mean(accs):.4f}")
    return 0


def _cmd_estimate(args) -> int:
    profile = NETWORK_PROFILES[args.profile]
    if args.report:
        with open(args.report) as fh:
            report = json.load(fh)
        summary = report.get("transcript") if isinstance(report, dict) else None
        if not isinstance(summary, dict) or not isinstance(summary.get("bytes_by_kind", {}), dict):
            raise BenchError(f"{args.report}: the report, its transcript and the transcript's "
                             "bytes_by_kind must be JSON objects")
        total_bytes = summary["bytes"]
        shares = bool(summary.get("bytes_by_kind", {}).get(protocol.DECRYPTION_SHARE))
        seconds = bench.wallclock_seconds(total_bytes, report["rounds"], shares, profile,
                                          args.compute_seconds)
    else:
        size_model = SizeModel()
        if args.calibrate_bytes is not None:
            size_model = bench.calibrate_size_model(args.calibrate_bytes)
        cfg = EngineConfig(depth_budget=protocol.required_depth(args.k), size_model=size_model)
        tr = protocol.estimate_transcript(args.n, args.k, args.d, args.d_bob, args.rounds, cfg)
        total_bytes = tr.total_bytes
        seconds = bench.estimate_wallclock(tr, profile, args.compute_seconds)
    print(f"{total_bytes} bytes, estimated {seconds:.2f}s on {profile.name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vpkmeans",
                                     description="Private k-means over vertically partitioned data (simulated engine)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an experiment config")
    p.add_argument("config")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--bound", type=float, default=0.5)
    p.add_argument("--std", type=float, default=0.038)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--labels", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("baseline", help="plaintext Lloyd only")
    p.add_argument("--csv", default=None)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--label-column", type=int, default=None)
    p.add_argument("--n", type=int, default=5000)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--bound", type=float, default=0.5)
    p.add_argument("--std", type=float, default=0.038)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("estimate", help="estimate wall-clock from a transcript")
    p.add_argument("--report", default=None, help="report.json from a previous run")
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--d-bob", type=int, default=1)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--calibrate-bytes", type=float, default=None,
                   help="measured bytes of the reference run: n=1000, k=2, d=2 "
                        "with one uploaded feature, 10 rounds")
    p.add_argument("--profile", choices=sorted(NETWORK_PROFILES), required=True)
    p.add_argument("--compute-seconds", type=float, default=0.0)
    p.set_defaults(func=_cmd_estimate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BenchError, ProtocolError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
