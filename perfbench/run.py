#!/usr/bin/env python3
"""End-to-end benchmark of vpkmeans: one workload per process, closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload s1-k15 --seed 1 --seconds 10 --trace 0

The workload seed makes the dataset, the initial centroids and the protocol
seed; the program only receives the generated data.  The process imports
``vpkmeans`` from ``src/`` next to this directory, builds the protocol a few
times with a zero-round call (``setup_s``), then runs the full protocol back
to back until ``--seconds`` have passed, with at least one run.  Timed runs
are never traced.  With ``--trace 1`` one more run is made under
:class:`tracer.Tracer` and the per-layer metrics are printed instead of the
end-to-end ones.  Outside every timed region the correctness gate checks the
run against the plaintext oracle, the transcript estimator and the depth
ledger; a failed check is a failed operation and the exit code is 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (every run,
the machine, the gate) go to ``perfbench/out/``.  See README.md for why each
workload exists and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 3
ORACLE_TOLERANCE = 1e-6
EPSILON = 1.0
BOUND = 0.5
ROUNDS = 10

# n, k, d, cluster_std and min_center_dist feed bench.gen_synthetic; the
# split lists the global feature columns of each party, the computing party
# first.  README.md gives the reason for each workload.
WORKLOADS = {
    "s1-k15": dict(n=5000, k=15, d=2, cluster_std=0.03, min_center_dist=0.24,
                   split=[[0], [1]], model="two-party", sign={}),
    "k2-wide": dict(n=200000, k=2, d=8, cluster_std=0.05, min_center_dist=None,
                    split=[[0, 1, 2, 3], [4, 5, 6, 7]], model="two-party", sign={}),
    "mpc-d8-deg127": dict(n=20000, k=8, d=8, cluster_std=0.04, min_center_dist=0.3,
                          split=[[0, 1], [2, 3], [4, 5], [6, 7]], model="mpc-simulated",
                          sign={"degree": 127, "tie_margin": 0.05}),
}

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "transcript_mb": "MB",
    "wan100_s": "s",
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> None:
    """Cap BLAS/OpenMP pools at the usable cores; must run before numpy loads."""
    cores = nproc()
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, cores))
        except ValueError:
            wanted = cores
        os.environ[var] = str(max(1, min(wanted, cores)))


def import_program():
    """Import vpkmeans from this checkout's src/ and time the import.

    Raises ImportError when src/ is missing or the package found is not the
    one in this checkout.
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import vpkmeans

    seconds = time.perf_counter() - start
    if not Path(vpkmeans.__file__).resolve().is_relative_to(src):
        raise ImportError(f"vpkmeans was found at {vpkmeans.__file__}, not under {src}")
    return vpkmeans, seconds


def machine_info() -> dict:
    import numpy
    import scipy

    try:
        from vpkmeans import _kernels

        backend = _kernels.backend_name()
    except (ImportError, AttributeError):
        backend = "none"
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": backend,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Workload:
    """Generated inputs of one workload at one seed, and its entry point."""

    def __init__(self, name: str, seed: int):
        from vpkmeans import bench, protocol
        from vpkmeans.dp_accounting import PrivacyBudget
        from vpkmeans.secure_argmin import SignApproxConfig

        spec = WORKLOADS[name]
        self.name, self.seed, self.spec = name, seed, spec
        self.k, self.d = spec["k"], spec["d"]
        self.sign = SignApproxConfig(**spec["sign"])
        self.data = bench.gen_synthetic(spec["n"], spec["k"], spec["d"], BOUND, spec["cluster_std"],
                                        seed=seed, min_center_dist=spec["min_center_dist"])
        self.parts = protocol.split_features(self.data.points, spec["split"])
        self.init = protocol.init_centroids(self.k, self.d, BOUND, seed,
                                            min_separation=spec["min_center_dist"])
        self.budget = PrivacyBudget(EPSILON, 1.0 / self.data.n, ROUNDS)

    def run(self, rounds: int = ROUNDS, noisy: bool = True):
        """One call of the public entry point on a fresh engine, timed."""
        from vpkmeans import protocol
        from vpkmeans.slot_engine import EngineConfig, SlotEngine

        engine = SlotEngine(EngineConfig(depth_budget=protocol.required_depth(self.k, self.sign.degree)))
        budget = self.budget if noisy and rounds else None
        kw = dict(k=self.k, bound=BOUND, engine=engine, seed=self.seed, sign=self.sign, init=self.init)
        start = time.perf_counter()
        if self.spec["model"] == protocol.TWO_PARTY:
            result = protocol.run(self.parts[0], self.parts[1], budget, rounds, **kw)
        else:
            result = protocol.run_multiparty(self.parts, self.spec["model"], budget, rounds, **kw)
        return result, time.perf_counter() - start

    def quality(self, result) -> dict:
        from vpkmeans import bench

        return {
            "accuracy": bench.cluster_accuracy(self.data, result.centroids),
            "loss": bench.normalized_loss(self.data, result.centroids),
        }

    def fingerprint(self, result) -> dict:
        """What must repeat exactly across runs of one invocation."""
        return {
            "engine_stats": asdict(result.engine.stats),
            "transcript_bytes": result.transcript.bytes_by_kind(),
            **self.quality(result),
        }

    def wan100_s(self, result, run_s: float) -> float:
        from vpkmeans import bench

        return bench.estimate_wallclock(result.transcript, bench.NETWORK_PROFILES["regWAN100"], run_s)

    def gate(self, result) -> list[tuple[str, bool, str]]:
        """Correctness checks on a timed-config result, all outside timed regions."""
        from vpkmeans import protocol

        checks = []
        # the oracle costs about as much as the protocol, so it runs on the
        # second core while this process repeats the run without noise
        child = subprocess.Popen([sys.executable, str(HERE / "oracle.py"), self.name, str(self.seed)],
                                 stdout=subprocess.PIPE, text=True)
        try:
            free, _ = self.run(noisy=False)
        finally:
            out, _ = child.communicate()
        if child.returncode:
            raise RuntimeError(f"oracle process exited with code {child.returncode}")
        oracle = json.loads(out)
        rounds_ok = len(free.history) == len(oracle) == ROUNDS + 1
        worst = max(float(abs(a - b).max()) for a, b in zip(free.history, oracle))
        checks.append(("oracle", rounds_ok and worst <= ORACLE_TOLERANCE,
                       f"noise-free run vs lloyd_plaintext(matching): worst deviation {worst:.3e} "
                       f"over {len(free.history) - 1} rounds"))

        split = self.spec["split"]
        d_bob = self.d - len(split[0])
        estimate = protocol.estimate_transcript(self.data.n, self.k, self.d, d_bob, ROUNDS,
                                                cfg=result.engine.config, degree=self.sign.degree,
                                                parties=len(split), model=self.spec["model"])
        for label, tr in (("noisy", result.transcript), ("noise-free", free.transcript)):
            same = (estimate.total_bytes == tr.total_bytes
                    and estimate.total_ciphertexts == tr.total_ciphertexts
                    and estimate.bytes_by_kind() == tr.bytes_by_kind())
            checks.append((f"transcript/{label}", same,
                           f"measured {tr.total_bytes} B, estimated {estimate.total_bytes} B"))

        depth = max(protocol.release_depths(self.k, self.sign.degree))
        for label, res in (("noisy", result), ("noise-free", free)):
            checks.append((f"depth/{label}", res.round_depths == [depth] * ROUNDS,
                           f"round depths {sorted(set(res.round_depths))}, ledger {depth}"))
        return checks


def layer_metrics(tracer, result, quality: dict, traced_s: float, untraced_s: float) -> dict:
    """Per-layer figures of one traced run, keyed by metric name.

    Accuracy and loss sit here, unbounded, rather than among the end-to-end
    metrics: at epsilon = 1 they swing by a quarter or more between seeds of
    s1-k15, far more than any bound a regression check could use.
    """
    from vpkmeans import protocol

    cheb = tracer.inclusive("slot_engine.eval_chebyshev")
    evals = tracer.calls("slot_engine.eval_chebyshev")
    c = tracer.counts
    noise, budget = result.noise, result.round_budget
    by_kind = result.transcript.bytes_by_kind()
    kinds = (protocol.PUBLIC_KEY, protocol.ENCRYPTED_FEATURES, protocol.NOISY_AGGREGATES,
             protocol.CENTROIDS, protocol.DECRYPTION_SHARE)
    m = {
        "slot_engine.eval_chebyshev_s": (cheb, "s"),
        "slot_engine.cheb_ms_per_ct": (1000.0 * cheb / evals if evals else 0.0, "ms"),
        "slot_engine.cheb_evals": (evals, "count"),
        "slot_engine.rotate_s": (tracer.inclusive("slot_engine.rotate"), "s"),
        "slot_engine.rotations": (tracer.calls("slot_engine.rotate"), "count"),
        "slot_engine.mul_s": (tracer.inclusive("slot_engine.mul"), "s"),
        "slot_engine.add_s": (tracer.inclusive("slot_engine.add") + tracer.inclusive("slot_engine.sub"), "s"),
        "slot_engine.ct_mults": (c["ct_mults"], "count"),
        "slot_engine.pt_mults": (c["pt_mults"], "count"),
        "slot_engine.additions": (tracer.calls("slot_engine.add") + tracer.calls("slot_engine.sub"), "count"),
        "slot_engine.encrypt_s": (tracer.inclusive("slot_engine.encrypt"), "s"),
        "slot_engine.encryptions": (tracer.calls("slot_engine.encrypt"), "count"),
        "slot_engine.max_depth": (c["max_depth"], "levels"),
        "secure_argmin.rank_self_s": (
            tracer.excluding("secure_argmin.rank", {"slot_engine.eval_chebyshev", "packed_matrix.axis_sum"}), "s"),
        "secure_argmin.indicator_phi_s": (tracer.inclusive("secure_argmin.indicator_phi"), "s"),
        "secure_argmin.argmin_two_self_s": (
            tracer.excluding("secure_argmin.argmin_two", {"slot_engine.eval_chebyshev"}), "s"),
        "packed_matrix.batch_extract_replicate_s": (tracer.inclusive("packed_matrix.batch_extract_replicate"), "s"),
        "packed_matrix.batch_extract_replicate_calls": (tracer.calls("packed_matrix.batch_extract_replicate"), "count"),
        "packed_matrix.axis_sum_s": (tracer.inclusive("packed_matrix.axis_sum"), "s"),
        "packed_matrix.reduce_blocks_s": (tracer.inclusive("packed_matrix.reduce_blocks"), "s"),
        "dp_accounting.sigma_sum": (noise.sigma_sum, "sigma"),
        "dp_accounting.sigma_count": (noise.sigma_count, "sigma"),
        "dp_accounting.epsilon_round": (budget.epsilon, "epsilon"),
        "dp_accounting.perturb_aggregates_s": (tracer.inclusive("dp_accounting.perturb_aggregates"), "s"),
        "protocol.reinit_clusters": (c["reinit_clusters"], "count"),
        "protocol.self_s": (tracer.self_time("protocol"), "s"),
        **{f"protocol.bytes.{kind}": (by_kind.get(kind, 0), "B") for kind in kinds},
        "bench.accuracy": (quality["accuracy"], "fraction"),
        "bench.loss": (quality["loss"], "sq_dist"),
        "bench.trace_overhead_s": (traced_s - untraced_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    try:
        _, import_s = import_program()
    except ImportError as exc:
        print(f"cannot import vpkmeans from this checkout: {exc}", file=sys.stderr)
        return 2
    from tracer import Tracer

    w = Workload(args.workload, args.seed)
    attempted = failed = 0
    notes = []

    def fail(what: str) -> None:
        nonlocal failed
        failed += 1
        notes.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    setups = [w.run(rounds=0)[1] for _ in range(SETUP_REPEATS)]
    setup_s = import_s + statistics.median(setups)

    runs, first, last = [], None, None
    started = time.perf_counter()
    while not runs or time.perf_counter() - started < args.seconds:
        attempted += 1
        try:
            result, run_s = w.run()
        except Exception:
            traceback.print_exc()
            fail("protocol run raised")
            break
        runs.append(run_s)
        last = result
        fp = w.fingerprint(result)
        if first is None:
            first = fp
        elif fp != first:
            fail(f"run {len(runs)} drifted from run 1: {fp} != {first}")
    rss = peak_rss_mb()

    metrics, spans_file = {}, None
    if last is not None:
        run_s = statistics.median(runs)
        if args.trace:
            attempted += 1
            with Tracer() as tracer:
                traced, traced_s = w.run()
            if w.fingerprint(traced) != first:
                fail("traced run drifted from the untraced runs")
            metrics = layer_metrics(tracer, traced, w.quality(traced), traced_s, run_s)
            OUT.mkdir(exist_ok=True)
            spans_file = OUT / f"spans-{w.name}-seed{w.seed}.json"
            tracer.write(spans_file)
        else:
            values = {
                "run_s": run_s,
                "setup_s": setup_s,
                "peak_rss_mb": rss,
                "transcript_mb": last.transcript.total_bytes / 1e6,
                "wan100_s": w.wan100_s(last, run_s),
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

        try:
            checks = w.gate(last)
        except Exception:
            traceback.print_exc()
            checks = [("gate", False, "raised")]
        for name, ok, detail in checks:
            attempted += 1
            print(f"gate {name}: {'ok' if ok else 'FAIL'} - {detail}")
            if not ok:
                fail(f"gate {name}: {detail}")

    machine = machine_info()
    for name, m in metrics.items():
        print(f"{w.name} {name} = {m['value']} {m['unit']}")
    if first is not None and not args.trace:
        print(f"{w.name} accuracy {first['accuracy']} loss {first['loss']} at seed {w.seed} "
              "(seed-dependent; reported as bench.accuracy and bench.loss with --trace 1)")
    print(f"machine: {json.dumps(machine)}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{w.name}-seed{w.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"workload": w.name, "seed": w.seed, "machine": machine, "runs_s": runs,
                   "setups_s": setups, "import_s": import_s, "fingerprint": first,
                   "spans": str(spans_file) if spans_file else None, "failures": notes,
                   "metrics": metrics}, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
