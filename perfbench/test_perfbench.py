"""Tests of the benchmark's own machinery: tracing, boundary counts, names.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import re
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as perfbench  # noqa: E402

perfbench.import_program()

from tracer import Tracer, layer_targets  # noqa: E402
from vpkmeans import dp_accounting, packed_matrix, protocol, secure_argmin  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Small versions of the three workload shapes: packed argmin, the k = 2
# compact path, and the multi-party path with a short comparator.
TINY = {
    "tiny-packed": dict(n=300, k=3, d=2, cluster_std=0.05, min_center_dist=0.3,
                        split=[[0], [1]], model="two-party", sign={}),
    "tiny-k2": dict(n=300, k=2, d=4, cluster_std=0.05, min_center_dist=None,
                    split=[[0, 1], [2, 3]], model="two-party", sign={}),
    "tiny-mpc": dict(n=300, k=3, d=4, cluster_std=0.05, min_center_dist=0.3,
                     split=[[0], [1], [2], [3]], model="mpc-simulated",
                     sign={"degree": 127, "tie_margin": 0.05}),
}


@pytest.fixture(params=sorted(TINY))
def workload(request, monkeypatch):
    monkeypatch.setitem(perfbench.WORKLOADS, request.param, TINY[request.param])
    return perfbench.Workload(request.param, seed=3)


def test_tracing_restores_every_wrapped_function():
    targets = layer_targets()
    looked_up = {(owner.__name__, attr) for owner, attr, _ in targets}
    # names bound into another module at import time are patched there too
    assert {("vpkmeans.protocol", "perturb_aggregates"),
            ("vpkmeans.protocol", "update_centroids"),
            ("vpkmeans.secure_argmin", "axis_sum"),
            ("SlotEngine", "eval_chebyshev")} <= looked_up
    before = {(owner, attr): vars(owner)[attr] for owner, attr, _ in targets}
    with pytest.raises(RuntimeError):
        with Tracer():
            assert all(vars(o)[a] is not fn for (o, a), fn in before.items())
            raise RuntimeError("leave the block early")
    assert all(vars(o)[a] is fn for (o, a), fn in before.items())
    assert protocol.perturb_aggregates is dp_accounting.perturb_aggregates
    assert secure_argmin.axis_sum is packed_matrix.axis_sum


def test_traced_counts_equal_engine_stats(workload):
    plain, plain_s = workload.run(rounds=2)
    with Tracer() as tracer:
        traced, traced_s = workload.run(rounds=2)
    assert workload.fingerprint(traced) == workload.fingerprint(plain)

    stats = asdict(plain.engine.stats)
    layer = perfbench.layer_metrics(tracer, traced, workload.quality(traced), traced_s, plain_s)
    traced_counts = {
        "rotations": layer["slot_engine.rotations"]["value"],
        "ct_mults": layer["slot_engine.ct_mults"]["value"],
        "pt_mults": layer["slot_engine.pt_mults"]["value"],
        "additions": layer["slot_engine.additions"]["value"],
        "cheb_evals": layer["slot_engine.cheb_evals"]["value"],
        "encryptions": layer["slot_engine.encryptions"]["value"],
        "max_depth_seen": layer["slot_engine.max_depth"]["value"],
    }
    assert traced_counts == stats

    packed = workload.k > 2
    assert (tracer.calls("secure_argmin.rank") > 0) == packed
    assert (tracer.calls("secure_argmin.argmin_two") > 0) == (not packed)
    assert any(s[0].startswith("packed_matrix.") for s in tracer.spans) == packed


def test_metric_names_are_well_formed(workload):
    spec = json.loads((perfbench.ROOT / "BENCHMARK.json").read_text())
    declared_e2e = [m["name"] for m in spec["end_to_end"]]
    declared_layer = [m["name"] for m in spec["per_layer"]]
    for name in declared_e2e + declared_layer + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name
    assert set(declared_e2e) == set(perfbench.END_TO_END_UNITS)

    plain, plain_s = workload.run(rounds=1)
    with Tracer() as tracer:
        traced, traced_s = workload.run(rounds=1)
    layer = perfbench.layer_metrics(tracer, traced, workload.quality(traced), traced_s, plain_s)
    assert list(layer) == declared_layer
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(layer[name]["unit"] == units[name] for name in layer)
