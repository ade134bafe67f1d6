"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.

Criterion 4 (the S1 utility window) is known red, and what keeps it red is
the noise scale, not the comparator.  The DP runs add noise at
sigma_sum = sigma_count = 47.2, from today's per-round rule, and reach mean
accuracy 0.693 and loss 0.0213 against a window of [0.85, 0.96] and
<= 0.012.  The noise-free protocol oracle ``lloyd_plaintext(MATCHING)``
reaches only 0.839 over seeds 100-109, but that does not bound the noisy
runs: noise moves centroids out of local optima that a noise-free run
keeps.  The same oracle, drawing the protocol's noise stream with an erf
surrogate for the comparator, reaches 0.930 at sigma 5, 0.852 at sigma 20
and 0.684 at sigma 47.2, and 0.868 at the sound scales of the same
(epsilon, delta), sigma_sum 13.5 and sigma_count 19.0.  So a recalibrated
accountant can turn it green; the test states its targets as they are and
fails honestly until the program changes.

Criterion 8 (no-padding replication) holds every k in 2..64 to
``2*floor(log2 k) - 1`` rotations, raised to the proven floor
``ceil(log2 k)`` where that is larger, which happens only at k=3.
"""

import math
import time

import numpy as np
import pytest

import reference_ops as ref
from vpkmeans import bench, protocol
from vpkmeans.bench import (
    calibrate_size_model,
    cluster_accuracy,
    gen_synthetic,
    lloyd_plaintext,
    normalized_loss,
    run_experiment,
    s1_style_config,
)
from vpkmeans.dp_accounting import NoiseScales, PrivacyBudget, gaussian_sigma, per_round_budget
from vpkmeans.packed_matrix import COLUMN, PackedLayout, repl_no_padding
from vpkmeans.protocol import (
    CentroidSet,
    estimate_transcript,
    init_centroids,
    required_depth,
    run,
    run_multiparty,
    split_features,
)
from vpkmeans.secure_argmin import SignApproxConfig, argmin_packed
from vpkmeans.slot_engine import EngineConfig, SlotEngine

GAMMA = SignApproxConfig().tie_margin


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def spaced_blocks(rng, count, k, gap):
    """Random vectors in [0, 1] with min pairwise gap >= ``gap`` (exact by
    construction: sorted uniforms plus forced spacing, then shuffled)."""
    base = np.sort(rng.uniform(0, 1 - (k - 1) * gap, size=(count, k)), axis=1)
    base += gap * np.arange(k)[None, :]
    idx = np.argsort(rng.uniform(size=(count, k)), axis=1)
    return np.take_along_axis(base, idx, axis=1)


def pack_row_col(engine, layout, vals):
    m = layout.k
    grid_r = layout.grid()
    grid_c = layout.grid()
    b = vals.shape[0]
    grid_r[:, :b, :] = vals.T[None, :, :].transpose(0, 2, 1)
    grid_c[:, :b, :] = vals.T[:, :, None]
    return engine.encrypt(layout.to_slots(grid_r)), engine.encrypt(layout.to_slots(grid_c))


def test_acceptance_01_argmin_oracle_equivalence():
    started = time.monotonic()
    cfg = SignApproxConfig()
    mismatches = 0
    total = 0
    for k in (2, 3, 5, 8, 15):
        layout = PackedLayout(k, slot_count=1 << 14)
        rng = np.random.default_rng(1000 + k)
        todo = 1000
        while todo:
            count = min(todo, layout.blocks_per_ct)
            vals = spaced_blocks(rng, count, k, 2 * GAMMA)
            eng = SlotEngine(EngineConfig(depth_budget=40))
            v_row, v_col = pack_row_col(eng, layout, vals)
            a = argmin_packed(eng, eng.sub(v_row, v_col), layout, cfg)
            blocks = layout.from_slots(eng.decrypt(a))
            for i in range(count):
                got = (blocks[0, i, :] > 0.5).astype(float)
                if not np.array_equal(got, ref.ref_argmin_onehot(vals[i])):
                    mismatches += 1
            total += count
            todo -= count
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 120
    assert report(1, ok, f"{mismatches}/{total} mismatches, {elapsed:.1f}s"), (mismatches, elapsed)


def test_acceptance_02_ranking_exactness_and_tie_null():
    eng = SlotEngine(EngineConfig(depth_budget=40))
    layout = PackedLayout(4, slot_count=1 << 14)
    cfg = SignApproxConfig()
    vals = np.array([[10.0, 10.0, 30.0, 40.0]]) / 40
    v_row, v_col = pack_row_col(eng, layout, vals)
    from vpkmeans.secure_argmin import rank

    ranks = layout.from_slots(eng.decrypt(rank(eng, eng.sub(v_row, v_col), layout, cfg)))[0, 0, :]
    rank_err = np.max(np.abs(ranks - np.array([1.5, 1.5, 3.0, 4.0])))
    onehot = layout.from_slots(eng.decrypt(argmin_packed(eng, eng.sub(v_row, v_col), layout, cfg)))[0, 0, :]
    ok = rank_err < 0.02 and np.all(onehot < 0.5)
    assert report(2, ok, f"rank error {rank_err:.4f}, tie block max {onehot.max():.3f}"), ranks


def test_acceptance_03_protocol_equals_lloyd():
    rng = np.random.default_rng(33)
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(100, 2001))
        k = int(rng.integers(2, 9))
        d = int(rng.integers(2, 6))
        rounds = 3
        if rng.uniform() < 0.5:
            pts = rng.uniform(-1, 1, size=(n, d))
        else:
            pts = gen_synthetic(n, k, d, 1.0, cluster_std=0.1, seed=int(rng.integers(1e6))).points
        cut = int(rng.integers(1, d))
        parts = split_features(pts, [list(range(cut)), list(range(cut, d))])
        seed = int(rng.integers(1e6))
        res = run(parts[0], parts[1], None, rounds, k=k, bound=1.0, seed=seed)
        oracle = lloyd_plaintext(pts, CentroidSet(res.history[0], bound=1.0), rounds,
                                 tie_rule=bench.MATCHING, seed=seed)
        for mine, theirs in zip(res.history, oracle.history):
            worst = max(worst, float(np.max(np.abs(mine - theirs))))
    ok = worst < 1e-6
    assert report(3, ok, f"50 instances, worst per-coordinate deviation {worst:.2e}"), worst


S1_ACC_WINDOW = (0.85, 0.96)
S1_LOSS_LIMIT = 0.012


def test_acceptance_04_s1_end_to_end_utility():
    """Known red: the noise at today's per-round scales keeps the accuracy
    below the window (see the module docstring)."""
    report_data = run_experiment(s1_style_config())
    acc = report_data["mean"]["secure_accuracy"]
    loss = report_data["mean"]["secure_loss"]
    base_loss = report_data["mean"]["baseline_loss"]
    minutes = report_data["compute_seconds"] / 60.0
    ok = (S1_ACC_WINDOW[0] <= acc <= S1_ACC_WINDOW[1]) and loss <= S1_LOSS_LIMIT and minutes < 60
    detail = (f"mean accuracy {acc:.4f} (target [0.85, 0.96]), mean loss {loss:.5f} "
              f"(target <= 0.012, plaintext {base_loss:.5f}), {minutes:.1f} min")
    assert report(4, ok, detail), detail


def test_acceptance_04_baseline_loss_window():
    # companion check: the plaintext baseline itself sits in the published
    # window (0.00286 +- 50%) for the synthetic stand-in; the same figure
    # as run_experiment's baseline_loss over seeds 100-109, without the
    # secure runs
    cfg = s1_style_config()
    ds = bench._build_dataset(cfg["dataset"])
    k, rounds = cfg["k"], cfg["rounds"]
    losses = []
    for seed in range(100, 110):
        init = init_centroids(k, ds.d, ds.bound, seed, min_separation=cfg["init_separation"])
        plain = lloyd_plaintext(ds, init, rounds, tie_rule=bench.STANDARD, seed=seed)
        losses.append(normalized_loss(ds, plain.centroids))
    base = float(np.mean(losses))
    ok = 0.00286 * 0.5 <= base <= 0.00286 * 1.5
    assert report("4b", ok, f"plaintext baseline loss {base:.5f} in [0.00143, 0.00429]"), base


def test_acceptance_05_privacy_budget_sweep_shape():
    results = {}
    for eps in (0.5, 2.0, 5.0):
        cfg = s1_style_config()
        cfg["budget"]["epsilon"] = eps
        cfg["seeds"] = {"count": 6, "base": 200}
        rep = run_experiment(cfg)
        results[eps] = (rep["mean"]["secure_accuracy"], rep["mean"]["secure_loss"])
    acc_gap = results[2.0][0] - results[0.5][0]
    loss_drop = results[0.5][1] - results[5.0][1]
    ok = acc_gap >= 0.03 and loss_drop > 0
    detail = (f"accuracy 0.5->2.0 gap {acc_gap:.3f} (need >= 0.03); "
              f"loss eps=0.5 {results[0.5][1]:.4f} > eps=5 {results[5.0][1]:.4f}: {loss_drop > 0}")
    assert report(5, ok, detail), results


def test_acceptance_06_communication_accounting():
    slot_count = 1 << 14
    # exact count formulas on a real run
    pts = np.random.default_rng(0).uniform(-0.5, 0.5, size=(1000, 2))
    parts = split_features(pts, [[0], [1]])
    res = run(parts[0], parts[1], None, 10, k=2, bound=0.5, seed=0)
    uploads = sum(m.ciphertext_count for m in res.transcript.by_kind(protocol.ENCRYPTED_FEATURES))
    per_round = res.transcript.by_kind(protocol.NOISY_AGGREGATES)
    counts_ok = (
        uploads == 1 * math.ceil(1000 / slot_count)
        # the d + 1 = 3 aggregates share one release ciphertext (4,096 blocks of 2 x 2)
        and all(m.ciphertext_count == 1 for m in per_round)
        and all(m.byte_size == 2 * 2 * 8 for m in res.transcript.by_kind(protocol.CENTROIDS))
    )
    # one-time calibration on the (n=1000, k=2) cell, then the two big cells
    sm = calibrate_size_model(17.9e6)
    def total(n, k):
        cfg = EngineConfig(slot_count=slot_count, depth_budget=required_depth(k), size_model=sm)
        return estimate_transcript(n, k, 2, 1, 10, cfg).total_bytes
    t100k = total(100_000, 5)
    t1m = total(1_000_000, 8)
    ratio_100k = t100k / 72.9e6
    ratio_1m = t1m / 596e6
    sizes_ok = 0.5 <= ratio_100k <= 2.0 and 0.5 <= ratio_1m <= 2.0
    ok = counts_ok and sizes_ok
    detail = (f"counts exact: {counts_ok}; calibrated totals {t100k/1e6:.1f}MB "
              f"({ratio_100k:.2f}x of 72.9MB) and {t1m/1e6:.0f}MB ({ratio_1m:.2f}x of 596MB)")
    assert report(6, ok, detail), detail


def test_acceptance_07_depth_envelope():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(400, 2))
    parts = split_features(pts, [[0], [1]])
    measured = {}
    for k in (2, 5, 8, 15):
        res = run(parts[0], parts[1], None, 1, k=k, bound=1.0, seed=1)
        measured[k] = res.round_depths[0]
    in_k2 = 13 - 2 <= measured[2] <= 13 + 2
    in_k15 = 18 - 2 <= measured[15] <= 18 + 2
    mono = measured[2] <= measured[5] <= measured[8] <= measured[15]
    ok = in_k2 and in_k15 and mono
    assert report(7, ok, f"measured depths {measured} (k=2 in 13+-2, k=15 in 18+-2, monotone)"), measured


def test_acceptance_08_no_padding_replication():
    slot_count = 1 << 13
    mismatches = []
    over_budget = {}
    for k in range(2, 65):
        layout = PackedLayout(k, slot_count=slot_count)
        eng = SlotEngine(EngineConfig(slot_count=slot_count, depth_budget=4))
        # Each rotation at most doubles the lanes any add/rotate combination of
        # the input can touch, so k lanes need ceil(log2 k) rotations; this
        # floor exceeds 2*floor(log2 k) - 1 only at k=3 (2 against 1).
        bound = max(2 * (k.bit_length() - 1) - 1, (k - 1).bit_length())
        worst = 0
        for start in range(k):
            slots = np.zeros(slot_count)
            for b in range(layout.blocks_per_ct):
                slots[ref.slot_index(layout, 0, b, start)] = b + 1.5
            before = eng.stats.rotations
            out = repl_no_padding(eng, eng.encrypt(slots), start, layout, axis=COLUMN)
            rotations = eng.stats.rotations - before
            worst = max(worst, rotations)
            got = ref.blocks_of(layout, eng.decrypt(out))
            for b in range(layout.blocks_per_ct):
                if not np.array_equal(got[b][0], np.full(k, b + 1.5)):
                    mismatches.append((k, start, b))
        if worst > bound:
            over_budget[k] = (worst, bound)
    k14_slots = PackedLayout(14, slot_count=1 << 14).stride
    ok = not mismatches and not over_budget and k14_slots == 196
    detail = (f"{len(mismatches)} mismatches over k=2..64 all starts; "
              f"k=14 block = {k14_slots} slots; rotation bound exceeded at {over_budget or 'none'}")
    assert report(8, ok, detail), detail


def test_acceptance_09_multiparty_consistency():
    rng = np.random.default_rng(44)
    pts = rng.uniform(-1, 1, size=(300, 4))
    rounds, k = 3, 4
    reference = None
    for split in ([[0, 1, 2], [3]], [[0], [1], [2], [3]], [[2, 3], [0, 1]]):
        parts = split_features(pts, split)
        for model in (protocol.SERVER_AIDED, protocol.MPC_SIMULATED):
            res = run_multiparty(parts, model, None, rounds, k=k, bound=1.0, seed=12,
                                 computing_party=parts[0].owner)
            if reference is None:
                reference = res.centroids.centers
            identical = np.array_equal(reference, res.centroids.centers)
            if model == protocol.MPC_SIMULATED:
                shares = res.transcript.by_kind(protocol.DECRYPTION_SHARE)
                share_ok = len(shares) == (len(split) - 1) * rounds
            else:
                share_ok = True
            if not (identical and share_ok):
                assert report(9, False, f"split {split} model {model}: identical={identical}, shares ok={share_ok}")
    assert report(9, True, "identical centroids across splits and models; share counts exact")


def test_acceptance_10_dp_formula_spot_check():
    sigma = gaussian_sigma(1.0, 1.0, 1e-5)
    spot_ok = abs(sigma - 4.845) <= 1e-3
    ratio_ok = True
    for eps, delta, bound in ((1.0, 1e-4, 0.5), (0.3, 1e-6, 2.0), (2.0, 1e-3, 1.0)):
        rb = per_round_budget(PrivacyBudget(eps, delta, 7))
        ns = NoiseScales.from_budget(rb, bound)
        ratio_ok &= abs(ns.sigma_sum / ns.sigma_count - 2 * bound) < 1e-12
    ok = spot_ok and ratio_ok
    assert report(10, ok, f"gaussian_sigma(1,1,1e-5) = {sigma:.4f}; sigma ratio = 2B across budgets"), sigma
