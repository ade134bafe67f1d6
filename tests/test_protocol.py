import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vpkmeans import bench, protocol
from vpkmeans.dp_accounting import PrivacyBudget
from vpkmeans.packed_matrix import PackedLayout
from vpkmeans.protocol import (
    CentroidSet,
    DataPartition,
    ProtocolError,
    _ComputingState,
    _plan_batches,
    estimate_transcript,
    init_centroids,
    release_depths,
    required_depth,
    run,
    run_multiparty,
    split_features,
    update_centroids,
)
from vpkmeans.secure_argmin import SignApproxConfig
from vpkmeans.slot_engine import EngineConfig, SlotEngine, ciphertext_size_bytes


def uniform_instance(seed, n=200, d=3, bound=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-bound, bound, size=(n, d))


# -- initialization -----------------------------------------------------------


def test_init_rejects_k1():
    with pytest.raises(ProtocolError):
        init_centroids(1, 2, 1.0, 0)


def test_init_deterministic():
    a = init_centroids(5, 2, 1.0, 42)
    b = init_centroids(5, 2, 1.0, 42)
    assert np.array_equal(a.centers, b.centers)


def test_init_spacing_monte_carlo():
    # with the default rejection radius nearly every draw respects it
    k, d, bound = 5, 2, 1.0
    threshold = 2 * bound * math.sqrt(d) / (4 * k)
    ok = 0
    for seed in range(1000):
        c = init_centroids(k, d, bound, seed).centers
        dists = [np.linalg.norm(c[i] - c[j]) for i in range(k) for j in range(i)]
        ok += min(dists) >= threshold
    assert ok >= 990


def test_init_within_domain():
    c = init_centroids(8, 4, 0.5, 3).centers
    assert np.max(np.abs(c)) <= 0.5


# -- update rule ---------------------------------------------------------------


def test_update_divides():
    cs = update_centroids(np.array([[10.0, 0.0]]), np.array([5.0, 2.0]), 5.0, seed=0, round_index=1)
    assert np.allclose(cs.centers[:, 0], [2.0, 0.0])


def test_update_reinit_below_one():
    cs = update_centroids(np.array([[10.0, 0.3]]), np.array([5.0, 0.3]), 5.0, seed=0, round_index=1)
    expected = protocol.reinit_draw(0, 1, 1, 5.0, 1)
    assert np.allclose(cs.centers[1], expected)


@pytest.mark.parametrize("sums,counts", [
    ([[np.nan, 1.0]], [5.0, 2.0]),
    ([[1.0, np.inf]], [5.0, 2.0]),
    ([[1.0, 1.0]], [np.nan, 2.0]),
])
def test_update_rejects_non_finite_aggregates(sums, counts):
    with pytest.raises(ProtocolError, match="NaN or infinite"):
        update_centroids(np.array(sums), np.array(counts), 1.0, seed=0, round_index=1)


def test_update_clamps_to_domain():
    cs = update_centroids(np.array([[100.0]]), np.array([2.0]), 1.0, seed=0, round_index=1)
    assert cs.centers[0, 0] == 1.0


# -- partitions -----------------------------------------------------------------


def test_split_features_partition_check():
    pts = uniform_instance(0, n=10, d=3)
    with pytest.raises(ProtocolError):
        split_features(pts, [[0], [1]])
    parts = split_features(pts, [[0, 2], [1]])
    assert parts[0].feature_indices == (0, 2)
    assert np.array_equal(parts[0].features[:, 1], pts[:, 2])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_partition_rejects_non_finite_features(bad):
    with pytest.raises(ProtocolError, match="NaN or infinite"):
        DataPartition("alice", [[bad]])


@pytest.mark.parametrize("k", [2, 3])
def test_run_rejects_zero_records(k):
    parts = split_features(np.zeros((0, 2)), [[0], [1]])
    with pytest.raises(ProtocolError, match="no records"):
        run(parts[0], parts[1], None, 1, k=k, bound=1.0)
    with pytest.raises(ProtocolError, match="no records"):
        run_multiparty(parts, protocol.MPC_SIMULATED, None, 1, k=k, bound=1.0)


def test_run_rejects_out_of_bound_features():
    pts = uniform_instance(1, n=20, d=2, bound=2.0)
    parts = split_features(pts, [[0], [1]])
    with pytest.raises(ProtocolError, match="bound"):
        run(parts[0], parts[1], None, 1, k=3, bound=1.0)
    pts = uniform_instance(1, n=20, d=2)
    pts[3, 1] = np.nan
    with pytest.raises(ProtocolError, match="NaN"):  # the partition rejects it already
        parts = split_features(pts, [[0], [1]])
        run(parts[0], parts[1], None, 1, k=3, bound=1.0)


def test_run_rejects_unknown_computing_party():
    # a misspelt name must not hand the computation, and so the other
    # party's encrypted features, to whoever holds the most features
    pts = uniform_instance(1, n=20, d=3)
    parts = split_features(pts, [[0], [1, 2]], owners=["alice", "bob"])
    with pytest.raises(ProtocolError, match="alcie"):
        run_multiparty(parts, protocol.SERVER_AIDED, None, 1, k=3, bound=1.0,
                       computing_party="alcie")


def test_run_rejects_duplicate_owner_names():
    # with two owners named alike the key holder's features would be
    # treated as the computing party's and never encrypted
    pts = uniform_instance(1, n=20, d=2)
    parts = split_features(pts, [[0], [1]], owners=["x", "x"])
    with pytest.raises(ProtocolError, match="unique"):
        run(parts[0], parts[1], None, 1, k=3, bound=1.0)
    with pytest.raises(ProtocolError, match="unique"):
        run_multiparty(parts, protocol.MPC_SIMULATED, None, 1, k=3, bound=1.0)


@pytest.mark.parametrize("change,message", [
    (dict(budget=PrivacyBudget(1.0, 1e-3, 2), rounds=5), "privacy budget"),
    (dict(init=CentroidSet(np.zeros((3, 3)), bound=1.0)), "init must be 3 x 2"),
    (dict(init=CentroidSet(np.zeros((4, 2)), bound=1.0)), "init must be 3 x 2"),
    (dict(init=CentroidSet(np.full((3, 2), 1.5), bound=1.0)), "inside the domain bound"),
    (dict(points=np.zeros((40, 2)), bound=0.0), "bound must be positive"),
    (dict(bound=-1.0), "bound must be positive"),
    (dict(k=200), "k=200 needs 40000 slots"),
    (dict(rounds=-1), "non-negative"),
    (dict(split=[[0, 1], []]), "no party besides the computing one"),
], ids=["budget-shorter-than-run", "init-too-wide", "init-too-many", "init-outside-bound",
        "zero-bound", "negative-bound", "k-too-large", "negative-rounds", "nothing-encrypted"])
def test_run_rejects_bad_arguments(change, message, monkeypatch):
    # every case fails before setup: nothing is encrypted
    args = dict(points=uniform_instance(2, n=40, d=2), split=[[0], [1]], budget=None, rounds=2,
                k=3, bound=1.0, init=None)
    args.update(change)
    parts = split_features(args.pop("points"), args.pop("split"))

    def no_setup(*a, **kw):
        raise AssertionError("setup ran")

    monkeypatch.setattr(protocol, "_encrypt_features", no_setup)
    with pytest.raises(ProtocolError, match=message):
        run_multiparty(parts, protocol.SERVER_AIDED, **args)


# -- zero-noise equivalence with the plaintext oracle ---------------------------


@pytest.mark.parametrize("n,k,d,split", [
    (150, 3, 2, [[0], [1]]),
    (400, 5, 4, [[0, 3], [1, 2]]),
    (97, 2, 3, [[2], [0, 1]]),
])
def test_protocol_tracks_matching_oracle(n, k, d, split):
    pts = uniform_instance(n * k, n=n, d=d)
    parts = split_features(pts, split)
    res = run(parts[0], parts[1], None, 4, k=k, bound=1.0, seed=11)
    oracle = bench.lloyd_plaintext(pts, CentroidSet(res.history[0], bound=1.0), 4,
                                   tie_rule=bench.MATCHING, seed=11)
    for mine, ref in zip(res.history, oracle.history):
        assert np.max(np.abs(mine - ref)) < 1e-6


def test_separated_blobs_match_hard_lloyd():
    ds = bench.gen_synthetic(300, 3, 2, 1.0, cluster_std=0.03, seed=5, min_center_dist=0.9)
    parts = split_features(ds.points, [[0], [1]])
    init = CentroidSet(ds.points[[10, 150, 250]].copy(), bound=1.0)
    res = run(parts[0], parts[1], None, 3, k=3, bound=1.0, seed=5, init=init)
    hard = bench.lloyd_plaintext(ds, init, 3, tie_rule=bench.STANDARD, seed=5)
    for mine, ref in zip(res.history, hard.history):
        assert np.max(np.abs(mine - ref)) < 1e-4


def test_noise_free_aggregates_reproduce_lloyd_update():
    # one round; compare the released aggregates against hard counts/sums
    ds = bench.gen_synthetic(200, 4, 2, 1.0, cluster_std=0.02, seed=9, min_center_dist=0.8)
    parts = split_features(ds.points, [[0], [1]])
    rng = np.random.default_rng(21)
    centers = init_centroids(4, 2, 1.0, 9, min_separation=0.8).centers  # data's own centers
    init = CentroidSet(centers + rng.normal(0, 0.01, centers.shape), bound=1.0)
    res = run(parts[0], parts[1], None, 1, k=4, bound=1.0, seed=21, init=init)
    diff = ds.points[:, None, :] - init.centers[None, :, :]
    assign = np.argmin(np.einsum("ijl,ijl->ij", diff, diff), axis=1)
    counts = np.bincount(assign, minlength=4).astype(float)
    sums = np.zeros((4, 2))
    np.add.at(sums, assign, ds.points)
    want = np.clip(sums / counts[:, None], -1, 1)
    assert np.max(np.abs(res.centroids.centers - want)) < 1e-4


def test_centroids_stay_in_domain_with_noise():
    pts = uniform_instance(3, n=300, d=2)
    parts = split_features(pts, [[0], [1]])
    budget = PrivacyBudget(0.5, 1e-3, 5)
    res = run(parts[0], parts[1], budget, 5, k=4, bound=1.0, seed=2)
    for centers in res.history:
        assert np.max(np.abs(centers)) <= 1.0


def test_deterministic_under_seed():
    pts = uniform_instance(4, n=120, d=2)
    parts = split_features(pts, [[0], [1]])
    budget = PrivacyBudget(1.0, 1e-3, 3)
    a = run(parts[0], parts[1], budget, 3, k=3, bound=1.0, seed=9)
    b = run(parts[0], parts[1], budget, 3, k=3, bound=1.0, seed=9)
    assert np.array_equal(a.centroids.centers, b.centroids.centers)


# -- batching edge cases ---------------------------------------------------------


def test_tail_points_are_processed():
    # slot_count 64, k=3: 63 usable grid slots, so point 63 lands in the tail
    eng = SlotEngine(EngineConfig(slot_count=64, depth_budget=required_depth(3)))
    pts = uniform_instance(6, n=64, d=2)
    parts = split_features(pts, [[0], [1]])
    res = run(parts[0], parts[1], None, 2, k=3, bound=1.0, seed=13, engine=eng)
    oracle = bench.lloyd_plaintext(pts, CentroidSet(res.history[0], bound=1.0), 2,
                                   tie_rule=bench.MATCHING, seed=13)
    for mine, ref in zip(res.history, oracle.history):
        assert np.max(np.abs(mine - ref)) < 1e-6


@st.composite
def run_shapes(draw):
    """(k, n, split, computing party index, model, rounds, seed) at 64 slots."""
    k = draw(st.integers(2, 4))
    n = draw(st.one_of(st.integers(1, k - 1), st.sampled_from([64, 128]), st.integers(1, 200)))
    d = draw(st.integers(1, 3))
    parties = draw(st.integers(2, d + 1))
    owners = draw(st.lists(st.integers(0, parties - 1), min_size=d, max_size=d))
    computing = draw(st.integers(0, parties - 1))
    assume(any(o != computing for o in owners))
    split = [[l for l in range(d) if owners[l] == p] for p in range(parties)]
    model = draw(st.sampled_from([protocol.SERVER_AIDED, protocol.MPC_SIMULATED]))
    return k, n, split, computing, model, draw(st.integers(0, 2)), draw(st.integers(0, 2**16))


@given(shape=run_shapes())
@example(shape=(3, 2, [[0], [1]], 0, protocol.SERVER_AIDED, 2, 1))  # fewer points than clusters
@example(shape=(3, 128, [[0], [1]], 0, protocol.SERVER_AIDED, 2, 2))  # a tail batch per ciphertext
@example(shape=(2, 100, [[0], [1]], 0, protocol.SERVER_AIDED, 2, 3))  # partial last ciphertext
@example(shape=(3, 50, [[0], [1]], 0, protocol.MPC_SIMULATED, 0, 4))  # zero rounds
@example(shape=(3, 70, [[0], [1], [2]], 1, protocol.MPC_SIMULATED, 2, 5))  # one feature per party
@example(shape=(2, 70, [[], [0, 1]], 0, protocol.SERVER_AIDED, 2, 6))  # computing party holds none
# data drawn with the init's seed puts the two points on the two centroids,
# so each cluster's count is exactly one point up to rounding
@example(shape=(2, 2, [[0], []], 1, protocol.SERVER_AIDED, 1, 3))
@settings(max_examples=25, deadline=None)
def test_run_shapes_match_oracle_and_estimate(shape):
    k, n, split, computing, model, rounds, seed = shape
    d = sum(len(cols) for cols in split)
    pts = uniform_instance(seed, n=n, d=d)
    parts = split_features(pts, split)
    eng = SlotEngine(EngineConfig(slot_count=64, depth_budget=required_depth(k)))
    res = run_multiparty(parts, model, None, rounds, k=k, bound=1.0, engine=eng, seed=seed,
                         computing_party=parts[computing].owner)
    oracle = bench.lloyd_plaintext(pts, CentroidSet(res.history[0], bound=1.0), rounds,
                                   tie_rule=bench.MATCHING, seed=seed)
    assert len(res.history) == len(oracle.history) == rounds + 1
    for mine, ref in zip(res.history, oracle.history):
        assert np.max(np.abs(mine - ref)) < 1e-6
    est = estimate_transcript(n, k, d, d - len(split[computing]), rounds, cfg=eng.config,
                              parties=len(split), model=model)
    tr = res.transcript
    assert tr.total_bytes == est.total_bytes
    assert tr.total_ciphertexts == est.total_ciphertexts
    assert tr.bytes_by_kind() == est.bytes_by_kind()


@pytest.mark.parametrize("k,n", [(3, 64), (3, 150), (8, 20000), (15, 5000)])
def test_batches_share_one_valid_mask_per_used_block_count(k, n):
    # 64 and 150 points at 64 slots leave tail batches and a partial last
    # ciphertext; the others are the benchmark's packed shapes
    slots = 64 if n < 200 else 1 << 14
    layout = PackedLayout(k, slot_count=slots)
    batches = _plan_batches(n, layout)
    used = set()
    for b in batches:
        g = layout.grid()
        g[:, b.points >= 0, :] = 1.0
        assert np.array_equal(b.valid_mask, layout.to_slots(g))
        used.add(int(np.count_nonzero(b.points >= 0)))
    assert len({id(b.valid_mask) for b in batches}) == len(used)


def test_multiple_ciphertexts_per_feature():
    eng = SlotEngine(EngineConfig(slot_count=64, depth_budget=required_depth(2)))
    pts = uniform_instance(8, n=150, d=2)  # 3 compact ciphertexts per feature
    parts = split_features(pts, [[0], [1]])
    res = run(parts[0], parts[1], None, 2, k=2, bound=1.0, seed=3, engine=eng)
    uploads = res.transcript.by_kind(protocol.ENCRYPTED_FEATURES)
    assert sum(m.ciphertext_count for m in uploads) == 1 * math.ceil(150 / 64)
    oracle = bench.lloyd_plaintext(pts, CentroidSet(res.history[0], bound=1.0), 2,
                                   tie_rule=bench.MATCHING, seed=3)
    assert np.max(np.abs(res.centroids.centers - oracle.centroids.centers)) < 1e-6


def test_k2_rotations_do_not_grow_with_ciphertext_count():
    # the compact path rotate-and-sums each released aggregate once per
    # round (plus the round-invariant feature totals once per run), so one
    # ciphertext per feature and three cost the same rotations
    slots, d, rounds = 64, 2, 2
    counts = []
    for n in (60, 150):
        eng = SlotEngine(EngineConfig(slot_count=slots, depth_budget=required_depth(2)))
        parts = split_features(uniform_instance(8, n=n, d=d), [[0], [1]])
        run(parts[0], parts[1], None, rounds, k=2, bound=1.0, seed=3, engine=eng)
        counts.append(eng.stats.rotations)
    assert counts[0] == counts[1]
    assert counts[1] <= (d + rounds * (1 + d)) * int(math.log2(slots))


# -- linear distance differences -------------------------------------------------


@given(k=st.integers(2, 9), d=st.integers(1, 6), bound=st.floats(0.1, 100.0),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_round_grids_give_plaintext_distance_differences(k, d, bound, seed):
    rng = np.random.default_rng(seed)
    slots = 512
    layout = PackedLayout(k, slot_count=slots)
    count = slots if k == 2 else layout.blocks_per_ct  # compact slots, or one point per block
    centers = rng.uniform(-bound, bound, size=(k, d))
    points = rng.uniform(-bound, bound, size=(count, d))
    eng = SlotEngine(EngineConfig(slot_count=slots))
    state = _ComputingState(eng, layout, k, count, bound, SignApproxConfig(), list(points.T), {})
    grids, h = state._round_grids(CentroidSet(centers, bound))
    u = np.array(h.slots)
    for l, g in enumerate(grids):
        x = points[:, l] if k == 2 else layout.to_slots(layout.grid(points[None, :, l, None]))
        u += x * g.slots
    scale = 1.0 / (d * (2.0 * bound) ** 2)
    dist = scale * ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)  # count x k
    if k == 2:
        want = dist[:, 0] - dist[:, 1]
    else:
        want = layout.to_slots(dist[None, :, :] - dist.T[:, :, None])  # (r, b, c): d_c - d_r
    assert np.max(np.abs(u - want)) <= 1e-12


@pytest.mark.parametrize("k", [2, 3])
def test_each_key_holder_feature_adds_one_ct_mult_per_unit_and_round(k):
    # moving one feature from the computing party to the key holder adds
    # only the product a * x_l: the differences multiply it by a plaintext
    slots, n, rounds = 64, 150, 2
    pts = uniform_instance(21, n=n, d=3)
    mults = []
    for split in ([[0, 1], [2]], [[0], [1, 2]]):
        eng = SlotEngine(EngineConfig(slot_count=slots, depth_budget=required_depth(k)))
        parts = split_features(pts, split)
        run(parts[0], parts[1], None, rounds, k=k, bound=1.0, seed=5, engine=eng)
        mults.append(eng.stats.ct_mults)
    if k == 2:
        units = math.ceil(n / slots)
    else:
        units = len(_plan_batches(n, PackedLayout(k, slot_count=slots)))
    assert mults[1] - mults[0] == units * rounds


# -- transcript accounting -------------------------------------------------------


def transcript_checks(res, n, k, d, d_bob, rounds, slot_count):
    tr = res.transcript
    uploads = tr.by_kind(protocol.ENCRYPTED_FEATURES)
    assert sum(m.ciphertext_count for m in uploads) == d_bob * math.ceil(n / slot_count)
    per_round = tr.by_kind(protocol.NOISY_AGGREGATES)
    assert len(per_round) == rounds
    assert all(m.ciphertext_count == d + 1 for m in per_round)
    cents = tr.by_kind(protocol.CENTROIDS)
    assert all(m.byte_size == k * d * 8 for m in cents)


def test_transcript_invariants_two_party():
    pts = uniform_instance(5, n=300, d=3)
    parts = split_features(pts, [[0], [1, 2]])
    res = run(parts[0], parts[1], None, 3, k=4, bound=1.0, seed=1)
    transcript_checks(res, 300, 4, 3, 2, 3, 1 << 14)


def test_estimator_matches_real_run_exactly():
    cases = (
        (2, 2, [[0], [1]], protocol.TWO_PARTY),
        (5, 3, [[0, 1], [2]], protocol.TWO_PARTY),
        (3, 4, [[0, 1], [2], [3]], protocol.SERVER_AIDED),
        (3, 4, [[0, 1], [2], [3]], protocol.MPC_SIMULATED),
    )
    for k, d, split, model in cases:
        pts = uniform_instance(6 + k, n=500, d=d)
        parts = split_features(pts, split)
        if model == protocol.TWO_PARTY:
            res = run(parts[0], parts[1], None, 3, k=k, bound=1.0, seed=1)
        else:
            res = run_multiparty(parts, model, None, 3, k=k, bound=1.0, seed=1)
        d_bob = d - len(split[0])
        est = estimate_transcript(500, k, d, d_bob, 3, parties=len(split), model=model)
        assert est.total_bytes == res.transcript.total_bytes
        assert est.total_ciphertexts == res.transcript.total_ciphertexts
        assert est.bytes_by_kind() == res.transcript.bytes_by_kind()
        if len(split) == 2:
            assert len(est.messages) == len(res.transcript.messages)


def test_estimator_rejects_two_party_model_with_more_parties():
    with pytest.raises(ProtocolError):
        estimate_transcript(500, 3, 3, 1, 3, parties=5, model=protocol.TWO_PARTY)


def test_run_checks_measured_sizes_against_plan(monkeypatch):
    # an aggregate left one level above level 0 is one limb larger than the
    # plan's aggregates
    pts = uniform_instance(3, n=100, d=2)
    parts = split_features(pts, [[0], [1]])
    drop = SlotEngine.drop_to_depth
    dropped = []

    def all_but_the_first(self, v, depth):
        dropped.append(v)
        return v if len(dropped) == 1 else drop(self, v, depth)

    monkeypatch.setattr(SlotEngine, "drop_to_depth", all_but_the_first)
    with pytest.raises(ProtocolError, match="plan"):
        run(parts[0], parts[1], None, 1, k=3, bound=1.0)


@pytest.mark.parametrize("extra", [0, 3])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_aggregates_are_released_at_level_zero(k, extra):
    # whatever the circuit leaves and whatever the budget, every released
    # aggregate is a level-0 ciphertext, and the estimator knows it
    n, d, rounds = 150, 2, 2
    cfg = EngineConfig(slot_count=256, depth_budget=required_depth(k) + extra)
    parts = split_features(uniform_instance(30 + k, n=n, d=d), [[0], [1]])
    res = run(parts[0], parts[1], PrivacyBudget(1.0, 1e-3, rounds), rounds, k=k, bound=1.0,
              seed=2, engine=SlotEngine(cfg))
    per_round = res.transcript.by_kind(protocol.NOISY_AGGREGATES)
    assert [m.byte_size for m in per_round] == [(d + 1) * ciphertext_size_bytes(0, cfg)] * rounds
    assert res.round_depths == [required_depth(k)] * rounds
    est = estimate_transcript(n, k, d, 1, rounds, cfg)
    assert est.total_bytes == res.transcript.total_bytes
    assert est.total_ciphertexts == res.transcript.total_ciphertexts
    assert est.bytes_by_kind() == res.transcript.bytes_by_kind()


def test_run_checks_released_depths_against_ledger(monkeypatch):
    # at d = 1, a ledger that moves one level from the sums to the counts
    # keeps the required depth and every byte total, so only the released
    # depths can expose it
    pts = uniform_instance(3, n=100, d=1)
    parts = split_features(pts, [[], [0]])
    true_depths = protocol.release_depths

    def moved(k, degree):
        t_depth, s_depth = true_depths(k, degree)
        return t_depth + 1, s_depth - 1

    monkeypatch.setattr(protocol, "release_depths", moved)
    with pytest.raises(ProtocolError, match="depth ledger"):
        run(parts[0], parts[1], None, 1, k=3, bound=1.0)


def test_release_depths_match_measured():
    for k in (2, 3, 5, 8):
        pts = uniform_instance(k, n=150, d=2)
        parts = split_features(pts, [[0], [1]])
        res = run(parts[0], parts[1], None, 1, k=k, bound=1.0, seed=1)
        assert res.round_depths == [required_depth(k)]
        assert max(release_depths(k)) == required_depth(k)


def test_engine_budget_too_small_rejected():
    pts = uniform_instance(2, n=50, d=2)
    parts = split_features(pts, [[0], [1]])
    eng = SlotEngine(EngineConfig(slot_count=1 << 14, depth_budget=5))
    with pytest.raises(ProtocolError, match="depth budget"):
        run(parts[0], parts[1], None, 1, k=3, bound=1.0, engine=eng)


def test_convergence_shift_mode_stops_early():
    ds = bench.gen_synthetic(200, 3, 2, 1.0, cluster_std=0.02, seed=2, min_center_dist=0.8)
    parts = split_features(ds.points, [[0], [1]])
    init = CentroidSet(ds.points[[0, 80, 160]].copy(), bound=1.0)
    res = run(parts[0], parts[1], None, 20, k=3, bound=1.0, seed=2, init=init, shift_tol=1e-4)
    assert len(res.history) - 1 < 20


# -- multiparty -------------------------------------------------------------------


def test_server_aided_two_parties_equals_two_party_run():
    pts = uniform_instance(7, n=200, d=4)
    parts = split_features(pts, [[0, 1, 2], [3]])
    a = run(parts[0], parts[1], None, 2, k=3, bound=1.0, seed=4)
    b = run_multiparty(parts, protocol.SERVER_AIDED, None, 2, k=3, bound=1.0, seed=4)
    assert np.array_equal(a.centroids.centers, b.centroids.centers)
    assert a.transcript.summary() == b.transcript.summary()


def test_mpc_share_message_count():
    pts = uniform_instance(8, n=150, d=4)
    parts = split_features(pts, [[0, 1], [2], [3]])
    rounds = 3
    res = run_multiparty(parts, protocol.MPC_SIMULATED, None, rounds, k=3, bound=1.0, seed=4)
    shares = res.transcript.by_kind(protocol.DECRYPTION_SHARE)
    assert len(shares) == (len(parts) - 1) * rounds
    for t in range(1, rounds + 1):
        assert sum(1 for m in shares if m.round == t) == len(parts) - 1


def test_models_and_splits_give_identical_centroids():
    # k = 2 takes the compact path, k = 3 the packed one
    pts = uniform_instance(9, n=250, d=4)
    rounds = 3
    for k in (2, 3):
        results = []
        for split in ([[0, 1, 2], [3]], [[0, 1], [2, 3]], [[3, 2], [0], [1]], [[0], [1], [2], [3]]):
            parts = split_features(pts, split)
            for model in (protocol.SERVER_AIDED, protocol.MPC_SIMULATED):
                res = run_multiparty(parts, model, None, rounds, k=k, bound=1.0, seed=17,
                                     computing_party=parts[0].owner)
                results.append(res.centroids.centers)
        for r in results[1:]:
            assert np.array_equal(results[0], r), k


def test_mpc_with_noise_matches_server_aided():
    pts = uniform_instance(10, n=200, d=2)
    parts = split_features(pts, [[0], [1]])
    budget = PrivacyBudget(1.0, 1e-3, 2)
    a = run_multiparty(parts, protocol.SERVER_AIDED, budget, 2, k=3, bound=1.0, seed=6)
    b = run_multiparty(parts, protocol.MPC_SIMULATED, budget, 2, k=3, bound=1.0, seed=6)
    assert np.array_equal(a.centroids.centers, b.centroids.centers)
