import hashlib
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference_ops as ref
from vpkmeans import bench, protocol, slot_engine
from vpkmeans import packed_matrix as pm
from vpkmeans.dp_accounting import PrivacyBudget
from vpkmeans.packed_matrix import PackedLayout
from vpkmeans.protocol import (
    CentroidSet,
    DataPartition,
    ProtocolError,
    _ComputingState,
    estimate_transcript,
    init_centroids,
    pair_scales,
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


@pytest.mark.parametrize("name, args", [
    ("k", (3.0, 2, 1.0, 1)), ("k", (True, 2, 1.0, 1)), ("k", ("3", 2, 1.0, 1)),
    ("d", (3, 2.0, 1.0, 1)), ("d", (3, np.True_, 1.0, 1)),
    ("the seed", (3, 2, 1.0, True)), ("the seed", (3, 2, 1.0, 1.0)), ("the seed", (3, 2, 1.0, "1")),
])
def test_init_refuses_counts_that_are_not_whole_numbers(name, args):
    with pytest.raises(ProtocolError, match=f"^{name} must be a whole number"):
        init_centroids(*args)


def test_init_reads_numpy_integers_and_refuses_a_negative_seed_or_no_feature():
    want = init_centroids(3, 2, 1.0, 7).centers
    assert np.array_equal(init_centroids(np.int64(3), np.int32(2), 1.0, np.uint8(7)).centers, want)
    with pytest.raises(ProtocolError, match="seed must be a non-negative whole number, got -1"):
        init_centroids(3, 2, 1.0, -1)
    for d in (0, -1):  # used to give a 3 x 0 set and a bare ValueError from sqrt
        with pytest.raises(ProtocolError, match=f"d must be at least 1, got {d}"):
            init_centroids(3, d, 1.0, 1)


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
    parts = [DataPartition("alice", pts[:, [0]], (0,)), DataPartition("bob", pts[:, 1:], (1, 2))]
    with pytest.raises(ProtocolError, match="alcie"):
        run_multiparty(parts, protocol.SERVER_AIDED, None, 1, k=3, bound=1.0,
                       computing_party="alcie")


def test_run_rejects_duplicate_owner_names():
    # with two owners named alike the key holder's features would be
    # treated as the computing party's and never encrypted
    pts = uniform_instance(1, n=20, d=2)
    parts = [DataPartition("x", pts[:, [0]], (0,)), DataPartition("x", pts[:, [1]], (1,))]
    with pytest.raises(ProtocolError, match="unique"):
        run(parts[0], parts[1], None, 1, k=3, bound=1.0)
    with pytest.raises(ProtocolError, match="unique"):
        run_multiparty(parts, protocol.MPC_SIMULATED, None, 1, k=3, bound=1.0)


@pytest.mark.parametrize("change,message", [
    (dict(budget=PrivacyBudget(1.0, 1e-3, 2), rounds=5), "privacy budget"),
    (dict(init=CentroidSet(np.zeros((3, 3)), bound=1.0)), "init must be 3 x 2"),
    (dict(init=CentroidSet(np.zeros((4, 2)), bound=1.0)), "init must be 3 x 2"),
    (dict(init=CentroidSet(np.full((3, 2), 1.5), bound=1.0)), "inside the domain bound"),
    (dict(init=CentroidSet(np.zeros((3, 2)), bound=0.5)), "at bound 0.5"),
    (dict(points=np.zeros((40, 2)), bound=0.0), "bound must be positive"),
    (dict(bound=-1.0), "bound must be positive"),
    (dict(bound=math.inf), "bound must be positive and finite"),
    (dict(bound=1e308), "bound must be positive and finite"),  # [-B, B] is wider than any float
    (dict(points=np.zeros((40, 2)), bound=1e-160), "too small or too large for 2 features"),
    (dict(bound=1e160), "too small or too large for 2 features"),
    (dict(k=200), "k=200 needs 40000 slots"),
    (dict(rounds=-1), "non-negative"),
    (dict(split=[[0, 1], []]), "no party besides the computing one"),
], ids=["budget-shorter-than-run", "init-too-wide", "init-too-many", "init-outside-bound",
        "init-at-another-bound", "zero-bound", "negative-bound", "infinite-bound", "bound-too-wide", "scale-overflows",
        "scale-underflows", "k-too-large",
        "negative-rounds", "nothing-encrypted"])
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


@pytest.mark.parametrize("with_init", [False, True], ids=["drawn", "given"])
@pytest.mark.parametrize("seed, message", [
    (-1, "the seed must be a non-negative whole number, got -1"),
    (1.5, "the seed must be a whole number, got 1.5"),
    (True, "the seed must be a whole number, got True"),
    ("1", "the seed must be a whole number, got '1'"),
], ids=["negative", "fraction", "bool", "str"])
def test_run_refuses_a_seed_that_is_not_a_non_negative_whole_number(seed, message, with_init, monkeypatch):
    # with init given, True and "1" used to run silently as seed 1
    parts = split_features(uniform_instance(3, n=40, d=2), [[0], [1]])
    init = init_centroids(3, 2, 1.0, 1) if with_init else None

    def no_setup(*a, **kw):
        raise AssertionError("setup ran")

    monkeypatch.setattr(protocol, "_encrypt_features", no_setup)
    with pytest.raises(ProtocolError, match=message):
        run(parts[0], parts[1], None, 1, k=3, bound=1.0, seed=seed, init=init)
    with pytest.raises(ProtocolError, match=message):
        run_multiparty(parts, protocol.MPC_SIMULATED, None, 1, k=3, bound=1.0, seed=seed, init=init)


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


def test_every_comparison_evaluates_mirrored_pairs_once(bsgs_sizes, monkeypatch):
    """The argmin's difference grid is antisymmetric, so each comparator call
    takes the kernel's paired path and evaluates the non-zero slots outside
    ``hi``; a silent fall-back would keep every result and lose the saving."""
    kept = []  # per comparator call: the slots outside hi that are not zero
    original = slot_engine.eval_series

    def spy(coeffs, x, pairs=None):
        kept.append(np.count_nonzero(np.delete(x, pairs[1])))
        return original(coeffs, x, pairs)

    monkeypatch.setattr(slot_engine, "eval_series", spy)
    eng = SlotEngine(EngineConfig(slot_count=1 << 10, depth_budget=required_depth(4)))
    parts = split_features(uniform_instance(8, n=300, d=3), [[0], [1], [2]])
    res = run_multiparty(parts, protocol.MPC_SIMULATED, PrivacyBudget(1.0, 1e-3, 2), 2, k=4,
                         bound=1.0, engine=eng, seed=3)
    assert res.engine.stats.cheb_evals == len(bsgs_sizes) > 0
    assert bsgs_sizes == kept


@pytest.mark.parametrize("model", [protocol.SERVER_AIDED, protocol.MPC_SIMULATED])
@pytest.mark.parametrize("k, slots, n", [(3, 64, 200), (8, 1024, 300), (15, 1024, 300)])
def test_first_row_restriction_is_exact(monkeypatch, model, k, slots, n):
    """A real backend computes every slot: with ``restrict`` and ``widen``
    as the identity, noisy runs keep every history bit, counter and depth.
    (3, 64, 200) has batches past the aligned grid."""

    def runs():
        eng = SlotEngine(EngineConfig(slot_count=slots, depth_budget=required_depth(k)))
        parts = split_features(uniform_instance(k, n=n, d=3), [[0], [1], [2]])
        res = run_multiparty(parts, model, PrivacyBudget(1.0, 1e-3, 2), 2, k=k, bound=1.0,
                             engine=eng, seed=5)
        return [h.tobytes() for h in res.history], asdict(res.engine.stats), res.round_depths

    shortcut = runs()
    monkeypatch.setattr(SlotEngine, "restrict", lambda self, v, count: v)
    monkeypatch.setattr(SlotEngine, "widen", lambda self, v: v)
    assert runs() == shortcut


# -- batching edge cases ---------------------------------------------------------


def test_one_point_past_the_stride_takes_a_second_upload():
    # slot_count 64, k=3: an upload holds the 63 grid slots, so point 63
    # opens a second upload ciphertext and is extracted by entry (0, 0)
    k, slots = 3, 64
    layout = PackedLayout(k, slot_count=slots)
    n = layout.usable_slots + 1
    rows, cols, points = layout.batches(n)
    entries = [divmod(row, k)[1] for row in rows.tolist()]
    assert list(zip(entries, cols.tolist())) == [(r, c) for r in range(k) for c in range(k)] + [(0, 0)]
    assert np.array_equal(np.sort(points[points < n]), np.arange(n))
    assert (rows[-1] // k, np.count_nonzero(points[-1] < n), points[-1, 0]) == (1, 1, n - 1)
    eng = SlotEngine(EngineConfig(slot_count=slots, depth_budget=required_depth(k)))
    pts = uniform_instance(6, n=n, d=2)
    parts = split_features(pts, [[0], [1]])
    res = run(parts[0], parts[1], None, 2, k=k, bound=1.0, seed=13, engine=eng)
    assert [m.ciphertext_count for m in res.transcript.by_kind(protocol.ENCRYPTED_FEATURES)] == [2]
    oracle = bench.lloyd_plaintext(pts, CentroidSet(res.history[0], bound=1.0), 2,
                                   tie_rule=bench.MATCHING, seed=13)
    for mine, ref in zip(res.history, oracle.history):
        assert np.max(np.abs(mine - ref)) < 1e-6


class StepRecorder(SlotEngine):
    """An engine that records every rotation step, modulo the slot count:
    a real backend needs one Galois key per distinct step."""

    def __init__(self, config):
        super().__init__(config)
        self.steps = set()

    def rotate(self, v, r):
        self.steps.add(r % self.config.slot_count)
        return super().rotate(v, r)


@pytest.mark.parametrize("k", [5, 7])
def test_key_set_does_not_grow_past_the_grid(k):
    # at 64 slots k=5 has 50 grid slots and k=7 has 49: every point past
    # them goes to a second upload and takes the same replication shifts
    slots = 64
    steps = []
    for n in (PackedLayout(k, slot_count=slots).usable_slots, slots):
        eng = StepRecorder(EngineConfig(slot_count=slots, depth_budget=required_depth(k)))
        parts = split_features(uniform_instance(4, n=n, d=2), [[0], [1]])
        run(parts[0], parts[1], None, 1, k=k, bound=1.0, seed=2, engine=eng)
        steps.append(eng.steps)
    assert steps[1] == steps[0]


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
@example(shape=(3, 128, [[0], [1]], 0, protocol.SERVER_AIDED, 2, 2))  # 3 uploads of 63 grid slots
@example(shape=(2, 100, [[0], [1]], 0, protocol.SERVER_AIDED, 2, 3))  # partial last ciphertext
@example(shape=(3, 50, [[0], [1]], 0, protocol.MPC_SIMULATED, 0, 4))  # zero rounds
@example(shape=(3, 70, [[0], [1], [2]], 1, protocol.MPC_SIMULATED, 2, 5))  # one feature per party
@example(shape=(2, 70, [[], [0, 1]], 0, protocol.SERVER_AIDED, 2, 6))  # computing party holds none
@example(shape=(3, 20, [[0], [1, 2], []], 0, protocol.SERVER_AIDED, 1, 7))  # uneven: 1 upload, estimate 2
@example(shape=(4, 20, [[1], [0, 2]], 0, protocol.MPC_SIMULATED, 1, 8))  # two features in one upload
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
    # uploads in the run's role order: the non-computing parties, most features first
    held = sorted((len(cols) for p, cols in enumerate(split) if p != computing), reverse=True)
    assert [m.ciphertext_count for m in tr.by_kind(protocol.ENCRYPTED_FEATURES)] == [
        packed_uploads(f, n, k, 64) for f in held if f]
    # the estimate spreads the uploaded features evenly; the rest of the
    # transcript does not depend on the split (the names may differ)
    def rest(t):
        return [(m.round, m.kind, m.byte_size, m.ciphertext_count) for m in t.messages
                if m.kind != protocol.ENCRYPTED_FEATURES]

    assert rest(tr) == rest(est)
    if max(held) - min(held) <= 1:
        assert tr.total_bytes == est.total_bytes
        assert tr.total_ciphertexts == est.total_ciphertexts
        assert tr.bytes_by_kind() == est.bytes_by_kind()


@pytest.mark.parametrize("k,n", [(3, 64), (3, 150), (8, 20000), (15, 5000)])
def test_batches_share_one_valid_mask_per_used_block_count(k, n):
    # 64 and 150 points at 64 slots take 2 and 3 uploads of 63 grid slots,
    # the last one partial; the others are the benchmark's packed shapes.
    # A batch's coordinate 0 is spread from its 0/1 used-block values.
    slots = 64 if n < 200 else 1 << 14
    layout = PackedLayout(k, slot_count=slots)
    state = _ComputingState(SlotEngine(EngineConfig(slot_count=slots)), layout, k, n, 1.0, SignApproxConfig(),
                            [np.zeros(n)], {})
    masks, used = set(), set()
    points = layout.batches(n)[2]
    assert state.units == len(points)
    for i, batch in enumerate(points):
        g = layout.grid()
        g[:, batch < n, :] = 1.0
        x0 = state._coordinates(i)[0]
        assert np.array_equal(x0.slots, layout.to_slots(g))
        assert (x0.depth_consumed, x0.kind) == (0, slot_engine.PLAINTEXT)
        masks.add(x0.slots.tobytes())
        used.add(int(np.count_nonzero(batch < n)))
    assert len(masks) == len(used)


def _packed_round_peak(n: int) -> int:
    """The tracemalloc peak of one noise-free k = 8 round on n points, the
    computing party and the key holder holding 2 features each."""
    parts = split_features(bench.gen_synthetic(n, 8, 4, 0.5, 0.04, seed=1).points, [[0, 1], [2, 3]])
    tracemalloc.start()
    try:
        run(parts[0], parts[1], None, 1, k=8, bound=0.5, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_packed_run_keeps_only_ciphertexts_across_rounds():
    # the computing party's 2 features cost no slot vector per batch: the
    # run's peak is the key holder's extracted ciphertexts (2 per batch) and
    # a fixed allowance for the uploads, the data and one round's temporaries
    n, k, slots = 20_000, 8, 1 << 14
    parts = split_features(bench.gen_synthetic(n, k, 4, 0.5, 0.04, seed=1).points, [[0, 1], [2, 3]])
    extracted = 2 * len(PackedLayout(k, slot_count=slots).batches(n)[0])
    allowance = 96
    tracemalloc.start()
    try:
        res = run(parts[0], parts[1], None, 1, k=k, bound=0.5, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.engine.config.slot_count == slots
    assert peak < (extracted + allowance) * 8 * slots, peak / (8 * slots)


def test_packed_run_state_does_not_grow_per_batch():
    # doubling the points doubles the batches (80 -> 160) but adds only
    # the block values (8 bytes per grid point and coordinate), one more
    # upload per encrypted feature and the larger data: far below one slot
    # vector per batch
    vector = 8 * (1 << 14)
    small, large = _packed_round_peak(20_000), _packed_round_peak(40_000)
    assert large - small < 16 * vector, (small / vector, large / vector)


def _digest(v):
    """A slot vector's slots, with -0.0 read as 0.0 (adding 0.0 does that),
    depth and kind, in a few bytes."""
    return hashlib.sha256((v.slots + 0.0).tobytes()).digest(), v.depth_consumed, v.kind


@pytest.mark.parametrize("k,slots,n", [(k, 1 << 14, 1 << 14) for k in [*range(3, 17), 31, 64]]
                         + [(3, 64, 200), (5, 1024, 3000), (7, 256, 700), (15, 1 << 14, 17000)])
def test_rebuilt_coordinates_equal_the_extracted_ciphertexts(monkeypatch, k, slots, n):
    # the key holder's feature is kept as block values: every batch's
    # coordinate is rebuilt to the slots, depth and kind of its extraction,
    # recorded by digest: at k = 64 the 4,096 slot vectors would take 512 MB
    extracted = []

    def recorded(*args):
        ct = extract(*args)
        extracted.append(_digest(ct))
        return ct

    extract = pm.batch_extract_replicate
    monkeypatch.setattr(pm, "batch_extract_replicate", recorded)
    layout = PackedLayout(k, slot_count=slots)
    eng = SlotEngine(EngineConfig(slot_count=slots))
    values = np.random.default_rng(k).uniform(-1, 1, n)
    uploads = protocol._encrypt_features(eng, [values], layout)
    state = _ComputingState(eng, layout, k, n, 1.0, SignApproxConfig(), [values], {0: (uploads, 0)})
    assert len(extracted) == state.units == len(layout.batches(n)[0])
    assert all(_digest(state._coordinates(i)[1]) == want for i, want in enumerate(extracted))
    assert extracted[0][1:] == (1, slot_engine.CIPHERTEXT)


def _upload_stream(columns, n, k, slots):
    """Independent of the program: a party's features laid out one after
    another, each from a grid row of its own (whole ciphertexts at k = 2),
    cut into ciphertexts of k rows and zero-padded to the slots."""
    width = slots // (k * k) * k
    rows = math.ceil(n / width)
    if k == 2:
        rows = math.ceil(rows / k) * k
    stream = np.zeros((len(columns) * rows + k - 1) // k * k * width)
    for j, values in enumerate(columns):
        stream[j * rows * width : j * rows * width + n] = values
    cts = stream.reshape(-1, k * width)
    return np.hstack([cts, np.zeros((len(cts), slots - k * width))])


def _upload_shapes():
    """(k, slots, n) with n at and just past a row and a ciphertext boundary."""
    for slots in (64, 1024, 1 << 14):
        for k in (2, 3, 5, 8, 15):
            if k * k <= slots:
                layout = PackedLayout(k, slot_count=slots)
                for n in (layout.width, layout.width + 1, layout.usable_slots, layout.usable_slots + 1):
                    yield k, slots, n


@pytest.mark.parametrize("k,slots,n", list(_upload_shapes()))
def test_uploads_pack_a_partys_features_by_grid_row(k, slots, n):
    # f features take ceil(f * ceil(n / width) / k) ciphertexts, and at k = 2
    # f * ceil(n / slots): one feature per ciphertext, as before
    layout = PackedLayout(k, slot_count=slots)
    for f in (1, 2, 3):
        columns = [np.random.default_rng([n, j]).uniform(-1, 1, n) for j in range(f)]
        for v in columns:
            v.setflags(write=False)  # as a run's feature columns are
        eng = SlotEngine(EngineConfig(slot_count=slots, depth_budget=required_depth(k)))
        uploads = protocol._encrypt_features(eng, columns, layout)
        assert len(uploads) == eng.stats.encryptions == packed_uploads(f, n, k, slots), f
        assert np.array_equal(np.stack([ct.slots for ct in uploads]), _upload_stream(columns, n, k, slots))
        if layout.usable_slots == slots < n:
            # a ciphertext inside one feature's range wraps its values without a copy
            assert np.shares_memory(uploads[0].slots, columns[0])
        est = estimate_transcript(n, k, f, f, 1, cfg=eng.config)
        assert [m.ciphertext_count for m in est.by_kind(protocol.ENCRYPTED_FEATURES)] == [len(uploads)]


@pytest.mark.parametrize("k,slots,n,f", [
    (3, 64, 21, 3), (3, 64, 50, 3), (4, 64, 129, 2), (5, 1024, 300, 3), (7, 256, 700, 2),
    (8, 1 << 14, 20_000, 2), (15, 1 << 14, 5000, 2),
])
def test_every_uploaded_feature_keeps_its_values_at_the_batch_points(k, slots, n, f):
    # the oracle reads each feature's values at the batch's points (0 on
    # unused blocks), whatever ciphertext and row its extraction came from
    layout = PackedLayout(k, slot_count=slots)
    eng = SlotEngine(EngineConfig(slot_count=slots))
    columns = [np.random.default_rng([k, j]).uniform(-1, 1, n) for j in range(f)]
    uploads = protocol._encrypt_features(eng, columns, layout)
    rows = layout.feature_rows(n)
    state = _ComputingState(eng, layout, k, n, 1.0, SignApproxConfig(), columns,
                            {j: (uploads, j * rows) for j in range(f)})
    points = layout.batches(n)[2]
    for j, v in enumerate(columns):
        values, depth, kind = state.encodings[j + 1]
        assert np.array_equal(values, np.where(points < n, v[np.minimum(points, n - 1)], 0.0)), j
        assert (depth, kind) == (1, slot_engine.CIPHERTEXT)


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
    grids = state._round_grids(CentroidSet(centers, bound))
    assert len(grids) == d + 1
    u = np.array(grids[0].slots)  # coordinate 0 is 1 for every point
    for l, g in enumerate(grids[1:]):
        x = points[:, l] if k == 2 else layout.to_slots(layout.grid(points[None, :, l, None]))
        u += x * g.slots
    dist = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)  # count x k
    scales = ref.ref_pair_scales(centers, bound)
    if k == 2:
        want = (dist[:, 0] - dist[:, 1]) * scales[1, 0]
    else:  # (r, b, c): d_c - d_r, scaled by the pair's scale
        want = layout.to_slots((dist[None, :, :] - dist.T[:, :, None]) * scales[:, None, :])
    assert np.max(np.abs(u - want)) <= 1e-12


def _corners(d, bound):
    """Every corner of [-B, B]^d, one per row."""
    return bound * np.array(np.meshgrid(*[[-1.0, 1.0]] * d, indexing="ij")).reshape(d, -1).T


@pytest.mark.parametrize("k", [2, 3, 8])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_pair_scales_keep_every_difference_in_range_with_its_sign(k, d):
    # a pair's difference is linear in x, so its largest magnitude over the
    # box is at a corner: there the scaled difference reaches 1 and nowhere
    # is it above; and positive scales leave every sign as one scale gives it
    for seed in range(5):
        rng = np.random.default_rng([k, d, seed])
        bound = rng.uniform(0.1, 3.0)
        centers = rng.uniform(-bound, bound, size=(k, d))
        terms = protocol._difference_terms(centers, bound)
        xs = np.concatenate([_corners(d, bound), rng.uniform(-bound, bound, size=(200, d))])
        u = terms[0] + np.einsum("pl,lrc->prc", xs, terms[1:])  # u[p, r, c]
        corner = np.abs(u[: 2**d]).max(axis=0)
        off = ~np.eye(k, dtype=bool)
        assert np.max(np.abs(u)) <= 1.0 + 1e-12
        assert np.allclose(corner[off], 1.0, rtol=0, atol=1e-12)
        dist = ((xs[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)  # p x k
        plain = (dist[:, None, :] - dist[:, :, None]) * protocol._difference_scale(d, bound)  # d_c - d_r
        clear = np.abs(plain) > 1e-9
        assert np.array_equal(np.sign(u[clear]), np.sign(plain[clear]))
        assert np.allclose(pair_scales(centers, bound), ref.ref_pair_scales(centers, bound), rtol=1e-13, atol=0)


def test_coincident_centroids_take_the_global_scale_and_a_zero_difference():
    bound, d = 0.5, 3
    rng = np.random.default_rng(11)
    centers = rng.uniform(-bound, bound, size=(5, d))
    centers[3] = centers[1]
    centers[4, 0] = np.nextafter(0.0, 1.0)  # 5e-324 from the origin: 1 / b overflows
    centers[4, 1:] = 0.0
    centers[2] = 0.0
    scales = pair_scales(centers, bound)
    fallback = protocol._difference_scale(d, bound)
    for r, c in [(1, 3), (3, 1), (2, 4), (4, 2)] + [(j, j) for j in range(5)]:
        assert scales[r, c] == fallback, (r, c)
    assert np.all(np.isfinite(scales)) and np.all(scales >= fallback)
    terms = protocol._difference_terms(centers, bound)
    xs = rng.uniform(-bound, bound, size=(100, d))
    u = terms[0] + np.einsum("pl,lrc->prc", xs, terms[1:])
    assert not np.any(u[:, 1, 3]) and not np.any(u[:, 3, 1])
    assert np.max(np.abs(u)) <= 1.0 + 1e-12


@pytest.mark.parametrize("k", [2, 3, 8, 15])
def test_scaled_grids_are_antisymmetric_bit_for_bit(k):
    # G_l[r, c] == -G_l[c, r] exactly: the mirrored-pair shortcut of the
    # comparison relies on it
    rng = np.random.default_rng(k)
    for d, bound in [(1, 0.5), (2, 1.0), (8, 0.5)]:
        centers = rng.uniform(-bound, bound, size=(k, d))
        centers[-1] = centers[0]
        terms = protocol._difference_terms(centers, bound)
        assert np.array_equal(terms, -terms.transpose(0, 2, 1))
        scales = pair_scales(centers, bound)
        assert np.array_equal(scales, scales.T)


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
        units = len(PackedLayout(k, slot_count=slots).batches(n)[0])
    assert mults[1] - mults[0] == units * rounds


# -- transcript accounting -------------------------------------------------------


def packed_uploads(features, n, k, slot_count):
    """Upload ciphertexts of one party's features: each from a grid row of
    its own, k rows per ciphertext; one feature per ciphertext at k = 2."""
    if k == 2:
        return features * math.ceil(n / slot_count)
    width = slot_count // (k * k) * k
    return math.ceil(features * math.ceil(n / width) / k)


def transcript_checks(res, n, k, d, d_bob, rounds, slot_count):
    tr = res.transcript
    uploads = tr.by_kind(protocol.ENCRYPTED_FEATURES)
    assert sum(m.ciphertext_count for m in uploads) == packed_uploads(d_bob, n, k, slot_count)
    per_round = tr.by_kind(protocol.NOISY_AGGREGATES)
    assert len(per_round) == rounds
    # the d + 1 aggregates share a ciphertext, blocks_per_ct of them each
    assert all(m.ciphertext_count == math.ceil((d + 1) / (slot_count // (k * k))) for m in per_round)
    cents = tr.by_kind(protocol.CENTROIDS)
    assert all(m.byte_size == k * d * 8 for m in cents)


def test_transcript_invariants_two_party():
    pts = uniform_instance(5, n=300, d=3)
    parts = split_features(pts, [[0], [1, 2]])
    res = run(parts[0], parts[1], None, 3, k=4, bound=1.0, seed=1)
    transcript_checks(res, 300, 4, 3, 2, 3, 1 << 14)


@pytest.mark.parametrize("k,n,uploads", [
    (15, 16_200, 1), (15, 16_201, 2), (15, 16_384, 2), (2, 16_384, 1), (8, 16_384, 1),
])
def test_estimate_charges_uploads_at_the_stride(k, n, uploads):
    # at the default 16,384 slots an upload holds k = 15's 16,200 grid
    # slots, and every slot at k = 2 and k = 8
    est = estimate_transcript(n, k, 2, 1, 1)
    assert [m.ciphertext_count for m in est.by_kind(protocol.ENCRYPTED_FEATURES)] == [uploads]


def test_estimator_matches_real_run_exactly():
    # the estimate spreads the uploaded features evenly, as every split here does
    cases = (
        (2, 2, [[0], [1]], protocol.TWO_PARTY),
        (5, 3, [[0, 1], [2]], protocol.TWO_PARTY),
        (3, 4, [[0, 1], [2], [3]], protocol.SERVER_AIDED),
        (3, 4, [[0, 1], [2], [3]], protocol.MPC_SIMULATED),
        (3, 6, [[0, 1], [2, 3], [4, 5]], protocol.SERVER_AIDED),
        (3, 6, [[0, 1], [2, 3], [4, 5]], protocol.MPC_SIMULATED),
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
        assert len(est.messages) == len(res.transcript.messages)


@pytest.mark.parametrize("model", [protocol.SERVER_AIDED, protocol.MPC_SIMULATED])
def test_only_the_key_and_the_key_holders_uploads_are_seeded(model):
    # the key's second polynomial is uniform (under MPC the collective key's
    # common reference polynomial), and so is that of the key holder's
    # encryptions under its secret key; a data owner's uploads and every
    # upload under MPC are encrypted under a public key and sent whole
    n, k, d = 150, 3, 3
    cfg = EngineConfig(slot_count=256, depth_budget=required_depth(k))
    parts = split_features(uniform_instance(60, n=n, d=d), [[0], [1], [2]])
    res = run_multiparty(parts, model, None, 1, k=k, bound=1.0, seed=1, engine=SlotEngine(cfg))
    fresh = ciphertext_size_bytes(cfg.depth_budget, cfg)
    seeded = ciphertext_size_bytes(cfg.depth_budget, cfg, seeded=True)
    tr = res.transcript
    mpc = model == protocol.MPC_SIMULATED
    assert [m.byte_size for m in tr.by_kind(protocol.PUBLIC_KEY)] == [seeded] * (1 if mpc else 2)
    uploads = tr.by_kind(protocol.ENCRYPTED_FEATURES)
    assert [m.sender for m in uploads] == ["party1", "party2"]  # party1 holds the key when one does
    assert all(m.ciphertext_count >= 1 for m in uploads)
    per_ct = [fresh, fresh] if mpc else [seeded, fresh]
    assert [m.byte_size for m in uploads] == [m.ciphertext_count * size for m, size in zip(uploads, per_ct)]
    est = estimate_transcript(n, k, d, d - 1, 1, cfg, parties=3, model=model)
    assert est.messages == tr.messages


def test_estimator_rejects_two_party_model_with_more_parties():
    with pytest.raises(ProtocolError):
        estimate_transcript(500, 3, 3, 1, 3, parties=5, model=protocol.TWO_PARTY)


def test_run_checks_measured_sizes_against_plan(monkeypatch):
    # an aggregate left one level above level 0 is one limb larger than the
    # plan's aggregates; with one spare level, the circuit leaves the counts
    # there
    pts = uniform_instance(3, n=100, d=2)
    parts = split_features(pts, [[0], [1]])
    drop = SlotEngine.drop_to_depth
    dropped = []

    def all_but_the_first(self, v, depth):
        dropped.append(v)
        return v if len(dropped) == 1 else drop(self, v, depth)

    monkeypatch.setattr(SlotEngine, "drop_to_depth", all_but_the_first)
    eng = SlotEngine(EngineConfig(depth_budget=required_depth(3) + 1))
    with pytest.raises(ProtocolError, match="plan"):
        run(parts[0], parts[1], None, 1, k=3, bound=1.0, engine=eng)


@pytest.mark.parametrize("k", [2, 3, 5, 8, 15])
def test_every_aggregate_leaves_the_round_at_the_required_depth(monkeypatch, k):
    # the counts are the aggregate of the constant coordinate: they take the
    # same products as the sums and leave the circuit at the same depth
    d = 2
    parts = split_features(uniform_instance(40 + k, n=150, d=d), [[0], [1]])
    drop = SlotEngine.drop_to_depth
    seen = []

    def record(self, v, depth):
        seen.append(v.depth_consumed)
        return drop(self, v, depth)

    monkeypatch.setattr(SlotEngine, "drop_to_depth", record)
    eng = SlotEngine(EngineConfig(slot_count=1024, depth_budget=required_depth(k)))
    run(parts[0], parts[1], None, 1, k=k, bound=1.0, seed=1, engine=eng)
    # at 1024 slots even k = 15 has 4 blocks, so the d + 1 aggregates leave
    # in one release ciphertext, at the depth of each
    assert seen == [required_depth(k)]


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
    # the d + 1 aggregates fit one release ciphertext at 256 slots
    assert [m.byte_size for m in per_round] == [ciphertext_size_bytes(0, cfg)] * rounds
    assert res.round_depths == [required_depth(k)] * rounds
    est = estimate_transcript(n, k, d, 1, rounds, cfg)
    assert est.total_bytes == res.transcript.total_bytes
    assert est.total_ciphertexts == res.transcript.total_ciphertexts
    assert est.bytes_by_kind() == res.transcript.bytes_by_kind()


class ReleaseRecorder(SlotEngine):
    """An engine that records every decrypted vector: a run decrypts its
    release ciphertexts and nothing else."""

    def __init__(self, config):
        super().__init__(config)
        self.released = []

    def decrypt(self, v):
        out = super().decrypt(v)
        self.released.append(out)
        return out


def check_release(k, slots, split, model, releases, sign=SignApproxConfig()):
    """One noise-free round: ``releases`` ciphertexts, aggregate l (counts
    first) on the k slots from (l % B) * k of release l // B, equal to the
    soft-membership oracle's aggregate, every other slot exactly 0, and the
    measured bytes equal to the plan and to the estimate."""
    n, d = 150, sum(len(cols) for cols in split)
    pts = uniform_instance(50 + k, n=n, d=d)
    cfg = EngineConfig(slot_count=slots, depth_budget=required_depth(k, sign.degree))
    eng = ReleaseRecorder(cfg)
    res = run_multiparty(split_features(pts, split), model, None, 1, k=k, bound=1.0, seed=1, engine=eng, sign=sign)
    per_ct = slots // (k * k)
    assert len(eng.released) == releases == math.ceil((d + 1) / per_ct)
    w = bench._soft_memberships(pts, res.history[0], sign, 1.0)
    want = [w.sum(axis=0), *(w.T @ pts).T]
    got = np.stack(eng.released)
    meaningful = np.zeros(got.shape, dtype=bool)
    for l, aggregate in enumerate(want):
        place = (l // per_ct, slice(l % per_ct * k, (l % per_ct + 1) * k))
        assert np.allclose(got[place], aggregate, rtol=0, atol=1e-6), l
        meaningful[place] = True
    assert not np.any(got[~meaningful])
    per_round = res.transcript.by_kind(protocol.NOISY_AGGREGATES)
    size = releases * ciphertext_size_bytes(0, cfg)
    assert [(m.ciphertext_count, m.byte_size) for m in per_round] == [(releases, size)]
    est = estimate_transcript(n, k, d, d - len(split[0]), 1, cfg, degree=sign.degree, parties=len(split),
                              model=model)
    assert est.messages == res.transcript.messages


@pytest.mark.parametrize("model", [protocol.SERVER_AIDED, protocol.MPC_SIMULATED])
@pytest.mark.parametrize("k, releases", [(7, 4), (5, 2), (3, 1)])
def test_each_aggregate_is_released_on_its_own_slots(k, releases, model):
    # at 64 slots k = 7, 5 and 3 have 1, 2 and 7 blocks per ciphertext
    split = [[0, 1], [2]] if model == protocol.SERVER_AIDED else [[0], [1], [2]]
    check_release(k, 64, split, model, releases)


def test_k8_d8_mpc_releases_one_ciphertext():
    # the shape of mpc-d8-deg127: 256 blocks hold the 9 aggregates
    check_release(8, 1 << 14, [[0, 1], [2, 3], [4, 5], [6, 7]], protocol.MPC_SIMULATED, 1,
                  SignApproxConfig(degree=127, tie_margin=0.05))


@pytest.mark.parametrize("k", [2, 3, 5, 7])
def test_placing_the_aggregates_costs_no_rotation(k, monkeypatch):
    # the same run with every lane sum into lane 0, as a release of one
    # ciphertext per aggregate would sum, takes the same rotations
    parts = split_features(uniform_instance(60 + k, n=150, d=3), [[0], [1, 2]])

    def rotations():
        eng = SlotEngine(EngineConfig(slot_count=64, depth_budget=required_depth(k)))
        run(parts[0], parts[1], None, 1, k=k, bound=1.0, seed=1, engine=eng)
        return eng.stats.rotations

    placed = rotations()
    lane_sum = pm._run_lane_sum
    monkeypatch.setattr(pm, "_run_lane_sum", lambda eng, v, unit, count, lane: lane_sum(eng, v, unit, count, 0))
    assert rotations() == placed


def test_run_checks_released_depths_against_ledger(monkeypatch):
    # a ledger that puts the counts one level below the sums keeps the
    # required depth and every byte total, so only the released depths can
    # expose it
    pts = uniform_instance(3, n=100, d=1)
    parts = split_features(pts, [[], [0]])
    true_depths = protocol.release_depths

    def moved(k, degree):
        t_depth, s_depth = true_depths(k, degree)
        return t_depth - 1, s_depth

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


@pytest.mark.parametrize("k", [1, 0, -3])
def test_depth_ledger_rejects_fewer_than_two_clusters(k):
    for ledger in (release_depths, required_depth):
        with pytest.raises(ProtocolError, match="k must be at least 2"):
            ledger(k)


def test_engine_budget_too_small_rejected():
    pts = uniform_instance(2, n=50, d=2)
    parts = split_features(pts, [[0], [1]])
    eng = SlotEngine(EngineConfig(slot_count=1 << 14, depth_budget=5))
    with pytest.raises(ProtocolError, match="depth budget"):
        run(parts[0], parts[1], None, 1, k=3, bound=1.0, engine=eng)


def test_estimate_rejects_engine_budget_too_small():
    with pytest.raises(ProtocolError, match="depth budget"):
        estimate_transcript(1000, 15, 2, 1, 10, EngineConfig(depth_budget=5))


@pytest.mark.parametrize("d_bob", [0, -1])
def test_estimate_rejects_no_positive_upload(d_bob):
    with pytest.raises(ProtocolError, match="no party besides the computing one holds a feature"):
        estimate_transcript(1000, 5, 2, d_bob, 10)


@pytest.mark.parametrize("change,message", [
    (dict(k=1), "k must be at least 2"),
    (dict(n=0), "no records to cluster"),
    (dict(rounds=-1), "rounds must be non-negative"),
    (dict(split=[[0, 1], []]), "no party besides the computing one holds a feature"),
    (dict(k=200), "k=200 needs 40000 slots"),
    (dict(depth_budget=5), "engine depth budget 5 below required"),
    (dict(split=[[0], [1], [2]], model=protocol.TWO_PARTY), "the two-party model cannot have 3 parties"),
], ids=["k-one", "no-records", "negative-rounds", "nothing-uploaded", "k-block-above-slots",
        "depth-budget-too-small", "two-party-with-three"])
def test_run_and_estimate_refuse_alike(change, message, monkeypatch):
    # one admission check serves both: the same refusal, before any setup
    args = dict(n=40, split=[[0], [1]], k=3, rounds=2, model=protocol.SERVER_AIDED, depth_budget=None)
    args.update(change)
    split = args["split"]
    d = sum(len(cols) for cols in split)
    cfg = None if args["depth_budget"] is None else EngineConfig(depth_budget=args["depth_budget"])
    parts = split_features(uniform_instance(3, n=args["n"], d=d), split)

    def no_setup(*a, **kw):
        raise AssertionError("setup ran")

    monkeypatch.setattr(protocol, "_encrypt_features", no_setup)
    with pytest.raises(ProtocolError, match=message) as refused_run:
        run_multiparty(parts, args["model"], None, args["rounds"], k=args["k"], bound=1.0,
                       engine=cfg and SlotEngine(cfg))
    with pytest.raises(ProtocolError) as refused_estimate:
        estimate_transcript(args["n"], args["k"], d, d - len(split[0]), args["rounds"], cfg=cfg,
                            parties=len(split), model=args["model"])
    assert str(refused_estimate.value) == str(refused_run.value)


@pytest.mark.parametrize("model", [protocol.TWO_PARTY, protocol.MPC_SIMULATED])
def test_numpy_integer_counts_run_exactly_like_ints(model):
    split = [[0], [1]] if model == protocol.TWO_PARTY else [[0], [1], [2]]
    parts = split_features(uniform_instance(4, n=120, d=3)[:, : len(split)], split)
    budget = PrivacyBudget(1.0, 1e-3, 2)

    def outcome(res):
        return ([h.tobytes() for h in res.history], res.round_depths, asdict(res.engine.stats),
                res.transcript.messages)

    want = run_multiparty(parts, model, budget, 2, k=3, bound=1.0, seed=2)
    got = run_multiparty(parts, model, budget, np.int64(2), k=np.int64(3), bound=1.0, seed=2)
    assert outcome(got) == outcome(want)
    assert all(type(m.byte_size) is int for m in got.transcript.messages)
    est = estimate_transcript(np.int32(1000), np.int64(5), np.int64(2), np.uint8(1), np.int16(10),
                              parties=np.int64(2))
    assert est.messages == estimate_transcript(1000, 5, 2, 1, 10).messages


@pytest.mark.parametrize("name", ["k", "rounds"])
@pytest.mark.parametrize("value", [3.0, 1.5, "3", True, np.bool_(True)], ids=["float", "fraction", "str", "bool",
                                                                            "numpy-bool"])
def test_run_refuses_counts_that_are_not_whole_numbers(name, value):
    args = {"k": 3, "rounds": 2, name: value}
    parts = split_features(uniform_instance(3, n=40, d=2), [[0], [1]])
    with pytest.raises(ProtocolError, match=f"^{name} must be a whole number"):
        run_multiparty(parts, protocol.SERVER_AIDED, None, args["rounds"], k=args["k"], bound=1.0)
    with pytest.raises(ProtocolError, match=f"^{name} must be a whole number"):
        run(parts[0], parts[1], None, args["rounds"], k=args["k"], bound=1.0)


@pytest.mark.parametrize("name", ["n", "k", "d", "d_bob", "rounds", "parties"])
@pytest.mark.parametrize("value", [100.5, 2.0, "2", True], ids=["fraction", "float", "str", "bool"])
def test_estimate_refuses_counts_that_are_not_whole_numbers(name, value):
    args = {"n": 100, "k": 3, "d": 2, "d_bob": 1, "rounds": 1, "parties": 2, name: value}
    with pytest.raises(ProtocolError, match=f"^{name} must be a whole number"):
        estimate_transcript(**args)


@pytest.mark.parametrize("degree", [127.0, True, 0, 128, -1, "127"])
def test_estimate_refuses_a_degree_no_comparator_has(degree):
    # the rule of SignApproxConfig: an odd positive whole number
    with pytest.raises(ProtocolError, match="degree must be"):
        estimate_transcript(1000, 5, 2, 1, 10, degree=degree)
    assert estimate_transcript(1000, 5, 2, 1, 10, degree=np.int64(127)).messages == \
        estimate_transcript(1000, 5, 2, 1, 10, degree=127).messages


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
