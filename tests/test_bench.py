import json
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval

import reference_ops as ref
from vpkmeans import bench, protocol
from vpkmeans.bench import (
    BenchError,
    NETWORK_PROFILES,
    NetworkConfig,
    calibrate_size_model,
    cluster_accuracy,
    estimate_wallclock,
    gen_synthetic,
    lloyd_plaintext,
    load_csv,
    normalized_loss,
    recenter,
    run_experiment,
    wallclock_seconds,
)
from vpkmeans.dp_accounting import SCOPE
from vpkmeans.protocol import CentroidSet, Message, Transcript, init_centroids
from vpkmeans.secure_argmin import SignApproxConfig, cmp_series


# -- CSV loading ----------------------------------------------------------------


def test_load_csv_basic(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n")
    ds = load_csv(p)
    assert ds.points.shape == (2, 2)
    assert np.array_equal(ds.points, [[1, 2], [3, 4]])


def test_load_csv_header_and_labels(tmp_path):
    p = tmp_path / "b.csv"
    p.write_text("x,y,label\n0.0,1.0,0\n1.0,0.0,1\n")
    ds = load_csv(p, label_column=2)
    assert ds.points.shape == (2, 2)
    assert np.array_equal(ds.labels, [0, 1])


def test_load_csv_ragged_row(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(BenchError, match="row 2"):
        load_csv(p)


def test_load_csv_non_numeric(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2\n3,oops\n")
    with pytest.raises(BenchError, match="column 2"):
        load_csv(p)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_load_csv_rejects_non_finite(tmp_path, cell):
    p = tmp_path / "e.csv"
    p.write_text(f"1,2\n3,{cell}\n")
    with pytest.raises(BenchError, match="row 2, column 2"):
        load_csv(p)


def test_load_csv_rejects_text_that_is_not_utf8(tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes("x,\xe9t\xe9\n1,2\n".encode("latin-1"))
    with pytest.raises(BenchError, match="not a readable CSV"):
        load_csv(p)


def test_load_csv_rejects_a_cell_past_the_csv_field_limit(tmp_path):
    p = tmp_path / "long.csv"
    p.write_text("1,2\n3," + "4" * 200_000 + "\n")
    with pytest.raises(BenchError, match="not a readable CSV"):
        load_csv(p)


# cells a CSV may hold: numbers of every size, non-finite spellings, blanks,
# header words, quoted commas and arbitrary text
_CELLS = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["", " ", "nan", "NaN", "inf", "-Infinity", "1e400", "-1e400", "x", "label",
                     '"1,2"', '"', "1_000", "0x10"]),
    st.text(max_size=6),
)
_GRIDS = st.tuples(st.lists(st.lists(_CELLS, max_size=5), max_size=8), st.sampled_from(["\n", "\r\n"]))


@settings(max_examples=300, deadline=None)
@example(content=b"1.7e308\n-1.7e308\n", normalize=True, label_column=None)  # range overflows float64
@example(content=b"0\n1\n", normalize=False, label_column=0)  # no feature besides the label
@example(content=b"0.1,1e300\n0.2,0\n", normalize=False, label_column=1)  # label past int64
@given(content=st.one_of(st.binary(max_size=200),
                         _GRIDS.map(lambda g: g[1].join(",".join(r) for r in g[0]).encode())),
       normalize=st.booleans(), label_column=st.none() | st.integers(-1, 5))
def test_load_csv_yields_finite_points_or_bench_error(tmp_path_factory, content, normalize, label_column):
    p = tmp_path_factory.getbasetemp() / "property.csv"
    p.write_bytes(content)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_csv(p, normalize=normalize, label_column=label_column)
    except BenchError:
        return
    assert ds.points.ndim == 2 and ds.n >= 1 and ds.d >= 1
    assert np.all(np.isfinite(ds.points))
    if label_column is not None:
        assert ds.labels.dtype == np.int64 and ds.labels.shape == (ds.n,)


def test_load_csv_normalization(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.uniform(10, 60, size=(200, 2))
    vals[:, 1] = 7.0  # constant feature
    p = tmp_path / "e.csv"
    p.write_text("\n".join(f"{a},{b}" for a, b in vals))
    ds = load_csv(p, normalize=True)
    assert ds.points[:, 0].min() == 0.0
    assert ds.points[:, 0].max() == 1.0
    assert np.array_equal(ds.points[:, 1], np.zeros(200))  # zero-range convention
    # clipping: the top 5% collapse onto the 95th percentile (the new max)
    assert np.mean(ds.points[:, 0] == 1.0) >= 0.05 - 0.02
    r = recenter(ds)
    assert r.bound == 0.5
    assert np.max(np.abs(r.points)) <= 0.5


def test_load_csv_s1_shape(tmp_path):
    # a 5000-row 2-column file loads with n=5000, d=2
    rng = np.random.default_rng(1)
    vals = rng.uniform(0, 9e5, size=(5000, 2))
    p = tmp_path / "s1.csv"
    p.write_text("\n".join(f"{a:.1f},{b:.1f}" for a, b in vals))
    ds = load_csv(p, normalize=True)
    assert ds.n == 5000 and ds.d == 2


# -- synthetic generation ---------------------------------------------------------


def test_gen_synthetic_degenerate_points_equal_centers():
    ds = gen_synthetic(4, 4, 2, 1.0, cluster_std=0.0, seed=3)
    centers = init_centroids(4, 2, 1.0, 3).centers
    assert np.allclose(np.sort(ds.points, axis=0), np.sort(centers, axis=0))


def test_gen_synthetic_reproducible():
    a = gen_synthetic(100, 3, 2, 1.0, 0.05, seed=9)
    b = gen_synthetic(100, 3, 2, 1.0, 0.05, seed=9)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)


def per_cluster_blobs(n, k, d, bound, cluster_std, seed, min_center_dist=None):
    """The dataset built one cluster at a time: a draw per cluster around its
    center, concatenated, clipped and shuffled."""
    centers = init_centroids(k, d, bound, seed, min_separation=min_center_dist).centers
    rng = np.random.default_rng([seed, 0xB10B])
    counts = [n // k + (1 if j < n % k else 0) for j in range(k)]
    pts = [centers[j] + rng.normal(0.0, cluster_std, size=(cnt, d)) for j, cnt in enumerate(counts)]
    labels = np.concatenate([np.full(cnt, j, dtype=np.int64) for j, cnt in enumerate(counts)])
    points = np.clip(np.concatenate(pts), -bound, bound)
    order = rng.permutation(n)
    return points[order], labels[order]


@pytest.mark.parametrize("n,k,d,bound,std,seed,sep", [
    (5000, 15, 2, 0.5, 0.03, 1, 0.24),  # the S1 stand-in
    (200_000, 8, 8, 0.5, 0.05, 1, None),
    (200_000, 8, 8, 0.5, 0.05, 5, None),
    (1003, 7, 3, 1.0, 0.4, 2, None),  # uneven clusters, clipped points
    (9, 3, 2, 1.0, 0.0, 4, None),
])
def test_gen_synthetic_equals_per_cluster_construction(n, k, d, bound, std, seed, sep):
    ds = gen_synthetic(n, k, d, bound, std, seed=seed, min_center_dist=sep)
    points, labels = per_cluster_blobs(n, k, d, bound, std, seed, sep)
    assert np.array_equal(ds.points, points)
    assert np.array_equal(ds.labels, labels) and ds.labels.dtype == np.int64


def test_gen_synthetic_table_shape():
    ds = gen_synthetic(10000, 8, 2, 1.0, 0.05, seed=1)
    assert ds.name == "Synth-10000-8-2"
    assert ds.n == 10000 and ds.d == 2
    assert ds.labels.max() == 7
    assert np.max(np.abs(ds.points)) <= 1.0


@pytest.mark.parametrize("d,bound,std,message", [
    (0, 1.0, 0.05, "at least one feature"),
    (2, 0.0, 0.05, "bound must be positive"),
    (2, -1.0, 0.05, "bound must be positive"),
    (2, 1.0, -1.0, "spread must be non-negative"),
    (2, 1.0, float("nan"), "spread must be non-negative"),
    (2, 1.0, float("inf"), "spread must be non-negative and finite"),
], ids=["no-features", "zero-bound", "negative-bound", "negative-std", "nan-std", "infinite-std"])
def test_gen_synthetic_rejects_impossible_datasets(d, bound, std, message):
    with pytest.raises(BenchError, match=message):
        gen_synthetic(30, 3, d, bound, std, seed=1)


# -- lloyd --------------------------------------------------------------------


def test_lloyd_fixed_point():
    pts = np.array([[0.0], [2.0]])
    init = CentroidSet(np.array([[0.0], [2.0]]), bound=2.0)
    res = lloyd_plaintext(pts, init, 1)
    assert np.array_equal(res.centroids.centers, init.centers)


@pytest.mark.parametrize("rounds", [0, 1])
def test_lloyd_refuses_an_unknown_tie_rule_before_any_round(rounds):
    init = CentroidSet(np.array([[0.0], [2.0]]), bound=2.0)
    with pytest.raises(BenchError, match="unknown tie rule 'x'"):
        lloyd_plaintext(np.array([[0.0], [2.0]]), init, rounds, tie_rule="x")


@pytest.mark.parametrize("rounds, message", [
    (-1, "rounds must be non-negative, got -1"), (2.5, "rounds must be a whole number"),
    (2.0, "rounds must be a whole number"),
    (True, "rounds must be a whole number"), ("1", "rounds must be a whole number"),
], ids=["negative", "fraction", "integral-float", "bool", "str"])
def test_lloyd_refuses_rounds_that_are_not_a_non_negative_whole_number(rounds, message):
    # -1 used to return the initial centroids as a finished run, True to run one round
    init = CentroidSet(np.array([[0.0], [2.0]]), bound=2.0)
    with pytest.raises(BenchError, match=message):
        lloyd_plaintext(np.array([[0.0], [2.0]]), init, rounds)
    assert len(lloyd_plaintext(np.array([[0.0], [2.0]]), init, np.int64(2)).history) == 3


def test_lloyd_counts_the_points_no_cluster_takes():
    pts = np.array([[0.0, 0.0], [0.3, 0.3], [-0.3, -0.3], [0.0, 0.3]])
    three = CentroidSet(np.array([[0.3, 0.3], [-0.3, -0.3], [0.3, -0.3]]), bound=1.0)
    two = CentroidSet(three.centers[:2], bound=1.0)
    # at k = 3, (0, 0) ties between its two closest centroids and takes no indicator
    assert lloyd_plaintext(pts, three, 2, tie_rule=bench.MATCHING).unassigned == [1, 0]
    # at k = 2 the one comparison splits the tie evenly
    weights = bench._soft_memberships(pts, two.centers, SignApproxConfig(), two.bound)
    assert np.array_equal(weights[0], [0.5, 0.5])
    assert lloyd_plaintext(pts, two, 2, tie_rule=bench.MATCHING).unassigned == [0, 0]
    assert lloyd_plaintext(pts, three, 2).unassigned == [0, 0]


def test_lloyd_converges_to_blob_means():
    ds = gen_synthetic(400, 2, 2, 1.0, cluster_std=0.05, seed=4, min_center_dist=1.0)
    init = CentroidSet(init_centroids(2, 2, 1.0, 4, min_separation=1.0).centers, bound=1.0)
    res = lloyd_plaintext(ds, init, 10, seed=4)
    # every learned centroid sits on one of the blob means
    means = np.array([ds.points[ds.labels == j].mean(axis=0) for j in range(2)])
    for c in res.centroids.centers:
        assert np.min(np.linalg.norm(means - c, axis=1)) < 0.02


def test_lloyd_loss_non_increasing():
    ds = gen_synthetic(500, 4, 2, 1.0, cluster_std=0.1, seed=8)
    init = init_centroids(4, 2, 1.0, 123)
    res = lloyd_plaintext(ds, init, 8, seed=123)
    losses = [normalized_loss(ds, c) for c in res.history]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_lloyd_initialized_at_true_centers_is_accurate():
    k, bound = 4, 1.0
    ds = gen_synthetic(800, k, 2, bound, cluster_std=bound / (8 * k), seed=6, min_center_dist=0.5)
    true_centers = init_centroids(k, 2, bound, 6, min_separation=0.5).centers
    res = lloyd_plaintext(ds, CentroidSet(true_centers.copy(), bound=bound), 5, seed=6)
    assert cluster_accuracy(ds, res.centroids) >= 0.99


# -- metrics ------------------------------------------------------------------


def test_loss_zero_when_centroids_cover_points():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert normalized_loss(pts, pts) == 0.0


def test_loss_single_point():
    assert normalized_loss(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]])) == pytest.approx(5.0)


def test_accuracy_perfect_at_true_centers():
    ds = gen_synthetic(600, 3, 2, 1.0, cluster_std=0.02, seed=12, min_center_dist=0.9)
    centers = init_centroids(3, 2, 1.0, 12, min_separation=0.9).centers
    assert cluster_accuracy(ds, centers) == 1.0


def test_accuracy_invariant_under_relabeling_and_reorder():
    ds = gen_synthetic(300, 4, 2, 1.0, cluster_std=0.05, seed=13, min_center_dist=0.7)
    centers = init_centroids(4, 2, 1.0, 13, min_separation=0.7).centers
    base = cluster_accuracy(ds, centers)
    perm = np.array([2, 0, 3, 1])
    relabeled = bench.Dataset(points=ds.points, labels=perm[ds.labels])
    assert cluster_accuracy(relabeled, centers) == base
    assert cluster_accuracy(ds, centers[perm]) == base


def test_accuracy_takes_any_integer_label_ids():
    # 1-based ids (as many CSVs carry them) score as the 0-based ones do
    ds = gen_synthetic(300, 3, 2, 1.0, cluster_std=0.1, seed=15)
    centers = init_centroids(3, 2, 1.0, 15).centers
    base = cluster_accuracy(ds, centers)
    for labels in (ds.labels + 1, 10 * ds.labels - 7):
        assert cluster_accuracy(bench.Dataset(points=ds.points, labels=labels), centers) == base


def test_accuracy_exhaustive_matches_assignment_solver():
    # same optimum from both permutation searches on a k <= 8 instance
    ds = gen_synthetic(300, 6, 2, 1.0, cluster_std=0.15, seed=14)
    centers = init_centroids(6, 2, 1.0, 99).centers
    from itertools import permutations as perms

    diff = ds.points[:, None, :] - centers[None, :, :]
    pred = np.argmin(np.einsum("ijl,ijl->ij", diff, diff), axis=1)
    agree = np.zeros((6, 6))
    for p, l in zip(pred, ds.labels):
        agree[p, l] += 1
    brute = max(sum(agree[c, pi[c]] for c in range(6)) for pi in perms(range(6))) / ds.n
    assert cluster_accuracy(ds, centers) == pytest.approx(brute)

    # the solver against scipy's on count matrices: rectangular ones, zero
    # rows and ties included; integer weights make both totals exact
    from scipy.optimize import linear_sum_assignment

    def scipy_best(weight):
        return weight[linear_sum_assignment(-weight)].sum()

    @st.composite
    def count_matrices(draw):
        rows, cols = draw(st.integers(1, 16)), draw(st.integers(1, 16))
        cells = draw(st.lists(st.integers(0, 6), min_size=rows * cols, max_size=rows * cols))
        weight = np.array(cells, dtype=np.float64).reshape(rows, cols)
        weight[sorted(draw(st.sets(st.integers(0, rows - 1))))] = 0.0
        return weight

    @settings(max_examples=300, deadline=None)
    @given(count_matrices())
    @example(np.zeros((1, 1)))
    @example(np.ones((16, 3)))
    @example(np.ones((3, 16)))
    def solver_matches_scipy(weight):
        assert bench._max_matching(weight) == scipy_best(weight)

    solver_matches_scipy()
    weight = np.random.default_rng(64).integers(0, 1000, size=(64, 64)).astype(np.float64)
    assert bench._max_matching(weight) == scipy_best(weight)


def test_squared_distances_equal_the_broadcast_form():
    # one centroid and one chunk at a time gives the n x k x d form's values
    # bit for bit; 70,001 rows cross the 32,768-row chunk boundary twice
    rng = np.random.default_rng(15)
    for n in (500, 70_001):
        for d in (1, 2, 8):
            pts = rng.uniform(-0.5, 0.5, size=(n, d))
            centers = rng.uniform(-0.5, 0.5, size=(7, d))
            diff = pts[:, None, :] - centers[None, :, :]
            assert np.array_equal(bench._sq_distances(pts, centers), np.einsum("ijl,ijl->ij", diff, diff))


@pytest.mark.parametrize("k,degree,margin", [(3, 1023, 0.01), (8, 127, 0.05), (15, 1023, 0.01)])
def test_soft_memberships_match_every_pair_evaluated(k, degree, margin):
    # the oracle runs the series on the pairs c < r only; evaluating all k^2
    # differences agrees to rounding, exact ties included (points at the
    # origin are equidistant from the mirrored centroids 0 and 1)
    sign = SignApproxConfig(degree=degree, tie_margin=margin)
    rng = np.random.default_rng(k)
    pts = rng.uniform(-0.5, 0.5, size=(400, 2))
    pts[:40] = 0.0
    centers = rng.uniform(-0.5, 0.5, size=(k, 2))
    centers[1] = -centers[0]
    got = bench._soft_memberships(pts, centers, sign, 0.5)

    diff = pts[:, None, :] - centers[None, :, :]
    dist = np.einsum("ijl,ijl->ij", diff, diff)
    # u[i, c, r] = d_c - d_r, scaled by the pair's own scale
    u = np.clip((dist[:, :, None] - dist[:, None, :]) * ref.ref_pair_scales(centers, 0.5), -1.0, 1.0)
    ranks = 0.5 + chebval(u, cmp_series(sign)).sum(axis=2)
    want = np.ones_like(ranks)
    for j in range(2, k + 1):
        want *= (ranks - j) / (1.0 - j)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_accuracy_requires_labels():
    ds = bench.Dataset(points=np.zeros((5, 2)))
    with pytest.raises(BenchError):
        cluster_accuracy(ds, np.zeros((2, 2)))


# -- wall-clock estimator --------------------------------------------------------


def _toy_transcript(nbytes, rounds):
    setup = Message(round=0, sender="b", receiver="a", kind=protocol.ENCRYPTED_FEATURES,
                    byte_size=nbytes, ciphertext_count=1)
    return Transcript([setup] + [
        Message(round=t, sender="a", receiver="b", kind=protocol.NOISY_AGGREGATES, byte_size=0)
        for t in range(1, rounds + 1)
    ])


def test_wallclock_empty_transcript_is_compute_only():
    assert estimate_wallclock(Transcript(), NETWORK_PROFILES["LAN500"], 3.5) == 3.5


@pytest.mark.parametrize("transcript", [Transcript(), _toy_transcript(1000, 2)], ids=["empty", "toy"])
def test_wallclock_rejects_negative_compute_seconds(transcript):
    with pytest.raises(BenchError, match="compute seconds"):
        estimate_wallclock(transcript, NETWORK_PROFILES["LAN500"], -5.0)


def test_wallclock_seconds_rejects_negative_compute_seconds():
    with pytest.raises(BenchError, match="compute seconds"):
        wallclock_seconds(1000, 2, False, NETWORK_PROFILES["LAN500"], -0.5)


@pytest.mark.parametrize("total, rounds, name", [(1000.0, 2, "byte total"), (1000, 2.0, "round count")])
def test_wallclock_seconds_refuses_an_integral_float(total, rounds, name):
    # as protocol.run refuses rounds=2.0; only a JSON config's 2.0 reads as 2
    with pytest.raises(BenchError, match=f"{name} must be a whole number"):
        wallclock_seconds(total, rounds, False, NETWORK_PROFILES["LAN500"])


def test_wallclock_bandwidth_halves_transfer():
    tr = _toy_transcript(10_000_000, 0)
    slow = NetworkConfig("slow", 100, 0.0)
    fast = NetworkConfig("fast", 200, 0.0)
    assert estimate_wallclock(tr, slow, 0.0) == pytest.approx(2 * estimate_wallclock(tr, fast, 0.0))


def test_wallclock_monotone_in_delay_and_bytes():
    base = estimate_wallclock(_toy_transcript(1000, 3), NetworkConfig("n", 100, 10), 0.0)
    more_delay = estimate_wallclock(_toy_transcript(1000, 3), NetworkConfig("n", 100, 30), 0.0)
    more_bytes = estimate_wallclock(_toy_transcript(9000, 3), NetworkConfig("n", 100, 10), 0.0)
    assert more_delay > base and more_bytes > base


def test_wallclock_additive_over_phases():
    net = NetworkConfig("n", 100, 5)
    a = _toy_transcript(5000, 2)
    combined = estimate_wallclock(a, net, 0.0)
    transfer_only = 5000 * 8 / 100e6
    latency_only = (1 + 2) * 2 * 5 / 1000
    assert combined == pytest.approx(transfer_only + latency_only)


def test_table_profiles_present():
    assert len(NETWORK_PROFILES) == 10
    assert NETWORK_PROFILES["ccWAN50"].bandwidth_mbps == 50
    assert NETWORK_PROFILES["LAN10000"].delay_ms == 0.1


# -- experiment driver ------------------------------------------------------------


def smoke_config():
    return {
        "name": "smoke",
        "dataset": {"synthetic": {"n": 400, "k": 3, "d": 2, "bound": 1.0,
                                   "cluster_std": 0.05, "seed": 5, "min_center_dist": 0.7}},
        "k": 3,
        "rounds": 2,
        "budget": {"epsilon": 2.0, "delta": "1/n"},
        "seeds": {"count": 2, "base": 10},
        "network_profiles": ["LAN500", "ccWAN50"],
    }


def test_run_experiment_smoke_sections():
    report = run_experiment(smoke_config())
    assert report["mean"]["secure_loss"] is not None
    assert report["mean"]["secure_accuracy"] is not None
    assert report["dp"]["composition"] == "simple"
    assert report["dp"]["scope"] == SCOPE and "computing party" in SCOPE
    assert len(report["per_seed"]) == 2
    assert set(report["estimated_wallclock_seconds"]) == {"LAN500", "ccWAN50"}
    assert report["transcript"]["bytes"] > 0
    json.dumps(report)  # must be serializable


def test_report_estimates_wallclock_from_one_protocol_run(monkeypatch):
    # every seed's plaintext baseline takes at least 0.2 s here; the estimate
    # charges one run's transcript with the mean protocol time of one seed,
    # which the same loop times, so the three baselines come on top of it
    lloyd = bench.lloyd_plaintext

    def slow_baseline(*args, **kwargs):
        time.sleep(0.2)
        return lloyd(*args, **kwargs)

    monkeypatch.setattr(bench, "lloyd_plaintext", slow_baseline)
    cfg = smoke_config()
    cfg["seeds"] = {"count": 3}
    report = run_experiment(cfg)
    assert report["protocol_seconds"] > 0
    assert 3 * report["protocol_seconds"] + 0.6 <= report["compute_seconds"] + 1e-6
    for name, seconds in report["estimated_wallclock_seconds"].items():
        own = wallclock_seconds(report["transcript"]["bytes"], report["rounds"], False,
                                NETWORK_PROFILES[name], report["protocol_seconds"])
        assert seconds == own


def test_run_experiment_reproducible():
    first = run_experiment(smoke_config())
    second = run_experiment(smoke_config())
    assert first["per_seed"] == second["per_seed"]
    assert first["dp"] == second["dp"]


def test_a_huge_seed_count_reaches_the_first_run_without_a_seed_list(monkeypatch):
    # a count of 10^12 seeds stays a range: the first run starts with no
    # list of seeds or initial centroids built, well under 1 MB of memory
    class FirstRun(Exception):
        pass

    def first_run(*args, **kwargs):
        raise FirstRun(kwargs["seed"])

    monkeypatch.setattr(bench.proto, "run_multiparty", first_run)
    cfg = smoke_config()
    cfg["dataset"]["synthetic"]["n"] = 40
    cfg["seeds"] = {"count": 1e12, "base": 3}
    tracemalloc.start()
    try:
        with pytest.raises(FirstRun) as reached:
            run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reached.value.args == (3,)
    assert peak < 1 << 20, peak


def test_report_bytes_equal_transcript_sum():
    report = run_experiment(smoke_config())
    assert report["transcript"]["bytes"] == sum(report["transcript"]["bytes_by_kind"].values())


def test_run_experiment_validates_config():
    cfg = smoke_config()
    del cfg["dataset"]
    with pytest.raises(BenchError, match="dataset"):
        run_experiment(cfg)
    cfg = smoke_config()
    cfg["network_profiles"] = ["nosuch"]
    with pytest.raises(BenchError, match="nosuch"):
        run_experiment(cfg)


@pytest.mark.parametrize("section,key", [
    ("config", "seedz"), ("budget", "eps"), ("engine", "slots"), ("seeds", "cout"),
    ("dataset.synthetic", "sed"), ("dataset.csv", "normalise"),
])
def test_run_experiment_names_unknown_keys(tmp_path, section, key):
    cfg = smoke_config()
    cfg["engine"] = {}
    if section == "dataset.csv":
        path = tmp_path / "points.csv"
        path.write_text("0.1,0.2\n0.3,0.4\n")
        cfg["dataset"] = {"csv": {"path": str(path)}}
    sections = {"config": cfg, "budget": cfg["budget"], "engine": cfg["engine"], "seeds": cfg["seeds"],
                **{f"dataset.{kind}": spec for kind, spec in cfg["dataset"].items()}}
    sections[section][key] = 1
    with pytest.raises(BenchError, match=f"'{key}'"):
        run_experiment(cfg)


def test_run_experiment_rejects_two_dataset_sources():
    cfg = smoke_config()
    cfg["dataset"]["csv"] = {"path": "points.csv"}
    with pytest.raises(BenchError, match="exactly one"):
        run_experiment(cfg)


def test_calibration_hits_target_exactly():
    target = 17.9e6
    sm = calibrate_size_model(target)  # the reference run: n=1000, k=2, d=2, d_bob=1, 10 rounds
    from vpkmeans.slot_engine import EngineConfig

    cfg = EngineConfig(depth_budget=protocol.required_depth(2), size_model=sm)
    tr = protocol.estimate_transcript(1000, 2, 2, 1, 10, cfg)
    assert tr.total_bytes == pytest.approx(target, rel=1e-6)
