import json
import math

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

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
)
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


def test_gen_synthetic_table_shape():
    ds = gen_synthetic(10000, 8, 2, 1.0, 0.05, seed=1)
    assert ds.name == "Synth-10000-8-2"
    assert ds.n == 10000 and ds.d == 2
    assert ds.labels.max() == 7
    assert np.max(np.abs(ds.points)) <= 1.0


# -- lloyd --------------------------------------------------------------------


def test_lloyd_fixed_point():
    pts = np.array([[0.0], [2.0]])
    init = CentroidSet(np.array([[0.0], [2.0]]), bound=2.0)
    res = lloyd_plaintext(pts, init, 1)
    assert np.array_equal(res.centroids.centers, init.centers)


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


def test_squared_distances_equal_the_broadcast_form():
    # one centroid at a time gives the n x k x d form's values bit for bit
    rng = np.random.default_rng(15)
    for d in (1, 2, 8):
        pts = rng.uniform(-0.5, 0.5, size=(500, d))
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
    scale = 1.0 / (2 * 1.0**2)
    got = bench._soft_memberships(pts, centers, sign, scale)

    diff = (pts[:, None, :] - centers[None, :, :]) * math.sqrt(scale)
    dist = np.einsum("ijl,ijl->ij", diff, diff)
    u = np.clip(dist[:, :, None] - dist[:, None, :], -1.0, 1.0)
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
    assert len(report["per_seed"]) == 2
    assert set(report["estimated_wallclock_seconds"]) == {"LAN500", "ccWAN50"}
    assert report["transcript"]["bytes"] > 0
    json.dumps(report)  # must be serializable


def test_run_experiment_reproducible_with_perturbation():
    cfg = smoke_config()
    cfg["engine"] = {"approx_perturbation": 1e-4}
    first = run_experiment(cfg)["per_seed"]
    second = run_experiment(cfg)["per_seed"]
    assert [e["secure_loss"] for e in first] == [e["secure_loss"] for e in second]


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
    sm = calibrate_size_model(target, n=1000, k=2, d=2, d_bob=1, rounds=10)
    from vpkmeans.slot_engine import EngineConfig

    cfg = EngineConfig(depth_budget=protocol.required_depth(2), size_model=sm)
    tr = protocol.estimate_transcript(1000, 2, 2, 1, 10, cfg)
    assert tr.total_bytes == pytest.approx(target, rel=1e-6)
