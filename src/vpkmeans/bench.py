"""Experiment harness: datasets, plaintext baselines, metrics, and reporting.

The plaintext Lloyd implementation here doubles as the protocol's oracle.
Its ``matching`` tie rule reproduces the protocol's assignment semantics
exactly -- soft memberships from the same published comparison series and
rank-1 indicator, evaluated per point with plain scalar/numpy arithmetic
(numpy's ``chebval``, independent of the engine's kernel), plus the same
centroid update and re-initialization contracts.  With zero noise and an
exact engine the secure trajectory must match it to float accuracy; points
equidistant (or nearly so, within the comparison's tie margin) from their
two closest centroids activate no indicator on either side and stay
unassigned.  The ``standard`` tie rule is the conventional baseline:
hard argmin, lowest index wins ties.
"""

from __future__ import annotations

import csv as _csv
import math
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import chebval
from scipy.optimize import linear_sum_assignment

from . import protocol as proto
from .dp_accounting import PrivacyBudget
from .protocol import CentroidSet, Transcript, init_centroids, split_features
from .secure_argmin import SignApproxConfig, cmp_series
from .slot_engine import EngineConfig, SizeModel, SlotEngine

STANDARD = "standard"
MATCHING = "matching"


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


@dataclass
class Dataset:
    points: np.ndarray
    labels: np.ndarray | None = None
    name: str = ""
    preprocessing: str = ""
    bound: float | None = None

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def load_csv(path, normalize: bool = False, label_column: int | None = None) -> Dataset:
    """Load a rectangular numeric CSV (header row optional).

    With ``normalize`` each feature is clipped at its 95th percentile and
    min-max scaled into [0, 1]; constant features map to all zeros.
    """
    rows = []
    labels = []
    width = None
    with open(path, newline="") as fh:
        reader = _csv.reader(fh)
        for rno, row in enumerate(reader):
            row = [cell.strip() for cell in row if cell.strip() != ""] if row else []
            if not row:
                continue
            if width is None:
                width = len(row)
                try:
                    [float(c) for c in row]
                except ValueError:
                    continue  # header
            if len(row) != width:
                raise BenchError(f"{path}: row {rno + 1} has {len(row)} cells, expected {width}")
            vals = []
            for cno, cell in enumerate(row):
                try:
                    value = float(cell)
                except ValueError:
                    raise BenchError(f"{path}: non-numeric cell at row {rno + 1}, column {cno + 1}: {cell!r}")
                if not math.isfinite(value):
                    raise BenchError(f"{path}: non-finite cell at row {rno + 1}, column {cno + 1}: {cell!r}")
                vals.append(value)
            rows.append(vals)
    if not rows:
        raise BenchError(f"{path}: no data rows")
    data = np.array(rows)
    lab = None
    if label_column is not None:
        lab = data[:, label_column].astype(np.int64)
        data = np.delete(data, label_column, axis=1)
    note = ""
    if normalize:
        hi = np.percentile(data, 95, axis=0)
        data = np.minimum(data, hi[None, :])
        lo, top = data.min(axis=0), data.max(axis=0)
        span = top - lo
        out = np.zeros_like(data)
        nz = span > 0
        out[:, nz] = (data[:, nz] - lo[nz]) / span[nz]
        data = out
        note = "clipped at 95th percentile, min-max scaled to [0, 1]"
    return Dataset(points=data, labels=lab, name=str(path), preprocessing=note,
                   bound=1.0 if normalize else None)


def recenter(ds: Dataset) -> Dataset:
    """Shift [0, 1] features to [-1/2, 1/2] so the protocol's domain bound
    (and the sum sensitivity 2B) is as tight as possible."""
    return Dataset(points=ds.points - 0.5, labels=ds.labels, name=ds.name,
                   preprocessing=ds.preprocessing + " + recentered to [-0.5, 0.5]",
                   bound=0.5)


def gen_synthetic(
    n: int,
    k: int,
    d: int,
    bound: float,
    cluster_std: float,
    seed: int,
    min_center_dist: float | None = None,
) -> Dataset:
    """Gaussian blobs around k spaced-out centers in [-B, B]^d, clipped to the
    domain, with ground-truth labels; points are split as evenly as possible."""
    if n < k:
        raise BenchError("need at least one point per cluster")
    centers = init_centroids(k, d, bound, seed, min_separation=min_center_dist).centers
    rng = np.random.default_rng([seed, 0xB10B])
    counts = [n // k + (1 if j < n % k else 0) for j in range(k)]
    pts, labs = [], []
    for j, cnt in enumerate(counts):
        pts.append(centers[j] + rng.normal(0.0, cluster_std, size=(cnt, d)))
        labs.append(np.full(cnt, j, dtype=np.int64))
    points = np.clip(np.concatenate(pts), -bound, bound)
    labels = np.concatenate(labs)
    order = rng.permutation(n)
    return Dataset(points=points[order], labels=labels[order],
                   name=f"Synth-{n}-{k}-{d}", preprocessing=f"std={cluster_std}",
                   bound=bound)


# ---------------------------------------------------------------------------
# plaintext Lloyd (baseline and protocol oracle)
# ---------------------------------------------------------------------------


@dataclass
class LloydResult:
    centroids: CentroidSet
    history: list[np.ndarray]
    unassigned: list[int] = field(default_factory=list)


def _sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """n x k squared distances, one centroid at a time: no n x k x d
    temporary, and the same values as the broadcast form."""
    dist = np.empty((points.shape[0], centers.shape[0]))
    for j, c in enumerate(centers):
        diff = points - c
        dist[:, j] = np.einsum("il,il->i", diff, diff)
    return dist


def _soft_memberships(points: np.ndarray, centers: np.ndarray, sign: SignApproxConfig, scale: float) -> np.ndarray:
    """Per-point memberships exactly as the encrypted pipeline computes them:
    scaled squared distances, polynomial comparisons, ranks, indicator."""
    sqrt_s = math.sqrt(scale)
    k = centers.shape[0]
    dist = _sq_distances(points * sqrt_s, centers * sqrt_s)  # n x k, scaled
    coeffs = cmp_series(sign)
    if k == 2:
        a2 = chebval(np.clip(dist[:, 0] - dist[:, 1], -1.0, 1.0), coeffs)
        return np.stack([1.0 - a2, a2], axis=1)
    # the comparison series is c0 plus an odd series, so cmp(-u) = 1 - cmp(u)
    # up to rounding and cmp(0) = c0: only the pairs c < r need the series
    c, r = np.triu_indices(k, 1)
    upper = chebval(np.clip(dist[:, c] - dist[:, r], -1.0, 1.0), coeffs)
    comps = np.empty((dist.shape[0], k, k))  # comps[i, c, r] = cmp(d_c - d_r)
    comps[:, c, r] = upper
    comps[:, r, c] = 1.0 - upper
    comps[:, np.arange(k), np.arange(k)] = coeffs[0]
    ranks = 0.5 + comps.sum(axis=2)  # n x k
    w = np.ones_like(ranks)
    norm = 1.0
    for j in range(2, k + 1):
        w *= ranks - j
        norm *= 1.0 - j
    return w / norm


def lloyd_plaintext(
    data: Dataset | np.ndarray,
    init: CentroidSet,
    rounds: int,
    tie_rule: str = STANDARD,
    sign: SignApproxConfig | None = None,
    seed: int = 0,
) -> LloydResult:
    """Reference Lloyd iteration with the protocol's update policy.

    ``standard``: hard nearest-centroid assignment, lowest index on ties.
    ``matching``: the protocol-equivalent soft assignment described in the
    module docstring, for oracle comparisons against zero-noise runs.
    Both update the centroids with the protocol's
    :func:`~vpkmeans.protocol.update_centroids`: counts below
    ``REINIT_BELOW`` re-initialize the cluster, coordinates clamp to the
    domain.
    """
    points = data.points if isinstance(data, Dataset) else np.asarray(data, dtype=np.float64)
    centers = np.array(init.centers)
    k, d = centers.shape
    bound = init.bound
    sign = sign or SignApproxConfig()
    scale = 1.0 / (d * (2.0 * bound) ** 2)
    history = [np.array(centers)]
    unassigned = []

    for t in range(1, rounds + 1):
        if tie_rule == MATCHING:
            w = _soft_memberships(points, centers, sign, scale)
            counts = w.sum(axis=0)
            sums = w.T @ points  # k x d
            unassigned.append(int(np.sum(w.max(axis=1) < 0.5)))
        elif tie_rule == STANDARD:
            assign = np.argmin(_sq_distances(points, centers), axis=1)
            counts = np.bincount(assign, minlength=k).astype(np.float64)
            sums = np.zeros((k, d))
            np.add.at(sums, assign, points)
            unassigned.append(0)
        else:
            raise BenchError(f"unknown tie rule {tie_rule!r}")

        centers = proto.update_centroids(sums.T, counts, bound, seed, t).centers
        history.append(np.array(centers))

    return LloydResult(CentroidSet(centers, bound=bound), history, unassigned)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def normalized_loss(data: Dataset | np.ndarray, centroids: CentroidSet | np.ndarray) -> float:
    """Mean over points of the squared distance to the nearest centroid."""
    points = data.points if isinstance(data, Dataset) else np.asarray(data)
    centers = centroids.centers if isinstance(centroids, CentroidSet) else np.asarray(centroids)
    return float(_sq_distances(points, centers).min(axis=1).mean())


def cluster_accuracy(data: Dataset, centroids: CentroidSet | np.ndarray, labels=None) -> float:
    """Fraction of points whose nearest centroid matches the ground-truth
    label under the best centroid-to-label bijection (assignment solver)."""
    labels = data.labels if labels is None else np.asarray(labels)
    if labels is None:
        raise BenchError("cluster_accuracy needs ground-truth labels")
    centers = centroids.centers if isinstance(centroids, CentroidSet) else np.asarray(centroids)
    k = centers.shape[0]
    points = data.points if isinstance(data, Dataset) else np.asarray(data)
    pred = np.argmin(_sq_distances(points, centers), axis=1)
    agree = np.zeros((k, k))
    np.add.at(agree, (pred, labels), 1.0)
    rows, cols = linear_sum_assignment(-agree)
    return float(agree[rows, cols].sum()) / points.shape[0]


# ---------------------------------------------------------------------------
# network model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkConfig:
    """A link by its bandwidth and one-way delay, the two numbers
    :func:`wallclock_seconds` reads."""

    name: str
    bandwidth_mbps: float
    delay_ms: float

    def __post_init__(self):
        if self.bandwidth_mbps <= 0:
            raise BenchError("bandwidth must be positive")
        if self.delay_ms < 0:
            raise BenchError("delay must be non-negative")


NETWORK_PROFILES = {
    p.name: p
    for p in [
        NetworkConfig("LAN500", 500, 1),
        NetworkConfig("LAN1000", 1000, 0.3),
        NetworkConfig("LAN10000", 10000, 0.1),
        NetworkConfig("regWAN100", 100, 20),
        NetworkConfig("regWAN250", 250, 15),
        NetworkConfig("regWAN500", 500, 10),
        NetworkConfig("ccWAN50", 50, 150),
        NetworkConfig("ccWAN100", 100, 120),
        NetworkConfig("ccWAN200", 200, 100),
        NetworkConfig("crpWAN500", 500, 50),
    ]
}


def estimate_wallclock(transcript: Transcript, net: NetworkConfig, compute_seconds: float = 0.0) -> float:
    """:func:`wallclock_seconds` of a transcript; an empty one costs only
    the compute time."""
    if not transcript.messages:
        return compute_seconds
    rounds = len({m.round for m in transcript.messages if m.round > 0})
    shares = bool(transcript.by_kind(proto.DECRYPTION_SHARE))
    return wallclock_seconds(transcript.total_bytes, rounds, shares, net, compute_seconds)


def wallclock_seconds(
    total_bytes: int, rounds: int, decryption_shares: bool, net: NetworkConfig,
    compute_seconds: float = 0.0,
) -> float:
    """compute time + transfer time + round-trip latency.

    Transfer is total bytes over the configured bandwidth; each protocol
    round counts as one sequential exchange (two if decryption shares flow
    back), plus one for setup.  Jitter and packet loss are not modelled:
    the estimator targets order-of-magnitude comparisons and has no
    retransmission model.
    """
    bits = total_bytes * 8.0
    transfer = bits / (net.bandwidth_mbps * 1e6)
    exchanges = 1 + (2 if decryption_shares else 1) * rounds
    return compute_seconds + transfer + exchanges * 2.0 * net.delay_ms / 1000.0


# ---------------------------------------------------------------------------
# size-model calibration
# ---------------------------------------------------------------------------


def calibrate_size_model(
    target_bytes: float, n: int, k: int, d: int, d_bob: int, rounds: int,
    slot_count: int = 1 << 14,
) -> SizeModel:
    """Fit bytes-per-slot-per-level so the modeled total for one reference
    configuration hits a measured grand total."""
    unit = SizeModel(bytes_per_slot_per_level=1.0)
    cfg = EngineConfig(slot_count=slot_count, depth_budget=proto.required_depth(k), size_model=unit)
    tr = proto.estimate_transcript(n, k, d, d_bob, rounds, cfg)
    ct_bytes = sum(m.byte_size for m in tr.messages if m.ciphertext_count or m.kind == proto.PUBLIC_KEY)
    plain_bytes = tr.total_bytes - ct_bytes
    b = (target_bytes - plain_bytes) / ct_bytes
    if b <= 0:
        raise BenchError("calibration target smaller than the plaintext share")
    return SizeModel(bytes_per_slot_per_level=b)


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------


def s1_style_config(seed: int = 7, **overrides) -> dict:
    """Synthetic stand-in for the classic 15-cluster 2-d benchmark set:
    5,000 points, well-separated Gaussian blobs, plaintext loss ~0.003."""
    cfg = {
        "name": "S1-synthetic",
        "dataset": {
            "synthetic": {
                "n": 5000, "k": 15, "d": 2, "bound": 0.5,
                "cluster_std": 0.03, "min_center_dist": 0.24, "seed": seed,
            }
        },
        "k": 15,
        "rounds": 10,
        "init_separation": 0.24,
        "budget": {"epsilon": 1.0, "delta": "1/n", "composition": "auto"},
        "seeds": {"count": 10, "base": 100},
        "network_profiles": ["LAN1000", "regWAN100"],
    }
    cfg.update(overrides)
    return cfg


# the keys each section of an experiment config may hold; the dataset
# sections are the keyword arguments of gen_synthetic and load_csv
_CONFIG_KEYS = {
    "config": {"name", "dataset", "k", "rounds", "bound", "feature_split", "model", "budget",
               "sign", "engine", "seeds", "init_separation", "network_profiles", "output"},
    "budget": {"epsilon", "delta", "composition"},
    "engine": {"slot_count", "approx_perturbation", "size_model"},
    "seeds": {"count", "base"},
}


def _check_keys(spec, section: str) -> None:
    if not isinstance(spec, dict):
        raise BenchError(f"{section} must be a JSON object, got {spec!r}")
    unknown = sorted(set(spec) - _CONFIG_KEYS[section])
    if unknown:
        raise BenchError(f"unknown key {unknown[0]!r} in {section}")


def _build_dataset(spec: dict) -> Dataset:
    if not isinstance(spec, dict) or len(spec) != 1 or not set(spec) <= {"synthetic", "csv"}:
        raise BenchError("dataset spec needs exactly one 'synthetic' or 'csv' entry")
    if "synthetic" in spec:
        return gen_synthetic(**{"bound": 1.0, "seed": 0, **spec["synthetic"]})
    c = {"normalize": True, "recenter": True, **spec["csv"]}
    centered = c.pop("recenter") and c["normalize"]
    ds = load_csv(**c)
    return recenter(ds) if centered else ds


def run_experiment(config: dict) -> dict:
    """Run the secure protocol and the plaintext baseline over several seeds
    and assemble the report (metrics, DP parameters, transcript summary,
    wall-clock estimates).

    Every value is parsed before the first run: a missing, unknown or
    malformed key raises ``BenchError``, and a value the protocol cannot run
    raises ``ProtocolError`` before any setup.
    """
    for key in ("dataset", "k", "rounds"):
        if key not in config:
            raise BenchError(f"config is missing required field {key!r}")
    # the objects built here validate their fields: a bad value is a config error
    try:
        _check_keys(config, "config")
        ds = _build_dataset(config["dataset"])
        k = int(config["k"])
        rounds = int(config["rounds"])
        bound = float(config.get("bound", ds.bound if ds.bound else 1.0))
        init_sep = config.get("init_separation")
        init_sep = None if init_sep is None else float(init_sep)

        budget = None
        if config.get("budget"):
            b = config["budget"]
            _check_keys(b, "budget")
            delta = b.get("delta", 1e-5)
            if isinstance(delta, str):
                if delta.strip() != "1/n":
                    raise BenchError(f"unsupported delta spec {delta!r}")
                delta = 1.0 / ds.n
            budget = PrivacyBudget(
                epsilon_total=float(b.get("epsilon", 1.0)),
                delta_total=float(delta),
                rounds=rounds,
                composition=b.get("composition", "auto"),
            )

        sign = SignApproxConfig(**config.get("sign", {}))
        eng_cfg = config.get("engine", {})
        _check_keys(eng_cfg, "engine")
        engine_config = EngineConfig(
            slot_count=int(eng_cfg.get("slot_count", 1 << 14)),
            depth_budget=proto.required_depth(k, sign.degree),
            approx_perturbation=float(eng_cfg.get("approx_perturbation", 0.0)),
            size_model=SizeModel(**eng_cfg.get("size_model", {})),
        )

        seeds_cfg = config.get("seeds", {})
        if isinstance(seeds_cfg, list):
            seeds = [int(s) for s in seeds_cfg]
        else:
            _check_keys(seeds_cfg, "seeds")
            base = int(seeds_cfg.get("base", 0))
            seeds = [base + i for i in range(int(seeds_cfg.get("count", 1)))]
        if not seeds:
            raise BenchError("the config runs no seeds")

        profiles = list(config.get("network_profiles", []))
        for name in profiles:
            if name not in NETWORK_PROFILES:
                raise BenchError(f"unknown network profile {name!r}")
    except (TypeError, ValueError) as exc:
        raise BenchError(f"invalid config: {exc}") from exc

    d = ds.d
    split = config.get("feature_split")
    if split is None:
        cut = (d + 1) // 2
        split = [list(range(cut)), list(range(cut, d))]
    model = config.get("model", proto.TWO_PARTY if len(split) == 2 else proto.SERVER_AIDED)

    per_seed = []
    transcript = None
    dp_info = None
    t0 = time.monotonic()
    for seed in seeds:
        engine = SlotEngine(engine_config, seed=seed)
        parts = split_features(ds.points, split)
        init = init_centroids(k, d, bound, seed, min_separation=init_sep)
        if len(split) == 2 and model == proto.TWO_PARTY:
            result = proto.run(parts[0], parts[1], budget, rounds, k=k, bound=bound,
                               engine=engine, seed=seed, sign=sign, init=init)
        else:
            result = proto.run_multiparty(parts, model, budget, rounds, k=k, bound=bound,
                                          engine=engine, seed=seed, sign=sign, init=init)
        base = lloyd_plaintext(ds, init, rounds, tie_rule=STANDARD, seed=seed)
        entry = {
            "seed": seed,
            "secure_loss": normalized_loss(ds, result.centroids),
            "baseline_loss": normalized_loss(ds, base.centroids),
            "round_depths": result.round_depths,
        }
        if ds.labels is not None:
            entry["secure_accuracy"] = cluster_accuracy(ds, result.centroids)
            entry["baseline_accuracy"] = cluster_accuracy(ds, base.centroids)
        per_seed.append(entry)
        if transcript is None:
            transcript = result.transcript
            if result.round_budget is not None:
                dp_info = {
                    "epsilon_per_round": result.round_budget.epsilon,
                    "delta_per_round": result.round_budget.delta,
                    "composition": result.round_budget.mode,
                    "sigma_sum": result.noise.sigma_sum,
                    "sigma_count": result.noise.sigma_count,
                }
    compute_seconds = time.monotonic() - t0

    def seed_mean(key):
        vals = [e[key] for e in per_seed if key in e]
        return float(np.mean(vals)) if vals else None

    wallclock = {name: estimate_wallclock(transcript, NETWORK_PROFILES[name], compute_seconds)
                 for name in profiles}

    report = {
        "name": config.get("name", ds.name),
        "dataset": {"name": ds.name, "n": ds.n, "d": ds.d, "preprocessing": ds.preprocessing},
        "k": k,
        "rounds": rounds,
        "model": model,
        "per_seed": per_seed,
        "mean": {
            "secure_loss": seed_mean("secure_loss"),
            "baseline_loss": seed_mean("baseline_loss"),
            "secure_accuracy": seed_mean("secure_accuracy"),
            "baseline_accuracy": seed_mean("baseline_accuracy"),
        },
        "dp": dp_info,
        "transcript": transcript.summary(),
        "compute_seconds": compute_seconds,
        "estimated_wallclock_seconds": wallclock,
    }
    return report

