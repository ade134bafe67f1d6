"""Experiment harness: datasets, plaintext baselines, metrics, and reporting.

The plaintext Lloyd implementation here doubles as the protocol's oracle.
Its ``matching`` tie rule reproduces the protocol's assignment semantics
exactly -- soft memberships from the same published comparison series and
rank-1 indicator, evaluated per point with plain scalar/numpy arithmetic
(numpy's ``chebval``, independent of the engine's kernel), plus the same
centroid update and re-initialization contracts.  With zero noise and an
exact engine the secure trajectory must match it to float accuracy.  At
k >= 3, points equidistant (or nearly so, within the comparison's tie
margin) from their two closest centroids activate no indicator on either
side and stay unassigned; at k = 2 the one comparison splits such a point
evenly between the two.  The ``standard`` tie rule is the conventional
baseline: hard argmin, lowest index wins ties.
"""

from __future__ import annotations

import csv as _csv
import math
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import chebval

from . import protocol as proto
from .dp_accounting import SCOPE, PrivacyBudget
from .protocol import CentroidSet, Transcript, init_centroids, split_features
from .secure_argmin import SignApproxConfig, cmp_series
from .slot_engine import EngineConfig, SizeModel, SlotEngine, whole

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


def _csv_rows(path) -> list[tuple[int, list[str]]]:
    """``(row number, cells)`` for every row of a UTF-8 CSV file that has a
    non-blank cell, blank cells dropped; a file that does not decode or
    parse raises ``BenchError``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [(rno, [cell.strip() for cell in row if cell.strip()])
                    for rno, row in enumerate(_csv.reader(fh), 1)]
    except (UnicodeDecodeError, _csv.Error) as exc:
        raise BenchError(f"{path}: not a readable CSV file: {exc}") from exc
    return [(rno, row) for rno, row in rows if row]


def load_csv(path, normalize: bool = False, label_column: int | None = None) -> Dataset:
    """Load a rectangular numeric CSV (header row optional).

    With ``normalize`` each feature is clipped at its 95th percentile and
    min-max scaled into [0, 1]; constant features map to all zeros.  A
    ``label_column`` that is not a column, is the only column, or holds a
    label that is not a whole int64 raises ``BenchError``, as does a file
    that is not UTF-8 text.
    """
    rows = []
    width = None
    for rno, row in _csv_rows(path):
        if width is None:
            width = len(row)
            try:
                [float(c) for c in row]
            except ValueError:
                continue  # header
        if len(row) != width:
            raise BenchError(f"{path}: row {rno} has {len(row)} cells, expected {width}")
        vals = []
        for cno, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise BenchError(f"{path}: non-numeric cell at row {rno}, column {cno + 1}: {cell!r}")
            if not math.isfinite(value):
                raise BenchError(f"{path}: non-finite cell at row {rno}, column {cno + 1}: {cell!r}")
            vals.append(value)
        rows.append(vals)
    if not rows:
        raise BenchError(f"{path}: no data rows")
    data = np.array(rows)
    lab = None
    if label_column is not None:
        if label_column not in range(width):
            raise BenchError(f"{path}: label column {label_column} is outside the {width} columns")
        lab = data[:, label_column]
        if np.any(lab != np.round(lab)) or np.any(np.abs(lab) >= 2.0 ** 63):
            raise BenchError(f"{path}: label column {label_column} holds a label that is not a whole number "
                             "in the int64 range")
        if width == 1:
            raise BenchError(f"{path}: no feature column besides the label column")
        lab = lab.astype(np.int64)
        data = np.delete(data, label_column, axis=1)
    note = ""
    if normalize:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite span is refused below
            hi = np.percentile(data, 95, axis=0)
            data = np.minimum(data, hi[None, :])
            lo, top = data.min(axis=0), data.max(axis=0)
            span = top - lo
        if not np.all(np.isfinite(span)):
            raise BenchError(f"{path}: a feature's range exceeds the float64 range and cannot be scaled")
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
    domain, with ground-truth labels; points are split as evenly as possible.
    Sizes or spreads no dataset can have raise ``BenchError``."""
    if n < k:
        raise BenchError("need at least one point per cluster")
    if d < 1:
        raise BenchError(f"need at least one feature, got d={d}")
    if not bound > 0:
        raise BenchError(f"the domain bound must be positive, got {bound}")
    if not 0 <= cluster_std < math.inf:
        raise BenchError(f"the cluster spread must be non-negative and finite, got {cluster_std}")
    centers = init_centroids(k, d, bound, seed, min_separation=min_center_dist).centers
    rng = np.random.default_rng([seed, 0xB10B])
    counts = [n // k + (1 if j < n % k else 0) for j in range(k)]
    # one draw for all clusters is the same stream as one draw per cluster,
    # and leaves no per-cluster arrays to concatenate
    points = rng.normal(0.0, cluster_std, size=(n, d))
    start = 0
    for j, cnt in enumerate(counts):
        points[start : start + cnt] += centers[j]
        start += cnt
    np.clip(points, -bound, bound, out=points)
    labels = np.repeat(np.arange(k, dtype=np.int64), counts)
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


# rows or elements per step of the metric and oracle loops: their
# temporaries stay cache-sized whatever the dataset's size
_CHUNK = 1 << 15


def _sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """n x k squared distances, one centroid and 32,768 points at a time: no
    n x k x d or n x d temporary, and the same values as the broadcast form."""
    dist = np.empty((points.shape[0], centers.shape[0]))
    for start in range(0, points.shape[0], _CHUNK):
        block = points[start : start + _CHUNK]
        for j, c in enumerate(centers):
            diff = block - c
            dist[start : start + _CHUNK, j] = np.einsum("il,il->i", diff, diff)
    return dist


def _chebval(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """numpy's ``chebval`` in chunks of 32,768 elements: the same values, but
    the recurrence's temporaries stay cache-sized."""
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    for start in range(0, flat.size, _CHUNK):
        out[start : start + _CHUNK] = chebval(flat[start : start + _CHUNK], coeffs)
    return out.reshape(x.shape)


def _soft_memberships(points: np.ndarray, centers: np.ndarray, sign: SignApproxConfig, bound: float) -> np.ndarray:
    """Per-point memberships exactly as the encrypted pipeline computes them:
    squared distance differences, each pair scaled by its
    :func:`~vpkmeans.protocol.pair_scales` entry, polynomial comparisons,
    ranks, indicator.  The scales are a plaintext formula of the public
    centroids, like the update rule, so sharing it costs the oracle no
    independence."""
    k = centers.shape[0]
    dist = _sq_distances(points, centers)  # n x k
    scales = proto.pair_scales(centers, bound)
    coeffs = cmp_series(sign)
    if k == 2:
        a2 = _chebval(np.clip((dist[:, 0] - dist[:, 1]) * scales[0, 1], -1.0, 1.0), coeffs)
        return np.stack([1.0 - a2, a2], axis=1)
    # the comparison series is c0 plus an odd series, so cmp(-u) = 1 - cmp(u)
    # up to rounding and cmp(0) = c0: only the pairs c < r need the series
    c, r = np.triu_indices(k, 1)
    upper = _chebval(np.clip((dist[:, c] - dist[:, r]) * scales[c, r], -1.0, 1.0), coeffs)
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
    domain.  Any other tie rule, and a ``rounds`` that is not a
    non-negative whole number, raise ``BenchError``, at 0 rounds too.
    ``unassigned`` counts, per round, the points whose memberships all stay
    below 1/2: under ``matching`` at k >= 3 the points (near-)equidistant
    from their two closest centroids; k = 2 splits such a point and
    ``standard`` assigns every point, so both count 0.
    """
    if tie_rule not in (STANDARD, MATCHING):
        raise BenchError(f"unknown tie rule {tie_rule!r}")
    rounds = whole(rounds, "rounds", BenchError)
    if rounds < 0:
        raise BenchError(f"rounds must be non-negative, got {rounds!r}")
    points = data.points if isinstance(data, Dataset) else np.asarray(data, dtype=np.float64)
    centers = np.array(init.centers)
    k, d = centers.shape
    bound = init.bound
    sign = sign or SignApproxConfig()
    history = [np.array(centers)]
    unassigned = []

    for t in range(1, rounds + 1):
        if tie_rule == MATCHING:
            w = _soft_memberships(points, centers, sign, bound)
            counts = w.sum(axis=0)
            sums = w.T @ points  # k x d
            unassigned.append(int(np.sum(w.max(axis=1) < 0.5)))
        else:
            assign = np.argmin(_sq_distances(points, centers), axis=1)
            counts = np.bincount(assign, minlength=k).astype(np.float64)
            sums = np.zeros((k, d))
            np.add.at(sums, assign, points)
            unassigned.append(0)

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


def cluster_accuracy(data: Dataset, centroids: CentroidSet | np.ndarray) -> float:
    """Fraction of points whose nearest centroid matches the ground-truth
    label under the best centroid-to-label matching (assignment solver);
    the labels may be any integer ids."""
    if data.labels is None:
        raise BenchError("cluster_accuracy needs ground-truth labels")
    centers = centroids.centers if isinstance(centroids, CentroidSet) else np.asarray(centroids)
    pred = np.argmin(_sq_distances(data.points, centers), axis=1)
    ids, label_index = np.unique(data.labels, return_inverse=True)
    agree = np.zeros((centers.shape[0], ids.size))
    np.add.at(agree, (pred, label_index), 1.0)
    return _max_matching(agree) / data.n


def _max_matching(weight: np.ndarray) -> float:
    """Largest total weight of a matching of rows to distinct columns, for a
    rectangular matrix: the Hungarian method with potentials, O(n^3) on the
    zero-padded n x n square.

    Row i enters by a shortest augmenting path on the reduced costs
    -gain - u - v, found in one pass per column that the path reaches.
    ``match[j]`` is the row on column j and ``via[j]`` the column before j
    on the path; index 0 is the virtual start, so rows and columns count
    from 1.
    """
    n = max(weight.shape)
    gain = np.zeros((n + 1, n + 1))
    gain[1 : weight.shape[0] + 1, 1 : weight.shape[1] + 1] = weight
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match = np.zeros(n + 1, dtype=np.int64)
    via = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        match[0] = i
        col = 0
        slack = np.full(n + 1, np.inf)
        done = np.zeros(n + 1, dtype=bool)
        while match[col]:
            done[col] = True
            row = match[col]
            reduced = -gain[row] - u[row] - v
            closer = ~done & (reduced < slack)
            slack[closer] = reduced[closer]
            via[closer] = col
            open_slack = np.where(done, np.inf, slack)
            nxt = int(np.argmin(open_slack))
            delta = open_slack[nxt]
            u[match[done]] += delta
            v[done] -= delta
            slack[~done] -= delta
            col = nxt
        while col:
            match[col] = match[via[col]]
            col = via[col]
    return float(gain[match[1:], np.arange(1, n + 1)].sum())


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
    rounds = len({m.round for m in transcript.messages if m.round > 0})
    shares = bool(transcript.by_kind(proto.DECRYPTION_SHARE))
    seconds = wallclock_seconds(transcript.total_bytes, rounds, shares, net, compute_seconds)
    return seconds if transcript.messages else compute_seconds


def wallclock_seconds(
    total_bytes: int, rounds: int, decryption_shares: bool, net: NetworkConfig,
    compute_seconds: float = 0.0,
) -> float:
    """compute time + transfer time + round-trip latency.

    Transfer is total bytes over the configured bandwidth; each protocol
    round counts as one sequential exchange (two if decryption shares flow
    back), plus one for setup.  Jitter and packet loss are not modelled:
    the estimator targets order-of-magnitude comparisons and has no
    retransmission model.  Negative compute seconds, and a byte total or
    round count that is not a non-negative whole number, raise
    ``BenchError``.
    """
    if not compute_seconds >= 0:
        raise BenchError(f"compute seconds must be non-negative, got {compute_seconds}")
    for value, name in ((total_bytes, "byte total"), (rounds, "round count")):
        if whole(value, name, BenchError) < 0:
            raise BenchError(f"{name} must be non-negative, got {value!r}")
    bits = total_bytes * 8.0
    transfer = bits / (net.bandwidth_mbps * 1e6)
    exchanges = 1 + (2 if decryption_shares else 1) * rounds
    return compute_seconds + transfer + exchanges * 2.0 * net.delay_ms / 1000.0


# ---------------------------------------------------------------------------
# size-model calibration
# ---------------------------------------------------------------------------


def calibrate_size_model(target_bytes: float) -> SizeModel:
    """Fit bytes-per-slot-per-level so the modeled total of the fixed
    reference run (n = 1000, k = 2, d = 2 with one uploaded feature, 10
    rounds), on the default engine slots, hits its measured grand total.

    The total is a line in the rate, slope * rate + fixed, where the fixed
    part is the plaintext messages and the seeds; two estimates, at rates 1
    and 2, give both."""
    if not math.isfinite(target_bytes):
        raise BenchError(f"calibration target {target_bytes} is not a finite byte count")

    def total(rate: float) -> int:
        cfg = EngineConfig(depth_budget=proto.required_depth(2), size_model=SizeModel(rate))
        return proto.estimate_transcript(1000, 2, 2, 1, 10, cfg).total_bytes

    at_one = total(1.0)
    slope = total(2.0) - at_one
    b = (target_bytes - (at_one - slope)) / slope
    if b <= 0:
        raise BenchError("calibration target smaller than the plaintext share and the seeds")
    return SizeModel(bytes_per_slot_per_level=b)


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------


def s1_style_config() -> dict:
    """Synthetic stand-in for the classic 15-cluster 2-d benchmark set:
    5,000 points, well-separated Gaussian blobs, plaintext loss ~0.003."""
    return {
        "name": "S1-synthetic",
        "dataset": {
            "synthetic": {
                "n": 5000, "k": 15, "d": 2, "bound": 0.5,
                "cluster_std": 0.03, "min_center_dist": 0.24, "seed": 7,
            }
        },
        "k": 15,
        "rounds": 10,
        "init_separation": 0.24,
        "budget": {"epsilon": 1.0, "delta": "1/n"},
        "seeds": {"count": 10, "base": 100},
        "network_profiles": ["LAN1000", "regWAN100"],
    }


@dataclass(frozen=True)
class _List:
    item: object  # the config type of every item
    noun: str  # what the items are, for an error


# Every key of every section of an experiment config as (type, default), a
# default of ... for a key the config must give.  A type is float (any
# number), int (a whole number), str, bool, a _List, a dict (a section), a
# string (that string only) or a tuple of types (a union).  The dataset
# sections are the keyword arguments of gen_synthetic and load_csv.
_SCHEMA = {
    "name": (str, None),
    "dataset": ({"synthetic": ({"n": (int, ...), "k": (int, ...), "d": (int, ...), "bound": (float, 1.0),
                               "cluster_std": (float, ...), "seed": (int, 0), "min_center_dist": (float, None)}, None),
                 "csv": ({"path": (str, ...), "normalize": (bool, True), "label_column": (int, None)}, None)}, ...),
    "k": (int, ...),
    "rounds": (int, ...),
    "bound": (float, None),
    "feature_split": (_List(_List(int, "column numbers"), "column lists"), None),
    "model": (str, None),
    "budget": ({"epsilon": (float, 1.0), "delta": ((float, "1/n"), 1e-5)}, None),
    "sign": ({"degree": (int, SignApproxConfig.degree), "tie_margin": (float, SignApproxConfig.tie_margin)}, {}),
    "engine": ({"slot_count": (int, EngineConfig.slot_count),
                "size_model": ({"bytes_per_slot_per_level": (float, SizeModel.bytes_per_slot_per_level)}, {})}, {}),
    "seeds": (({"count": (int, 1), "base": (int, 0)}, _List(int, "whole numbers")), {}),
    "init_separation": (float, None),
    "network_profiles": (_List(tuple(NETWORK_PROFILES), "profile names"), []),
    "output": (str, "report.json"),
}

# each scalar config type's exact JSON value types (a bool is no number) and name
_SCALARS = {float: ((int, float), "a number"), int: ((int, float), "a number"),
            str: ((str,), "a string"), bool: ((bool,), "true or false")}


def _noun(kind) -> str:
    if isinstance(kind, (dict, _List)):
        return f"a list of {kind.noun}" if isinstance(kind, _List) else "a JSON object"
    return repr(kind) if isinstance(kind, str) else _SCALARS[kind][1]


def _checked(value, kind, key: str = ""):
    """``value``, at the dotted path ``key`` (empty for the whole config),
    checked against the config type ``kind`` and with its sections' defaults
    filled in; a wrong type or an unknown or missing key is a ``BenchError``."""
    name = key or "config"
    options = kind if isinstance(kind, tuple) else (kind,)
    for kind in options:
        if isinstance(kind, _List) and isinstance(value, list):
            return [_checked(item, kind.item, f"{key}[{i}]") for i, item in enumerate(value)]
        if isinstance(kind, type) and type(value) in _SCALARS[kind][0]:
            if kind is not int:
                return value
            # JSON writes some whole numbers as 2.0
            return whole(int(value) if isinstance(value, float) and value.is_integer() else value, key, BenchError)
        if isinstance(kind, str) and value == kind:
            return value
        if isinstance(kind, dict) and isinstance(value, dict):
            break
    else:
        raise BenchError(f"{name} must be {' or '.join(map(_noun, options))}, got {value!r}")
    unknown = sorted(set(value) - set(kind))
    if unknown:
        raise BenchError(f"unknown key {unknown[0]!r} in {name}")
    section = {}
    for sub, (sub_kind, default) in kind.items():
        if sub not in value and default is ...:
            raise BenchError(f"{name} is missing required field {sub!r}")
        given = value.get(sub, default)
        # null stands for a default of none; anywhere else it has the wrong type
        section[sub] = (None if given is None and default is None
                        else _checked(given, sub_kind, f"{key}.{sub}" if key else sub))
    return section


def _build_dataset(spec: dict) -> Dataset:
    """The dataset of a checked ``dataset`` section: one source, every key given."""
    if [spec.get("synthetic"), spec.get("csv")].count(None) != 1:
        raise BenchError("dataset spec needs exactly one 'synthetic' or 'csv' entry")
    if spec.get("synthetic") is not None:
        return gen_synthetic(**spec["synthetic"])
    csv = spec["csv"]
    ds = load_csv(csv["path"], normalize=csv["normalize"], label_column=csv["label_column"])
    return recenter(ds) if csv["normalize"] else ds


def run_experiment(config: dict) -> dict:
    """Run the secure protocol and the plaintext baseline over several seeds
    and assemble the report (metrics, DP parameters, transcript summary,
    wall-clock estimates).  ``compute_seconds`` times the whole loop over
    the seeds; ``protocol_seconds`` is the mean time of one protocol run,
    which the wall-clock estimates charge with one run's transcript.

    The config is checked against ``_SCHEMA`` before the first run: a
    missing or unknown key or a value of the wrong JSON type raises
    ``BenchError`` naming its dotted path, and a value the protocol cannot
    run raises ``ProtocolError`` through the protocol's admission check,
    before any initial centroid is drawn.  Null means the default
    where the default is none (``budget``: no noise) and is a wrong type
    elsewhere; the one string a number key takes is ``budget.delta``'s
    ``"1/n"``, one over the dataset's size.
    """
    cfg = _checked(config, _SCHEMA)
    # the objects built here validate their fields: a bad value is a config error
    try:
        ds = _build_dataset(cfg["dataset"])
        k, rounds = cfg["k"], cfg["rounds"]
        bound = float((ds.bound or 1.0) if cfg["bound"] is None else cfg["bound"])

        budget = cfg["budget"]
        if budget is not None:
            delta = 1.0 / ds.n if budget["delta"] == "1/n" else float(budget["delta"])
            budget = PrivacyBudget(float(budget["epsilon"]), delta, rounds)

        sign = SignApproxConfig(**cfg["sign"])
        engine_config = EngineConfig(slot_count=cfg["engine"]["slot_count"],
                                     depth_budget=proto.required_depth(k, sign.degree),
                                     size_model=SizeModel(**cfg["engine"]["size_model"]))

        split = cfg["feature_split"]
        if split is None:
            cut = (ds.d + 1) // 2
            split = [list(range(cut)), list(range(cut, ds.d))]
        model = cfg["model"]
        if model is None:
            model = proto.TWO_PARTY if len(split) == 2 else proto.SERVER_AIDED
        # the runs' own admission check, before k initial centroids are drawn
        proto._admit(model, [(f"party{i}", len(cols)) for i, cols in enumerate(split)], None, ds.n, k, rounds,
                     engine_config, sign.degree)

        seeds = cfg["seeds"]
        if isinstance(seeds, dict):  # a range, as its count may be any whole number
            seeds = range(seeds["base"], seeds["base"] + seeds["count"])
        if not seeds:
            raise BenchError("the config runs no seeds")
        # drawn here so that a bound, separation or seed they cannot use fails
        # before any run: the smallest seed is the only one that can fail
        init_centroids(k, ds.d, bound, seeds[0] if isinstance(seeds, range) else min(seeds),
                       min_separation=cfg["init_separation"])
    except (TypeError, ValueError) as exc:
        raise BenchError(f"invalid config: {exc}") from exc

    per_seed = []
    transcript = None
    dp_info = None
    protocol_times = []
    t0 = time.perf_counter()
    for seed in seeds:
        init = init_centroids(k, ds.d, bound, seed, min_separation=cfg["init_separation"])
        engine = SlotEngine(engine_config)
        parts = split_features(ds.points, split)
        started = time.perf_counter()
        result = proto.run_multiparty(parts, model, budget, rounds, k=k, bound=bound,
                                      engine=engine, seed=seed, sign=sign, init=init)
        protocol_times.append(time.perf_counter() - started)
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
                    "scope": SCOPE,
                }
    compute_seconds = time.perf_counter() - t0
    protocol_seconds = float(np.mean(protocol_times))

    def seed_mean(key):
        vals = [e[key] for e in per_seed if key in e]
        return float(np.mean(vals)) if vals else None

    # one run's transfer goes with one run's compute: the mean protocol time
    # per seed, without the other seeds, the baselines or the metrics
    wallclock = {name: estimate_wallclock(transcript, NETWORK_PROFILES[name], protocol_seconds)
                 for name in cfg["network_profiles"]}

    report = {
        "name": ds.name if cfg["name"] is None else cfg["name"],
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
        "protocol_seconds": protocol_seconds,
        "estimated_wallclock_seconds": wallclock,
    }
    return report

