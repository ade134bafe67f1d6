"""Alice/Bob state machines for the private clustering protocol.

One round, run entirely by the computing party (Alice) on encrypted data:

1. distance differences: the argmin only needs d_c - d_r, the scaled
   squared distance to centroid c minus the one to centroid r, which is
   linear in the point: sum_l x_l * G_l + H, where G_l and H are plaintext
   grids built once per round from the centroids.  Every batch of points
   takes one product per feature, with Bob's cached extracted blocks or
   Alice's plaintext encodings of the same shape;
2. packed argmin over every block at once (k = 2 bypasses packing and
   compares the compact differences d_0 - d_1 directly);
3. per-cluster counts and per-dimension sums, added up over the batches
   and ciphertexts and then reduced once per released aggregate (k = 2
   derives cluster 0 from the public n and the round-invariant feature
   totals);
4. every aggregate dropped to level 0, which is free and leaves the
   smallest ciphertext, then Gaussian noise on the meaningful slots;
5. release to the key holder, who decrypts, divides, and returns the next
   plaintext centroids.

The argmin leaves its ranks unmasked: the indicator's folded first-row mask
zeroes the other rows, so k >= 3 spends no level on masking the ranks.

Everything the protocol encrypts is round-invariant, so per-round circuits
always start from fresh or depth-1 cached ciphertexts and the released
centroids structurally refresh the pipeline; no bootstrapping exists in the
engine.  All per-feature arithmetic is accumulated in global feature order,
which makes the final centroids bit-identical under any re-assignment of
features to parties.

Deterministic randomness contracts (mirrored by the plaintext oracle):

* initial centroids: ``init_centroids(k, d, bound, seed)``;
* re-initialization of a cluster with noisy count below ``REINIT_BELOW``
  in round ``t``:
  ``numpy.random.default_rng([seed, t, cluster, 0x7E1]).uniform(-B, B, d)``;
* DP noise: one ``default_rng([seed, 0xD9])`` stream per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import packed_matrix as pm
from . import secure_argmin as sa
from .dp_accounting import NoiseScales, PrivacyBudget, RoundBudget, per_round_budget, perturb_aggregates
from .packed_matrix import COLUMN, ROW, PackedLayout
from .slot_engine import EngineConfig, SlotEngine, SlotVector, ciphertext_size_bytes

COMPUTING = "computing"
KEY_HOLDER = "key-holder"
DATA_OWNER = "data-owner"

PUBLIC_KEY = "public-key"
ENCRYPTED_FEATURES = "encrypted-features"
NOISY_AGGREGATES = "noisy-aggregates"
CENTROIDS = "centroids"
DECRYPTION_SHARE = "decryption-share"

TWO_PARTY = "two-party"
SERVER_AIDED = "server-aided"
MPC_SIMULATED = "mpc-simulated"

SETUP_ROUND = 0  # transcript round index for pre-iteration messages

INIT_MAX_ATTEMPTS = 100  # draws per initial centroid before one is kept regardless

# A noisy count below this re-initializes its cluster.  The margin under 1
# keeps a cluster of exactly one point whole: without noise its count is 1
# up to rounding, and rounding must not decide whether it survives.
REINIT_BELOW = 1.0 - 1e-9


class ProtocolError(Exception):
    pass


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass
class DataPartition:
    """One party's vertical slice of the dataset.

    ``feature_indices`` are the global column positions of this party's
    features in the joint dataset; they default to a contiguous range when
    partitions are assembled via :func:`split_features`.  A partition
    carries no role: :func:`run_multiparty` decides who computes, who holds
    the key and who only uploads.
    """

    owner: str
    features: np.ndarray  # n x d_owner
    feature_indices: tuple[int, ...] = ()

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ProtocolError(f"features for {self.owner!r} must be an n x d matrix")
        if not self.feature_indices:
            self.feature_indices = tuple(range(self.features.shape[1]))
        if len(self.feature_indices) != self.features.shape[1]:
            raise ProtocolError("feature_indices must match the feature count")
        if not np.all(np.isfinite(self.features)):
            raise ProtocolError(f"features for {self.owner!r} contain NaN or infinite values")

    @property
    def n(self) -> int:
        return self.features.shape[0]


def split_features(points: np.ndarray, split: list[list[int]], owners=None) -> list[DataPartition]:
    """Partition the columns of a joint matrix among parties."""
    points = np.asarray(points, dtype=np.float64)
    claimed = [i for cols in split for i in cols]
    if sorted(claimed) != list(range(points.shape[1])):
        raise ProtocolError(f"split {split} is not a partition of {points.shape[1]} features")
    owners = owners or [f"party{i}" for i in range(len(split))]
    return [
        DataPartition(owner=owners[i], features=points[:, cols], feature_indices=tuple(cols))
        for i, cols in enumerate(split)
    ]


@dataclass
class CentroidSet:
    centers: np.ndarray  # k x d
    bound: float

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64)

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def d(self) -> int:
        return self.centers.shape[1]


@dataclass(frozen=True)
class Message:
    round: int
    sender: str
    receiver: str
    kind: str
    byte_size: int
    ciphertext_count: int = 0


@dataclass
class Transcript:
    messages: list[Message] = field(default_factory=list)

    def by_kind(self, kind: str) -> list[Message]:
        return [m for m in self.messages if m.kind == kind]

    @property
    def total_bytes(self) -> int:
        return sum(m.byte_size for m in self.messages)

    @property
    def total_ciphertexts(self) -> int:
        return sum(m.ciphertext_count for m in self.messages)

    def bytes_by_kind(self) -> dict:
        out: dict = {}
        for m in self.messages:
            out[m.kind] = out.get(m.kind, 0) + m.byte_size
        return out

    def summary(self) -> dict:
        return {
            "messages": len(self.messages),
            "ciphertexts": self.total_ciphertexts,
            "bytes": self.total_bytes,
            "bytes_by_kind": self.bytes_by_kind(),
        }


@dataclass
class RunResult:
    centroids: CentroidSet
    transcript: Transcript
    history: list[np.ndarray]  # centers after every round, starting with the init
    round_depths: list[int]
    round_budget: RoundBudget | None
    noise: NoiseScales | None
    engine: SlotEngine


# ---------------------------------------------------------------------------
# initialization and update rules
# ---------------------------------------------------------------------------


def init_centroids(
    k: int,
    d: int,
    bound: float,
    seed: int,
    min_separation: float | None = None,
) -> CentroidSet:
    """Uniform draws in [-B, B]^d, resampling candidates that land within
    ``min_separation`` of an accepted one (default B * sqrt(d) / (2k));
    after ``INIT_MAX_ATTEMPTS`` the candidate is accepted unconditionally."""
    if k < 2:
        raise ProtocolError("k must be at least 2")
    if min_separation is None:
        min_separation = 2 * bound * math.sqrt(d) / (4 * k)
    rng = np.random.default_rng(seed)
    centers: list[np.ndarray] = []
    for _ in range(k):
        for _attempt in range(INIT_MAX_ATTEMPTS):
            c = rng.uniform(-bound, bound, size=d)
            if all(np.linalg.norm(c - prev) >= min_separation for prev in centers):
                break
        centers.append(c)
    return CentroidSet(np.array(centers), bound=bound)


def reinit_draw(seed: int, round_index: int, cluster: int, bound: float, d: int) -> np.ndarray:
    """Replacement centroid for a cluster whose noisy count fell below
    ``REINIT_BELOW``."""
    rng = np.random.default_rng([seed, round_index, cluster, 0x7E1])
    return rng.uniform(-bound, bound, size=d)


def update_centroids(
    noisy_sums: np.ndarray,  # d x k
    noisy_counts: np.ndarray,  # k
    bound: float,
    seed: int,
    round_index: int,
) -> CentroidSet:
    """Divide sums by counts, clamping coordinates to the domain; clusters
    with a noisy count below ``REINIT_BELOW`` are re-initialized uniformly."""
    noisy_sums = np.asarray(noisy_sums, dtype=np.float64)
    noisy_counts = np.asarray(noisy_counts, dtype=np.float64)
    if not (np.all(np.isfinite(noisy_sums)) and np.all(np.isfinite(noisy_counts))):
        raise ProtocolError(f"round {round_index}: released sums or counts are NaN or infinite")
    d, k = noisy_sums.shape
    centers = np.empty((k, d))
    for j in range(k):
        if noisy_counts[j] < REINIT_BELOW:
            centers[j] = reinit_draw(seed, round_index, j, bound, d)
        else:
            centers[j] = np.clip(noisy_sums[:, j] / noisy_counts[j], -bound, bound)
    return CentroidSet(centers, bound=bound)


# ---------------------------------------------------------------------------
# depth ledger
# ---------------------------------------------------------------------------


def release_depths(k: int, degree: int = sa.DEFAULT_DEGREE) -> tuple[int, int]:
    """Depth the round circuit leaves on the counts (T) and sums (S)
    ciphertexts; the run then drops both to level 0 before release."""
    cheb = sa.chebyshev_depth(degree)
    if k == 2:
        a = 1 + cheb  # uploaded feature times G_l, then the comparison series
        return a + 2, a + 2  # valid mask, then the e1 - e0 pack for T; value mult, then pack for S
    # extraction mask, times G_l, cmp, indicator; the ranks stay unmasked,
    # the indicator's folded first-row mask zeroes their partial sums
    a = 2 + cheb + sa.phi_depth(k)
    return a + 1, a + 2  # T: reduce + head mask; S: value mult + reduce + mask


def required_depth(k: int, degree: int = sa.DEFAULT_DEGREE) -> int:
    """Multiplicative depth of one protocol round for k clusters."""
    t_depth, s_depth = release_depths(k, degree)
    return max(t_depth, s_depth)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


@dataclass
class _Batch:
    ct_index: int
    points: np.ndarray  # blocks_per_ct global point ids, -1 for unused
    positions: np.ndarray | None  # aligned batches: source slot of each used block
    tail_items: list[tuple[int, int]]  # (slot within ct, target block)
    valid_mask: np.ndarray | None = None  # slot-space 0/1 over valid blocks, shared


def _plan_batches(n: int, layout: PackedLayout) -> list[_Batch]:
    S = layout.slot_count
    M, B, W = layout.k, layout.blocks_per_ct, layout.width
    usable = layout.usable_slots
    batches = []
    for m in range(math.ceil(n / S)):
        in_ct = min(S, n - m * S)
        aligned = min(in_ct, usable)
        for r_off in range(M):
            for c_off in range(M):
                base = r_off * W + c_off
                if base >= aligned:
                    break
                slots = base + M * np.arange(B)
                positions = slots[slots < aligned]  # the used blocks are a prefix
                points = np.full(B, -1, dtype=np.int64)
                points[: positions.size] = m * S + positions
                batches.append(_Batch(m, points, positions, []))
        # points past the aligned grid are re-packed one by one at setup
        tail = list(range(usable, in_ct))
        for start in range(0, len(tail), B):
            chunk = tail[start : start + B]
            points = np.full(B, -1, dtype=np.int64)
            items = []
            for b, slot in enumerate(chunk):
                points[b] = m * S + slot
                items.append((slot, b))
            batches.append(_Batch(m, points, None, items))
    masks: dict = {}  # the used blocks are a prefix: one mask per used-block count
    for batch in batches:
        used = int(np.count_nonzero(batch.points >= 0))
        if used not in masks:
            g = layout.grid()
            g[:, :used, :] = 1.0
            masks[used] = layout.to_slots(g)
            masks[used].setflags(write=False)
        batch.valid_mask = masks[used]
    return batches


def _unit(slots: int, i: int) -> np.ndarray:
    e = np.zeros(slots)
    e[i] = 1.0
    return e


# ---------------------------------------------------------------------------
# party state
# ---------------------------------------------------------------------------


def _encrypt_features(engine: SlotEngine, columns: dict) -> dict:
    """Setup of every non-computing party: each feature (global index ->
    values) encrypted under the shared key in ``slot_count`` chunks."""
    S = engine.config.slot_count
    return {g: [engine.encrypt(v[m * S : (m + 1) * S]) for m in range(math.ceil(v.size / S))]
            for g, v in columns.items()}


def _difference_terms(centers: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """``G`` (d x k x k) and ``H`` (k x k) with, for every point x,

    scale * (||x - c_c||^2 - ||x - c_r||^2) = sum_l x_l * G[l, r, c] + H[r, c].
    """
    coords = centers.T  # d x k
    g = -2.0 * scale * (coords[:, None, :] - coords[:, :, None])
    norms = scale * np.einsum("jl,jl->j", centers, centers)
    return g, norms[None, :] - norms[:, None]


class _ComputingState:
    """Alice: owns the plaintext side, all encrypted evaluation, and noise.

    ``encodings[l][i]`` is feature ``l`` of unit ``i`` (a batch, or at k = 2
    a compact ciphertext), built once from ``columns`` (every feature's
    values, in global order) and ``encrypted`` (global index -> uploaded
    ciphertexts): the extracted block or uploaded ciphertext of an encrypted
    feature, or Alice's plaintext of the same shape.  Both take the same
    products in the same order.
    """

    def __init__(
        self,
        engine: SlotEngine,
        layout: PackedLayout,
        k: int,
        n: int,
        bound: float,
        sign: sa.SignApproxConfig,
        columns: list,
        encrypted: dict,
    ):
        self.engine = engine
        self.layout = layout
        self.k = k
        self.n = n
        self.d = len(columns)
        self.scale = 1.0 / (self.d * (2.0 * bound) ** 2)
        self.sign = sign
        self.batches = None if k == 2 else _plan_batches(n, layout)
        self.encodings: list = []
        self.compact_valid_masks: list = []  # k = 2: plaintext 0/1 per ciphertext
        self.total_heads: list = []  # k = 2: X_l * e0 per feature
        if k == 2:
            self._cache_compact(columns, encrypted)
        else:
            self._cache_packed(columns, encrypted)

    # -- one-time encoding -------------------------------------------------

    def _extract(self, ct: SlotVector, batch: _Batch) -> SlotVector:
        eng, lay = self.engine, self.layout
        if batch.positions is not None:
            return pm.batch_extract_replicate(eng, ct, batch.positions, lay)
        # tail points: per-point mask and rotate into block-aligned slots
        selected = None
        for slot, block in batch.tail_items:
            single = eng.rotate(eng.mul(ct, eng.plaintext(_unit(eng.config.slot_count, slot))),
                                slot - block * lay.k)
            selected = single if selected is None else eng.add(selected, single)
        filled = pm.repl_no_padding(eng, selected, 0, lay, axis=COLUMN)
        return pm.repl_no_padding(eng, filled, 0, lay, axis=ROW)

    def _cache_packed(self, columns: list, encrypted: dict) -> None:
        lay = self.layout
        for l, values in enumerate(columns):
            if l in encrypted:
                self.encodings.append([self._extract(encrypted[l][b.ct_index], b) for b in self.batches])
                continue
            blocks = []
            for b in self.batches:
                vals = np.where(b.points >= 0, values[np.maximum(b.points, 0)], 0.0)
                blocks.append(self.engine.plaintext(lay.to_slots(lay.grid(vals[None, :, None]))))
            self.encodings.append(blocks)

    def _cache_compact(self, columns: list, encrypted: dict) -> None:
        """Valid-slot masks, every feature's compact encodings, and the
        round-invariant feature totals of both parties."""
        eng = self.engine
        S = eng.config.slot_count
        count = math.ceil(self.n / S)
        full = eng.plaintext(np.ones(S))  # one shared mask for every full ciphertext
        for m in range(count):
            rest = self.n - m * S
            self.compact_valid_masks.append(full if rest >= S else eng.plaintext(np.arange(S) < rest))
        for l, values in enumerate(columns):
            if l in encrypted:
                self.encodings.append(encrypted[l])
            else:
                self.encodings.append([eng.plaintext(values[m * S : (m + 1) * S]) for m in range(count)])
        # X_l * e0: every point's feature l, summed into slot 0, once per run
        e0 = eng.plaintext(_unit(S, 0))
        for cts in self.encodings:
            total = cts[0]
            for ct in cts[1:]:
                total = eng.add(total, ct)
            self.total_heads.append(eng.mul(self._rotsum_all(total), e0))

    # -- per-round circuits -------------------------------------------------

    def _round_grids(self, centroids: CentroidSet) -> tuple[list, SlotVector]:
        """Plaintexts G_l and H of this round's distance differences: entry
        (r, c) of every block, or at k = 2 the compact d_0 - d_1, which is
        entry (1, 0)."""
        g, h = _difference_terms(centroids.centers, self.scale)
        return [self._grid(gl) for gl in g], self._grid(h)

    def _grid(self, t: np.ndarray) -> SlotVector:
        if self.k == 2:
            return self.engine.plaintext(np.full(self.engine.config.slot_count, t[1, 0]))
        return self.engine.plaintext(self.layout.to_slots(self.layout.grid(t[:, None, :])))

    def run_round(self, centroids: CentroidSet):
        """Per unit: u = H + sum_l x_l * G_l, the argmin marker a of u, and
        the products a * x_l, added into the count and sum aggregates, which
        are then reduced once each."""
        eng = self.engine
        grids, h = self._round_grids(centroids)
        t_total = None
        s_totals = [None] * self.d
        for i, xs in enumerate(zip(*self.encodings)):
            u = h
            for x, g in zip(xs, grids):
                u = eng.add(u, eng.mul(x, g))
            if self.k == 2:
                a = sa.argmin_two(eng, u, self.sign)
                marker = eng.mul(a, self.compact_valid_masks[i])
            else:
                a = marker = sa.argmin_packed(eng, u, self.layout, self.sign,
                                              valid_blocks=self.batches[i].valid_mask)
            t_total = marker if t_total is None else eng.add(t_total, marker)
            for l, x in enumerate(xs):
                term = eng.mul(a, x)
                s_totals[l] = term if s_totals[l] is None else eng.add(s_totals[l], term)
        if self.k == 2:
            return self._release_two(t_total, s_totals)
        lay = self.layout
        head = eng.plaintext(lay.head_mask(self.k))
        t_released = eng.mul(pm.reduce_blocks(eng, t_total, lay), head)
        s_released = [eng.mul(pm.reduce_blocks(eng, s, lay), head) for s in s_totals]
        return s_released, t_released

    def _rotsum_all(self, v: SlotVector) -> SlotVector:
        eng = self.engine
        for i in range(int(math.log2(eng.config.slot_count))):
            v = eng.add(v, eng.rotate(v, 1 << i))
        return v

    def _release_two(self, a_total: SlotVector, p_totals: list):
        """k = 2: a marks centroid 1, so A = sum of a * valid and P_l = sum
        of a * x_l belong to cluster 1.  Rotate-and-sum is linear, so it runs
        once per aggregate and round: t2 = rotsum(A), s2_l = rotsum(P_l).
        Cluster 0 is what cluster 1 leaves of the public n and of the
        round-invariant totals X_l, so the release is n*e0 + t2*(e1 - e0)
        and X_l*e0 + s2_l*(e1 - e0).
        """
        eng = self.engine
        S = eng.config.slot_count
        split = eng.plaintext(_unit(S, 1) - _unit(S, 0))
        t_released = eng.add(eng.plaintext(self.n * _unit(S, 0)),
                             eng.mul(self._rotsum_all(a_total), split))
        s_released = [eng.add(head, eng.mul(self._rotsum_all(p), split))
                      for head, p in zip(self.total_heads, p_totals)]
        return s_released, t_released


# ---------------------------------------------------------------------------
# protocol runners
# ---------------------------------------------------------------------------


def _feature_columns(partitions: list[DataPartition]) -> list[np.ndarray]:
    """Every feature's values, in global feature order."""
    d = sum(p.features.shape[1] for p in partitions)
    columns = [None] * d
    for p in partitions:
        for col, gidx in enumerate(p.feature_indices):
            if not 0 <= gidx < d or columns[gidx] is not None:
                raise ProtocolError("feature_indices do not form a partition")
            columns[gidx] = p.features[:, col]
    return columns


def _within(values: np.ndarray, bound: float) -> bool:
    # no full-size |values| temporary; a NaN fails the comparison
    return not values.size or max(values.max(), -values.min()) <= bound + 1e-12


def run(
    alice: DataPartition,
    bob: DataPartition,
    budget: PrivacyBudget | None,
    rounds: int,
    k: int,
    bound: float,
    engine: SlotEngine | None = None,
    seed: int = 0,
    sign: sa.SignApproxConfig | None = None,
    init: CentroidSet | None = None,
    shift_tol: float | None = None,
) -> RunResult:
    """Execute setup plus ``rounds`` iterations between two parties.

    ``alice`` is the computing party (plaintext features), ``bob`` the key
    holder (encrypted features): the server-aided deployment with two
    parties.  See :func:`run_multiparty` for the other arguments.
    """
    return run_multiparty([alice, bob], SERVER_AIDED, budget, rounds, k, bound, engine=engine,
                          seed=seed, sign=sign, init=init, computing_party=alice.owner,
                          shift_tol=shift_tol)


def run_multiparty(
    partitions: list[DataPartition],
    model: str,
    budget: PrivacyBudget | None,
    rounds: int,
    k: int,
    bound: float,
    engine: SlotEngine | None = None,
    seed: int = 0,
    sign: sa.SignApproxConfig | None = None,
    init: CentroidSet | None = None,
    computing_party: str | None = None,
    shift_tol: float | None = None,
) -> RunResult:
    """Execute setup plus ``rounds`` iterations among N parties.

    The roles are decided here and nowhere else.  The computing party
    (Alice) is ``computing_party``, or else the party with the most
    features; the others follow by feature count.  server-aided: the first
    of them holds the key (Bob), and everyone else encrypts under Bob's key
    and uploads.  mpc-simulated: the key is shared by all non-computing
    parties; decryption of each round's aggregates is modeled as one
    additive share per party whose sum is the plaintext, and the computing
    party performs the centroid update itself.

    With ``budget=None`` no noise is added.  With ``shift_tol`` set, the run
    stops early once the largest centroid movement drops below it; the
    privacy split always uses ``budget.rounds``, which must cover
    ``rounds``.  The transcript is :func:`plan_transcript` for the rounds
    executed.  Every round's aggregates are checked against
    :func:`release_depths`, recorded in ``round_depths``, dropped to level 0
    and only then noised and released; the run raises ``ProtocolError`` if a
    circuit depth differs from the ledger or a measured ciphertext size
    differs from the plan.  Arguments the run cannot honour raise
    ``ProtocolError`` before setup.
    """
    if model not in (SERVER_AIDED, MPC_SIMULATED):
        raise ProtocolError(f"unknown deployment model {model!r}")
    if len(partitions) < 2:
        raise ProtocolError("need at least two partitions")
    names = [p.owner for p in partitions]
    if len(set(names)) != len(names):
        raise ProtocolError(f"party names must be unique, got {names}")
    if computing_party is not None and computing_party not in names:
        raise ProtocolError(f"computing party {computing_party!r} is not one of {names}")
    ordered = sorted(partitions, key=lambda p: (p.owner != computing_party, -p.features.shape[1]))
    roles = [COMPUTING, KEY_HOLDER if model == SERVER_AIDED else DATA_OWNER]
    roles += [DATA_OWNER] * (len(ordered) - 2)

    if rounds < 0:
        raise ProtocolError(f"rounds must be non-negative, got {rounds}")
    if budget is not None and budget.rounds < rounds:
        raise ProtocolError(f"{rounds} rounds exceed the {budget.rounds} the privacy budget is split over")
    if not bound > 0:
        raise ProtocolError(f"the domain bound must be positive, got {bound}")
    if k < 2:
        raise ProtocolError("k must be at least 2")
    sign = sign or sa.SignApproxConfig()
    n = ordered[0].n
    if any(p.n != n for p in ordered):
        raise ProtocolError("all parties must hold the same number of records")
    if n == 0:
        raise ProtocolError("no records to cluster")
    for p in ordered:
        if not _within(p.features, bound):
            raise ProtocolError(f"features of {p.owner!r} exceed the domain bound {bound}")
    columns = _feature_columns(ordered)
    d = len(columns)
    uploaded = [g for p in ordered[1:] for g in p.feature_indices]
    if not uploaded:
        raise ProtocolError("no party besides the computing one holds a feature")
    if init is not None and (init.centers.shape != (k, d) or not _within(init.centers, bound)):
        raise ProtocolError(f"init must be {k} x {d} centers inside the domain bound {bound}, "
                            f"got shape {init.centers.shape}")
    depth = required_depth(k, sign.degree)
    if engine is None:
        engine = SlotEngine(EngineConfig(depth_budget=depth))
    elif engine.config.depth_budget < depth:
        raise ProtocolError(
            f"engine depth budget {engine.config.depth_budget} below required {depth} for k={k}"
        )
    if k * k > engine.config.slot_count:
        raise ProtocolError(f"k={k} needs {k * k} slots per block, the engine has {engine.config.slot_count}")
    layout = PackedLayout(k, slot_count=engine.config.slot_count)

    # setup: feature upload, cache building
    encrypted = _encrypt_features(engine, {g: columns[g] for g in uploaded})
    upload_bytes = [
        sum(engine.size_bytes(ct) for g in p.feature_indices for ct in encrypted[g])
        for p in ordered[1:]
        if p.feature_indices
    ]

    alice = _ComputingState(engine, layout, k, n, bound, sign, columns, encrypted)

    round_budget = noise = None
    noise_rng = np.random.default_rng([seed, 0xD9])
    if budget is not None:
        round_budget = per_round_budget(budget)
        noise = NoiseScales.from_budget(round_budget, bound)

    centroids = init or init_centroids(k, d, bound, seed)
    history = [np.array(centroids.centers)]
    round_depths = []
    aggregate_bytes = []
    meaningful = list(range(k))
    ledger = release_depths(k, sign.degree)
    level0 = engine.config.depth_budget

    for t in range(1, rounds + 1):
        s_rel, t_rel = alice.run_round(centroids)
        depths = (t_rel.depth_consumed, tuple(s.depth_consumed for s in s_rel))
        round_depths.append(max((depths[0],) + depths[1]))
        if depths != (ledger[0], (ledger[1],) * d):
            raise ProtocolError(
                f"round {t}: (counts, sums) depths {depths} differ from the depth ledger: "
                f"counts {ledger[0]}, sums {ledger[1]}"
            )
        # every aggregate leaves at level 0: dropping levels is free
        t_rel = engine.drop_to_depth(t_rel, level0)
        s_rel = [engine.drop_to_depth(s, level0) for s in s_rel]
        if noise is not None:
            s_rel, t_rel = perturb_aggregates(engine, s_rel, t_rel, noise, meaningful, noise_rng)
        aggregate_bytes.append(engine.size_bytes(t_rel) + sum(engine.size_bytes(s) for s in s_rel))
        # the key holder decrypts; under MPC the key-share holders each return
        # one additive share whose sum is the plaintext, and reconstruction is
        # exact by simulation contract
        counts = engine.decrypt(t_rel)[:k]
        sums = np.stack([engine.decrypt(s)[:k] for s in s_rel])  # d x k
        centroids = update_centroids(sums, counts, bound, seed, t)
        history.append(np.array(centroids.centers))
        if shift_tol is not None and np.max(np.abs(history[-1] - history[-2])) < shift_tol:
            break

    plan = [(p.owner, role, 0 if role == COMPUTING else len(p.feature_indices))
            for p, role in zip(ordered, roles)]
    transcript = plan_transcript(n, k, d, len(history) - 1, model, engine.config, plan)
    planned_uploads = [m.byte_size for m in transcript.by_kind(ENCRYPTED_FEATURES)]
    planned_aggregates = [m.byte_size for m in transcript.by_kind(NOISY_AGGREGATES)]
    if upload_bytes != planned_uploads or aggregate_bytes != planned_aggregates:
        raise ProtocolError(
            f"measured ciphertext bytes differ from the transcript plan: uploads {upload_bytes} "
            f"against {planned_uploads}, aggregates {aggregate_bytes} against {planned_aggregates}"
        )

    return RunResult(
        centroids=centroids,
        transcript=transcript,
        history=history,
        round_depths=round_depths,
        round_budget=round_budget,
        noise=noise,
        engine=engine,
    )


# ---------------------------------------------------------------------------
# message schedule (no data, exact counts, modeled sizes)
# ---------------------------------------------------------------------------


def plan_transcript(
    n: int,
    k: int,
    d: int,
    rounds: int,
    model: str,
    cfg: EngineConfig,
    parties: list[tuple[str, str, int]],
) -> Transcript:
    """The messages of a run that executes ``rounds`` rounds.

    ``parties`` lists ``(name, role, encrypted feature count)`` per party,
    in the order the run assigned roles.  Setup publishes the key and
    uploads ``ceil(n / slots)`` fresh ciphertexts per encrypted feature;
    every round sends d + 1 aggregate ciphertexts and gets back either the
    k*d plaintext centroid reals or, under MPC, one decryption share per
    key-share holder; finally the centroids reach every data owner.
    Ciphertext sizes come from the engine's size model: uploads and the key
    are fresh, at ``cfg.depth_budget`` levels, and every aggregate is
    released at level 0.
    """
    if model not in (SERVER_AIDED, MPC_SIMULATED):
        raise ProtocolError(f"unknown deployment model {model!r}")
    mpc = model == MPC_SIMULATED
    computing = next(name for name, role, _ in parties if role == COMPUTING)
    key_owner = next((name for name, role, _ in parties if role == KEY_HOLDER), "joint-key")
    others = [(name, role, enc) for name, role, enc in parties if role != COMPUTING]
    fresh = ciphertext_size_bytes(cfg.depth_budget, cfg)
    aggregates = (d + 1) * ciphertext_size_bytes(0, cfg)
    share = math.ceil(aggregates / 2)
    centroids = k * d * 8
    per_feature = math.ceil(n / cfg.slot_count)

    key_receivers = [computing] if mpc else [name for name, _, _ in parties if name != key_owner]
    messages = [Message(SETUP_ROUND, key_owner, name, PUBLIC_KEY, fresh) for name in key_receivers]
    for name, _, enc in others:
        if enc:
            cts = enc * per_feature
            messages.append(Message(SETUP_ROUND, name, computing, ENCRYPTED_FEATURES, cts * fresh, cts))
    for t in range(1, rounds + 1):
        messages.append(Message(t, computing, "broadcast" if mpc else key_owner,
                                NOISY_AGGREGATES, aggregates, d + 1))
        if mpc:
            messages += [Message(t, name, computing, DECRYPTION_SHARE, share) for name, _, _ in others]
        else:
            messages.append(Message(t, key_owner, computing, CENTROIDS, centroids))
    if mpc:
        messages.append(Message(rounds, computing, "broadcast", CENTROIDS, centroids))
    else:
        messages += [Message(rounds, computing, name, CENTROIDS, centroids)
                     for name, role, _ in others if role == DATA_OWNER]
    return Transcript(messages)


def estimate_transcript(
    n: int,
    k: int,
    d: int,
    d_bob: int,
    rounds: int,
    cfg: EngineConfig | None = None,
    degree: int = sa.DEFAULT_DEGREE,
    parties: int = 2,
    model: str = TWO_PARTY,
) -> Transcript:
    """Predict the transcript of a run without executing it.

    The plan of :func:`plan_transcript` with placeholder party names, in
    which one party uploads all ``d_bob`` encrypted features (a run with
    more than two parties sends one upload per party, with the same bytes
    and ciphertexts in total).  ``cfg`` defaults to an engine sized to
    ``required_depth(k, degree)``; a given ``cfg`` is used as it is, as a
    run on an engine with that config would.
    """
    if parties < 2 or (model == TWO_PARTY and parties != 2):
        raise ProtocolError(f"the {model} model cannot have {parties} parties")
    if model == TWO_PARTY:
        model = SERVER_AIDED
    cfg = cfg or EngineConfig(depth_budget=required_depth(k, degree))
    uploader = KEY_HOLDER if model == SERVER_AIDED else DATA_OWNER
    plan = [("computing", COMPUTING, 0), ("keyholder", uploader, d_bob)]
    plan += [(f"party{i}", DATA_OWNER, 0) for i in range(2, parties)]
    return plan_transcript(n, k, d, rounds, model, cfg, plan)
