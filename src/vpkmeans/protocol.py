"""The private clustering protocol: the computing party's round state
(``_ComputingState``), the two- and N-party drivers, and the depth and
transcript ledgers the runs are checked against.

Setup: every data owner uploads each feature once.  A party lays its
features out one after another in one stream of grid rows, each feature
starting on a row of its own (``PackedLayout.feature_rows``; whole
ciphertexts at k = 2), and encrypts the stream ``usable_slots`` =
blocks_per_ct * k^2 slots per ciphertext (all of ``slot_count`` at every
power-of-two k).  So every point lies on the aligned grid, in its block and
column, and the shifts of the replication schedules are the only rotation
steps a run takes.  For k >= 3 the computing party then takes every uploaded
feature apart once, in the batches of ``PackedLayout.batches(n)``: one
``batch_extract_replicate`` per stream row and column that holds a point,
counted from the feature's first row.

Two kinds of setup message are sent seeded, as one ring polynomial and the
seed of the other (``ciphertext_size_bytes(..., seeded=True)``): the public
key, whose second polynomial is uniform (under MPC the collective key's
common reference polynomial), and the key holder's uploads, which it
encrypts under its own secret key, so that their second polynomial is
uniform too.  Every other data owner, and every party under MPC, encrypts
under a public key and sends both polynomials.

One round, run entirely by the computing party (Alice) on encrypted data:

1. distance differences: with every point read as (1, x_1, ..., x_d) and
   a slot without a point as zeros, the argmin only needs d_c - d_r, the
   squared distance to centroid c minus the one to centroid r, scaled by
   the pair's own bound over the domain (``pair_scales``), which is
   linear: sum_l x_l * G_l, where the G_l are plaintext grids built once
   per round from the centroids.  Every batch of points takes
   one product per coordinate; each coordinate of the batch (Bob's
   extracted blocks, Alice's plaintext values and the used-block mask) is
   kept as one value per block and spread into the layout as the batch is
   processed;
2. packed argmin over every block at once (k = 2 bypasses packing and
   compares the compact differences d_0 - d_1 directly);
3. the d + 1 aggregates sum_i a_i * x_l, counts (l = 0) first and then the
   per-dimension sums, added up over the batches and ciphertexts and then
   reduced once each, straight onto the k slots where it is released
   (``PackedLayout.release_slots``): the first row of block l % B, B =
   ``blocks_per_ct``, zero elsewhere.  For k >= 3 the total is reduced into
   that block and multiplied by its head mask; k = 2 sums every slot into
   the first of the k and splits it with e_{j+1} - e_j, deriving cluster 0
   from the round-invariant coordinate totals (n for the counts), summed
   into the same slot once per run.  A sum costs the same rotations
   whichever lane it goes to.  For k >= 3 the products and sums run on the
   first grid row only, as does the indicator before them, and each total
   is widened with zeros before the reduction.  This is exact: the
   indicator's first-row mask makes the marker a zero on every other slot,
   its products there are zeros, and the reduction carries only the first
   row into the released head (a sum over blocks, i.e. shifts by multiples
   of k that stay inside the row).  A real backend computes every slot,
   with ``SlotEngine.restrict`` and ``widen`` as the identity;
4. the aggregates added into ceil((d + 1) / B) release ciphertexts,
   aggregate l into ciphertext l // B (one on every benchmark workload),
   each dropped to level 0, which is free and leaves the smallest
   ciphertext, then Gaussian noise on the meaningful slots;
5. release to the key holder, who decrypts each release ciphertext once,
   divides, and returns the next plaintext centroids.

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
* DP noise: one ``default_rng([seed, 0xD9])`` stream per run, drawn round
  by round: k ``normal(0, sigma_sum)`` draws for each sum coordinate, in
  coordinate order, then k ``normal(0, sigma_count)`` draws for the counts,
  each set of k added to the k slots of its aggregate in the release
  (``perturb_aggregates``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import packed_matrix as pm
from . import secure_argmin as sa
from .dp_accounting import NoiseScales, PrivacyBudget, RoundBudget, per_round_budget, perturb_aggregates
from .packed_matrix import PackedLayout
from .slot_engine import PLAINTEXT, EngineConfig, SlotEngine, SlotVector, chebyshev_depth, ciphertext_size_bytes, whole

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


def split_features(points: np.ndarray, split: list[list[int]]) -> list[DataPartition]:
    """Partition the columns of a joint matrix among ``party0``, ``party1``, ..."""
    points = np.asarray(points, dtype=np.float64)
    claimed = [i for cols in split for i in cols]
    if sorted(claimed) != list(range(points.shape[1])):
        raise ProtocolError(f"split {split} is not a partition of {points.shape[1]} features")
    return [
        DataPartition(owner=f"party{i}", features=points[:, cols], feature_indices=tuple(cols))
        for i, cols in enumerate(split)
    ]


@dataclass
class CentroidSet:
    centers: np.ndarray  # k x d
    bound: float

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64)


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


def _check_bound(bound: float) -> None:
    """Raise ``ProtocolError`` unless the domain bound B is positive and
    [-B, B] has a finite width."""
    if not 0 < 2.0 * bound < math.inf:
        raise ProtocolError(f"the domain bound must be positive and finite, got {bound}")


def init_centroids(
    k: int,
    d: int,
    bound: float,
    seed: int,
    min_separation: float | None = None,
) -> CentroidSet:
    """Uniform draws in [-B, B]^d, resampling candidates that land within
    ``min_separation`` of an accepted one (default B * sqrt(d) / (2k));
    after ``INIT_MAX_ATTEMPTS`` the candidate is accepted unconditionally.
    A bound that is not positive and finite, a separation that is
    negative, NaN or infinite, a k, d or seed that is not a whole number
    (a numpy integer is one, a bool is not), a d below 1 or a negative
    seed raises ``ProtocolError``."""
    k, d, seed = whole(k, "k", ProtocolError), whole(d, "d", ProtocolError), _seed(seed)
    if k < 2:
        raise ProtocolError("k must be at least 2")
    if d < 1:
        raise ProtocolError(f"d must be at least 1, got {d}")
    _check_bound(bound)
    if min_separation is None:
        min_separation = 2 * bound * math.sqrt(d) / (4 * k)
    elif not 0 <= min_separation < math.inf:
        raise ProtocolError(f"the minimum separation must be a finite non-negative number, got {min_separation}")
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
    """Depth the round circuit leaves on the counts and on the sums
    ciphertexts, a + 2 for both, where a is the argmin marker's depth; the
    run then drops both to level 0 before release.  A k below 2 raises
    ``ProtocolError``."""
    if k < 2:
        raise ProtocolError("k must be at least 2")
    cheb = chebyshev_depth(degree)
    if k == 2:
        a = 1 + cheb  # uploaded feature times G_l, then the comparison series
    else:
        # extraction mask, times G_l, cmp, indicator; the ranks stay unmasked,
        # the indicator's folded first-row mask zeroes their partial sums
        a = 2 + cheb + sa.phi_depth(k)
    return a + 2, a + 2  # times x_l; then the e1 - e0 pack, or reduce and head mask


def required_depth(k: int, degree: int = sa.DEFAULT_DEGREE) -> int:
    """Multiplicative depth of one protocol round for k clusters."""
    return max(release_depths(k, degree))


# ---------------------------------------------------------------------------
# party state
# ---------------------------------------------------------------------------


def _encrypt_features(engine: SlotEngine, columns: list, layout: PackedLayout) -> list:
    """Setup of one non-computing party: its features (each n values) laid
    out one after another in one stream of grid rows, feature j from row
    j * ``layout.feature_rows(n)``, and encrypted under the shared key,
    ``usable_slots`` stream slots per ciphertext (``layout.uploads`` of
    them).  A ciphertext inside one feature's range wraps that feature's
    values as they are, zero-padded; only one that holds parts of two or
    more features is assembled, once."""
    n = columns[0].size
    span = layout.feature_rows(n) * layout.width  # stream slots per feature
    chunk = layout.usable_slots
    uploads = []
    for m in range(layout.uploads(len(columns), n)):
        lo = m * chunk
        # (feature, first, end) of every feature with points in [lo, lo + chunk);
        # a ciphertext starts on a row, so inside a feature's rows it starts below n
        parts = [(j, max(lo - j * span, 0), min(lo + chunk - j * span, n))
                 for j in range(lo // span, min(len(columns), -(-(lo + chunk) // span)))]
        if len(parts) == 1:
            j, first, end = parts[0]
            values = columns[j][first:end]
        else:
            values = np.zeros(engine.config.slot_count)
            for j, first, end in parts:
                values[j * span + first - lo : j * span + end - lo] = columns[j][first:end]
            values.setflags(write=False)  # wrapped without a copy
        uploads.append(engine.encrypt(values))
    return uploads


def _difference_scale(d: int, bound: float) -> float:
    """1 / (d (2B)^2), the scale that keeps every distance difference of d
    features in [-1, 1] whatever the centroids: :func:`pair_scales` falls
    back to it for a pair of coincident centroids, whose difference is 0.
    Raises ``ProtocolError`` when it is not a positive finite float, for a
    bound too small or too large for d."""
    try:
        scale = 1.0 / (d * (2.0 * bound) ** 2)
    except (OverflowError, ZeroDivisionError):
        scale = math.inf
    if not 0 < scale < math.inf:
        raise ProtocolError(f"the domain bound {bound} is too small or too large for {d} features")
    return scale


def _pair_terms(centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unscaled linear form of every pair's distance difference: ``g``
    (d x k x k) and ``h`` (k x k) with, for every point x,

    ||x - c_c||^2 - ||x - c_r||^2 = h[r, c] + sum_l x_l * g[l, r, c].

    Both are antisymmetric bit for bit: a float difference negates exactly
    when its operands swap.
    """
    coords = centers.T  # d x k
    norms = np.einsum("jl,jl->j", centers, centers)
    return -2.0 * (coords[:, None, :] - coords[:, :, None]), norms[None, :] - norms[:, None]


def pair_scales(centers: np.ndarray, bound: float) -> np.ndarray:
    """k x k scales 1 / b_rc, one per centroid pair, from the centroids the
    computing party holds in the clear.

    A pair's difference ||x - c_c||^2 - ||x - c_r||^2 is linear in x, so
    over the box [-B, B]^d its largest magnitude is taken at a corner:
    b_rc = 2B ||c_c - c_r||_1 + | ||c_c||^2 - ||c_r||^2 |, never above the
    d (2B)^2 of :func:`_difference_scale`.  Scaled by 1 / b_rc, every
    point's difference lies in [-1, 1] with its sign unchanged, and a close
    pair's tie margin covers a narrower band of raw distance than under one
    scale for all pairs.  b_rc is computed from the grids' own terms, the
    sum of their magnitudes at |x_l| = B, so the scaled grid stays in
    [-1, 1] up to rounding, and it is symmetric bit for bit, which keeps the
    scaled grid antisymmetric.  Where b is 0 (coincident centroids, the
    diagonal among them) the difference is 0 for every x, and the scale is
    :func:`_difference_scale`'s.
    """
    centers = np.asarray(centers, dtype=np.float64)
    g, h = _pair_terms(centers)
    b = bound * np.abs(g).sum(axis=0) + np.abs(h)
    with np.errstate(divide="ignore", over="ignore"):
        scales = 1.0 / b
    # 1 / b is infinite where b is 0, or subnormal (centroids equal but for rounding)
    return np.where(np.isfinite(scales), scales, _difference_scale(centers.shape[1], bound))


def _difference_terms(centers: np.ndarray, bound: float) -> np.ndarray:
    """``G`` ((d + 1) x k x k) with, for every point x and x_0 = 1,

    s_rc * (||x - c_c||^2 - ||x - c_r||^2) = sum_{l=0..d} x_l * G[l, r, c],

    s = :func:`pair_scales` of the centroids.
    """
    g, h = _pair_terms(centers)
    scales = pair_scales(centers, bound)
    return np.concatenate([(scales * h)[None], scales * g])


class _ComputingState:
    """Alice: owns the plaintext side, all encrypted evaluation, and noise.

    ``units`` counts the batches of ``layout.batches(n)``, or at k = 2 the
    ciphertexts of one uploaded feature, and each cache sets it.
    Coordinate ``l`` of unit ``i`` is what :meth:`_coordinates` returns.
    Coordinate 0 is a plaintext, 1 on the unit's points and 0 elsewhere
    (on the packed path, the blocks whose point is below n); coordinate l > 0 is
    feature l - 1 of ``columns`` (every feature's values, in global order):
    the extracted block or uploaded ciphertext of a feature in ``encrypted``
    (global index -> its party's uploads and the feature's first row in
    them), or Alice's plaintext of the same shape.  All take the same
    products in the same order.

    Kept across rounds, at k = 2: ``encodings[l][i]``, the valid masks, the
    uploaded ciphertexts and Alice's compact plaintexts.  On the packed path
    every slot of a block holds the same value, so ``encodings[l]`` is
    ``(values, depth, kind)``: one units x blocks array of those values,
    with the depth and kind of the vectors they stand for, and row i is
    spread into the layout when unit i is processed.  Each extraction still
    runs on the engine at setup and is read back with
    :meth:`PackedLayout.block_values`, which checks that it is one value per
    block.  A slot vector per unit would cost k^2 slots per point and
    coordinate; keeping the values is a host-only shortcut, and a real
    backend keeps the extracted ciphertexts.
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
        self.bound = bound
        self.sign = sign
        self.encodings: list = []  # per coordinate: its units' encodings, or (values, depth, kind)
        self.heads: list = []  # k = 2: the total X_l of coordinate l, times e0
        if k == 2:
            self._cache_compact(columns, encrypted)
        else:
            self._cache_packed(columns, encrypted)

    # -- one-time encoding -------------------------------------------------

    def _cache_packed(self, columns: list, encrypted: dict) -> None:
        """Every coordinate's block values, one row per batch of
        ``layout.batches(n)``, the used-block mask first."""
        rows, cols, points = self.layout.batches(self.n)
        self.units = len(rows)
        used = points < self.n
        self.encodings.append((used.astype(np.float64), 0, PLAINTEXT))
        for l, values in enumerate(columns):
            if l in encrypted:
                self.encodings.append(self._extract(*encrypted[l], rows, cols, used.sum(axis=1)))
            else:
                self.encodings.append((np.where(used, values[np.minimum(points, self.n - 1)], 0.0), 0, PLAINTEXT))

    def _extract(self, uploads: list, first: int, rows: np.ndarray, cols: np.ndarray, counts: np.ndarray) -> tuple:
        """The batches of a feature uploaded from row ``first`` of its
        party's ``uploads``, extracted on the engine, each slot vector read
        back as its block values and dropped.  Batch row ``g`` is stream row
        ``g + first``, with every block and column kept."""
        values = np.empty((self.units, self.layout.blocks_per_ct))
        for i, (g, col, count) in enumerate(zip(rows.tolist(), cols.tolist(), counts.tolist())):
            m, row = divmod(g + first, self.k)
            ct = pm.batch_extract_replicate(self.engine, uploads[m], row, col, count, self.layout)
            values[i] = self.layout.block_values(ct.slots)
        # every extraction is one product of a fresh upload: one depth and kind
        return values, ct.depth_consumed, ct.kind

    def _cache_compact(self, columns: list, encrypted: dict) -> None:
        """Every coordinate's compact encodings, valid-slot masks first, and
        the round-invariant coordinate totals of both parties."""
        eng = self.engine
        S = eng.config.slot_count
        chunk = self.layout.usable_slots  # the upload chunk: every slot at k = 2
        self.units = self.layout.uploads(1, self.n)
        full = eng.plaintext(np.ones(chunk))  # one shared mask for every full ciphertext
        masks = []
        for m in range(self.units):
            rest = self.n - m * chunk
            masks.append(full if rest >= chunk else eng.plaintext(np.arange(chunk) < rest))
        self.encodings.append(masks)
        for l, values in enumerate(columns):
            if l in encrypted:
                uploads, first = encrypted[l]  # a feature takes whole ciphertexts at k = 2
                self.encodings.append(uploads[first // self.k : first // self.k + self.units])
            else:
                self.encodings.append([eng.plaintext(values[m * chunk : (m + 1) * chunk])
                                       for m in range(self.units)])
        # X_l * e_j: every point's coordinate l summed into slot j, the first
        # release slot of aggregate l, once per run; X_0 = n and j = 0
        self.heads.append(eng.plaintext(pm._constant(S, 0, self.n)))
        for cts, j in zip(self.encodings[1:], self._release_starts()[1:]):
            total = cts[0]
            for ct in cts[1:]:
                total = eng.add(total, ct)
            self.heads.append(eng.mul(pm._run_lane_sum(eng, total, 1, S, j), eng.plaintext(pm._constant(S, j, 1.0))))

    def _release_starts(self) -> list:
        """The first release slot of each aggregate, counts first."""
        return self.layout.release_slots(self.d + 1)[1][:, 0].tolist()

    # -- per-round circuits -------------------------------------------------

    def _coordinates(self, i: int) -> list:
        """Coordinates 0 .. d of unit ``i``; on the packed path spread from
        their block values now, at their depth and kind."""
        if self.k == 2:
            return [units[i] for units in self.encodings]
        return [SlotVector(self.layout.spread(values[i]), depth, kind) for values, depth, kind in self.encodings]

    def _round_grids(self, centroids: CentroidSet) -> list:
        """Plaintexts G_0 .. G_d of this round's distance differences: entry
        (r, c) of every block, or at k = 2 the compact d_0 - d_1, which is
        entry (1, 0), each pair scaled by its own :func:`pair_scales` entry.
        The scales come from the centroids alone, which the computing party
        holds, so they cost no level, product or rotation, and the grids
        stay antisymmetric bit for bit: the argmin's mirrored-pair shortcut
        holds."""
        return [self._grid(gl) for gl in _difference_terms(centroids.centers, self.bound)]

    def _grid(self, t: np.ndarray) -> SlotVector:
        if self.k == 2:
            return self.engine.plaintext(np.full(self.engine.config.slot_count, t[1, 0]))
        return self.engine.plaintext(self.layout.to_slots(self.layout.grid(t[:, None, :])))

    def run_round(self, centroids: CentroidSet) -> list:
        """Per unit: u = sum_l x_l * G_l, the argmin marker a of u, and the
        products a * x_l, added into the d + 1 aggregates (counts first),
        which are then reduced once each into the slots where
        :meth:`PackedLayout.release_slots` places them: aggregate l on the k
        slots from (l % B) * k, B = ``blocks_per_ct``, and zero on every
        other slot.  An unused block has u = 0, and its marker is
        multiplied by x_0 = 0.  For k >= 3 the marker is 0 past the first
        grid row, so the products and sums run on that row
        (``SlotEngine.restrict``) and each total is widened once."""
        eng = self.engine
        grids = self._round_grids(centroids)
        totals = [None] * (self.d + 1)
        for i in range(self.units):
            xs = self._coordinates(i)
            u = eng.mul(xs[0], grids[0])
            for x, g in zip(xs[1:], grids[1:]):
                u = eng.add(u, eng.mul(x, g))
            if self.k == 2:
                a = sa.argmin_two(eng, u, self.sign)
            else:
                width = self.layout.width
                a = eng.restrict(sa.argmin_packed(eng, u, self.layout, self.sign), width)
                xs = [eng.restrict(x, width) for x in xs]
            for l, x in enumerate(xs):
                term = eng.mul(a, x)
                totals[l] = term if totals[l] is None else eng.add(totals[l], term)
        starts = self._release_starts()
        if self.k == 2:
            # a marks centroid 1, so P_l = sum of a * x_l belongs to cluster
            # 1, and cluster 0 is what it leaves of the round-invariant total
            # X_l: from release slot j, the release is X_l*e_j +
            # rotsum_j(P_l)*(e_{j+1} - e_j), with one rotate-and-sum per
            # aggregate and round, as rotsum is linear; rotsum_j sums all S
            # slots into slot j, run like the packed lane sums
            S = eng.config.slot_count
            return [eng.add(head, eng.mul(pm._run_lane_sum(eng, p, 1, S, j),
                                          eng.plaintext(pm._constant(S, slice(j, j + 2), (-1.0, 1.0)))))
                    for head, p, j in zip(self.heads, totals, starts)]
        return [eng.mul(pm.reduce_blocks(eng, eng.widen(v), self.layout, j // self.k),
                        eng.plaintext(self.layout.head_mask(j // self.k)))
                for v, j in zip(totals, starts)]


# ---------------------------------------------------------------------------
# protocol runners
# ---------------------------------------------------------------------------


def _feature_columns(partitions: list[DataPartition]) -> list[np.ndarray]:
    """Every feature's values, in global feature order, as read-only views:
    the engine wraps a contiguous full ciphertext's worth without a copy."""
    d = sum(p.features.shape[1] for p in partitions)
    columns = [None] * d
    for p in partitions:
        for col, gidx in enumerate(p.feature_indices):
            if not 0 <= gidx < d or columns[gidx] is not None:
                raise ProtocolError("feature_indices do not form a partition")
            columns[gidx] = p.features[:, col]
            columns[gidx].setflags(write=False)
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
) -> RunResult:
    """Execute setup plus ``rounds`` iterations between two parties:
    :func:`run_multiparty` under the two-party model, with its admission.
    ``alice`` is the computing party (plaintext features), ``bob`` the key
    holder (encrypted features)."""
    return run_multiparty([alice, bob], TWO_PARTY, budget, rounds, k, bound, engine=engine,
                          seed=seed, sign=sign, init=init)


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
) -> RunResult:
    """Execute setup plus ``rounds`` iterations among N parties.

    The computing party (Alice) is ``computing_party``, else the first
    party under two-party (server-aided with two parties) and the party
    with the most features otherwise; the others follow by feature count.
    server-aided: the first of them holds the key (Bob), and everyone else
    encrypts under Bob's key and uploads.  mpc-simulated: the key is shared
    by all non-computing parties; decryption of each round's aggregates is
    modeled as one additive share per party whose sum is the plaintext, and
    the computing party performs the centroid update itself.

    The run executes exactly ``rounds`` rounds.  With ``budget=None`` no
    noise is added; otherwise the privacy split uses ``budget.rounds``,
    which must cover ``rounds``.  The budget's (epsilon, delta) covers what
    the key holder and the data owners see.  It does not cover the
    computing party, which samples the noise, nor CKKS decryption error,
    which the simulated engine does not model.  The transcript is
    :func:`plan_transcript` for the run.  Every round's aggregates are
    checked against :func:`release_depths`, recorded in ``round_depths``,
    dropped to level 0 and only then noised and released; the run raises
    ``ProtocolError`` if a circuit depth differs from the ledger or a
    measured ciphertext size differs from the plan.

    Admission: a run that cannot happen raises ``ProtocolError`` before
    setup.  The checks on model, parties, k, n, rounds, comparator degree,
    uploads and engine are one function shared with
    :func:`estimate_transcript`, so both refuse alike; the checks on names,
    data, bound, budget, seed and ``init`` (k x d centers at the run's
    bound and inside it) are the run's own.
    """
    names = [p.owner for p in partitions]
    if len(set(names)) != len(names):
        raise ProtocolError(f"party names must be unique, got {names}")
    if computing_party is not None and computing_party not in names:
        raise ProtocolError(f"computing party {computing_party!r} is not one of {names}")
    n = partitions[0].n if partitions else 0
    if any(p.n != n for p in partitions):
        raise ProtocolError("all parties must hold the same number of records")
    sign = sign or sa.SignApproxConfig()
    cfg, plan, n, k, rounds = _admit(model, [(p.owner, p.features.shape[1]) for p in partitions],
                                     computing_party, n, k, rounds,
                                     engine.config if engine is not None else None, sign.degree)
    ordered = [partitions[names.index(name)] for name, _, _ in plan]
    seed = _seed(seed)

    if budget is not None and budget.rounds < rounds:
        raise ProtocolError(f"{rounds} rounds exceed the {budget.rounds} the privacy budget is split over")
    _check_bound(bound)
    for p in ordered:
        if not _within(p.features, bound):
            raise ProtocolError(f"features of {p.owner!r} exceed the domain bound {bound}")
    columns = _feature_columns(ordered)
    d = len(columns)
    _difference_scale(d, bound)  # refuses a bound too small or too large for d
    if init is not None and (init.centers.shape != (k, d) or init.bound != bound
                             or not _within(init.centers, bound)):
        # lloyd_plaintext takes its pair scales and its clamp from init.bound
        raise ProtocolError(f"init must be {k} x {d} centers at and inside the domain bound {bound}, "
                            f"got shape {init.centers.shape} at bound {init.bound}")
    if engine is None:
        engine = SlotEngine(cfg)
    layout = PackedLayout(k, slot_count=cfg.slot_count)

    # setup: feature upload, cache building
    encrypted = {}
    upload_bytes = []
    rows = layout.feature_rows(n)
    for p, (_, role, _) in zip(ordered[1:], plan[1:]):
        if p.feature_indices:
            uploads = _encrypt_features(engine, [columns[g] for g in p.feature_indices], layout)
            # the key holder encrypts under its secret key: a seed stands for the uniform half
            upload_bytes.append(sum(engine.size_bytes(ct, seeded=role == KEY_HOLDER) for ct in uploads))
            encrypted.update({g: (uploads, j * rows) for j, g in enumerate(p.feature_indices)})

    alice = _ComputingState(engine, layout, k, n, bound, sign, columns, encrypted)
    del encrypted, uploads  # released on the packed path, which keeps the extractions' block values

    round_budget = noise = None
    noise_rng = np.random.default_rng([seed, 0xD9])
    if budget is not None:
        round_budget = per_round_budget(budget)
        noise = NoiseScales.from_budget(round_budget, bound)

    centroids = init or init_centroids(k, d, bound, seed)
    history = [np.array(centroids.centers)]
    round_depths = []
    aggregate_bytes = []
    ledger = release_depths(k, sign.degree)
    level0 = engine.config.depth_budget
    per_ct = layout.blocks_per_ct
    placed = layout.release_slots(d + 1)

    for t in range(1, rounds + 1):
        released = alice.run_round(centroids)  # counts, then the d sums, each on its own slots
        depths = [v.depth_consumed for v in released]
        round_depths.append(max(depths))
        if depths != [ledger[0]] + [ledger[1]] * d:
            raise ProtocolError(
                f"round {t}: (counts, sums) depths {depths} differ from the depth ledger: "
                f"counts {ledger[0]}, sums {ledger[1]}"
            )
        # blocks_per_ct aggregates share a release ciphertext, which leaves at
        # level 0: dropping levels is free
        released = [engine.drop_to_depth(functools.reduce(engine.add, released[i : i + per_ct]), level0)
                    for i in range(0, d + 1, per_ct)]
        if noise is not None:
            released = perturb_aggregates(engine, released, d, layout, noise, noise_rng)
        aggregate_bytes.append(sum(engine.size_bytes(v) for v in released))
        # the key holder decrypts each release once; under MPC the key-share
        # holders each return one additive share whose sum is the plaintext,
        # and reconstruction is exact by simulation contract
        values = np.stack([engine.decrypt(v) for v in released])[placed]  # counts, then the d sums
        centroids = update_centroids(values[1:], values[0], bound, seed, t)
        history.append(np.array(centroids.centers))

    transcript = plan_transcript(n, k, d, rounds, cfg, plan)
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
    cfg: EngineConfig,
    parties: list[tuple[str, str, int]],
) -> Transcript:
    """The messages of a run that executes ``rounds`` rounds.

    ``parties`` lists ``(name, role, encrypted feature count)`` per party,
    in the order the run assigned roles; the run is under MPC exactly where
    no party holds the key (``KEY_HOLDER``).  Setup publishes the key, and
    every party with f encrypted features uploads ``layout.uploads(f, n)``
    fresh ciphertexts, ceil(f * ``feature_rows(n)`` / k), of
    ``PackedLayout(k, cfg.slot_count)``: its features packed one after
    another, each from a row of its own.  Every round sends its d + 1
    aggregates in ``layout.releases(d + 1)`` ciphertexts, ceil((d + 1) /
    blocks_per_ct), and gets back either the k*d plaintext centroid reals
    or, under MPC, one decryption share per key-share holder; finally the
    centroids reach every data owner.
    Ciphertext sizes come from the engine's size model: uploads and the key
    are fresh, at ``cfg.depth_budget`` levels, and every release ciphertext
    is at level 0.  The key and the ``KEY_HOLDER``'s uploads are seeded:
    their second polynomial is uniform (the key's, and that of an
    encryption under the secret key), so a seed stands for it.  A data
    owner's uploads and every upload under MPC are encrypted under a public
    key and are not.
    """
    mpc = all(role != KEY_HOLDER for _, role, _ in parties)
    computing = next(name for name, role, _ in parties if role == COMPUTING)
    key_owner = next((name for name, role, _ in parties if role == KEY_HOLDER), "joint-key")
    others = [(name, role, enc) for name, role, enc in parties if role != COMPUTING]
    layout = PackedLayout(k, slot_count=cfg.slot_count)
    fresh = ciphertext_size_bytes(cfg.depth_budget, cfg)
    seeded = ciphertext_size_bytes(cfg.depth_budget, cfg, seeded=True)
    releases = layout.releases(d + 1)
    aggregates = releases * ciphertext_size_bytes(0, cfg)
    share = math.ceil(aggregates / 2)
    centroids = k * d * 8

    key_receivers = [computing] if mpc else [name for name, _, _ in parties if name != key_owner]
    messages = [Message(SETUP_ROUND, key_owner, name, PUBLIC_KEY, seeded) for name in key_receivers]
    for name, role, enc in others:
        if enc:
            cts = layout.uploads(enc, n)
            size = seeded if role == KEY_HOLDER else fresh
            messages.append(Message(SETUP_ROUND, name, computing, ENCRYPTED_FEATURES, cts * size, cts))
    for t in range(1, rounds + 1):
        messages.append(Message(t, computing, "broadcast" if mpc else key_owner,
                                NOISY_AGGREGATES, aggregates, releases))
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


def _seed(value) -> int:
    """A seed as an int; one that is not a non-negative whole number raises ``ProtocolError``."""
    seed = whole(value, "the seed", ProtocolError)
    if seed < 0:
        raise ProtocolError(f"the seed must be a non-negative whole number, got {seed!r}")
    return seed


def _admit(model: str, holdings: list[tuple[str, int]], computing: str | None, n: int, k: int, rounds: int,
           cfg: EngineConfig | None, degree: int) -> tuple[EngineConfig, list, int, int, int]:
    """The admission check of a run and of its estimate, before setup.

    ``holdings`` lists ``(name, feature count)`` per party.  Raises
    ``ProtocolError`` for a model, party count, k, n, rounds, uploads or
    engine no run can have, for an n, k or rounds that is not a whole
    number, and for a comparator ``degree`` that is not an odd positive
    whole number, the rule of ``SignApproxConfig``.  Returns the engine
    config (default: sized to ``required_depth(k, degree)``), the role plan
    of :func:`plan_transcript`, ordered as :func:`run_multiparty` says, and
    n, k and rounds as ints.
    """
    n, k, rounds = whole(n, "n", ProtocolError), whole(k, "k", ProtocolError), whole(rounds, "rounds", ProtocolError)
    degree = whole(degree, "degree", ProtocolError)
    if degree < 1 or degree % 2 == 0:
        raise ProtocolError(f"degree must be an odd positive whole number, got {degree}")
    if model not in (TWO_PARTY, SERVER_AIDED, MPC_SIMULATED):
        raise ProtocolError(f"unknown deployment model {model!r}")
    if len(holdings) < 2 or (model == TWO_PARTY and len(holdings) != 2):
        raise ProtocolError(f"the {model} model cannot have {len(holdings)} parties")
    if model == TWO_PARTY:
        model, computing = SERVER_AIDED, computing or holdings[0][0]
    depth = required_depth(k, degree)
    if n < 1:
        raise ProtocolError("no records to cluster")
    if rounds < 0:
        raise ProtocolError(f"rounds must be non-negative, got {rounds}")
    ordered = sorted(holdings, key=lambda h: (h[0] != computing, -h[1]))
    if not any(count > 0 for _, count in ordered[1:]):
        raise ProtocolError("no party besides the computing one holds a feature")
    cfg = cfg or EngineConfig(depth_budget=depth)
    if cfg.depth_budget < depth:
        raise ProtocolError(f"engine depth budget {cfg.depth_budget} below required {depth} for k={k}")
    if k * k > cfg.slot_count:
        raise ProtocolError(f"k={k} needs {k * k} slots per block, the engine has {cfg.slot_count}")
    roles = [COMPUTING, KEY_HOLDER if model == SERVER_AIDED else DATA_OWNER]
    roles += [DATA_OWNER] * (len(ordered) - 2)
    plan = [(name, role, 0 if role == COMPUTING else count) for (name, count), role in zip(ordered, roles)]
    return cfg, plan, n, k, rounds


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

    The plan of :func:`plan_transcript` in which ``party0`` computes and
    the ``d_bob`` encrypted features are spread evenly over the other
    ``parties - 1`` parties, the first ones taking one more where they do
    not divide, on ``cfg`` as given or sized as a run's default engine.
    Uploads are counted as the run packs them, so the split matters: a
    party's features share its ciphertexts, and a run with an uneven split
    can upload more or fewer.  An estimate of a run that
    :func:`run_multiparty` refuses before setup raises the same
    ``ProtocolError`` through the same check, and so does a ``d``,
    ``d_bob`` or ``parties`` that is not a whole number, or ``d_bob`` above
    ``d``.
    """
    d, d_bob = whole(d, "d", ProtocolError), whole(d_bob, "d_bob", ProtocolError)
    parties = whole(parties, "parties", ProtocolError)
    if d_bob > d:
        raise ProtocolError(f"{d_bob} uploaded features exceed the {d} features")
    each, rest = divmod(d_bob, max(parties - 1, 1))
    holdings = [(f"party{i}", each + (i <= rest) if i else d - d_bob) for i in range(parties)]
    cfg, plan, n, k, rounds = _admit(model, holdings, "party0", n, k, rounds, cfg, degree)
    return plan_transcript(n, k, d, rounds, cfg, plan)
