"""Packed argmin under (simulated) encryption.

The argmin takes distance differences, never distances: per block, entry
(r, c) holds d_c - d_r, the scaled squared distance of the block's point to
centroid c minus the one to centroid r.  One slot-wise polynomial comparison
of that grid yields all pairwise comparisons at once; summing comparison
rows gives each element's rank, and a degree-(k-1) indicator polynomial
turns rank 1 into a one-hot marker.  Exact ties produce fractional ranks
that the indicator never activates, so tied blocks decode to a null marker
(every entry below 0.5).

The indicator is prod_{j=2..k} (x - j), normalized.  Pairing node j with
node k + 2 - j gives (x - j)(x - (k + 2 - j)) = s^2 - (c - j)^2, with
c = (k + 2) / 2 and s = x - c, so a single squaring of s serves every
pair, and for even k the middle node c leaves s itself as a factor.  The
product tree then has ceil((k - 1) / 2) leaves instead of k - 1; with the
squaring that is also its count of ciphertext products for k >= 3, about
half of the unpaired tree's k - 2.  Its depth is unchanged: the squaring
spends the level that halving the leaves saves, and the first-row mask goes
on the last leaf, whose path is the shortest (:func:`phi_depth`).

The comparison polynomial is a single Chebyshev interpolation of a steep
sign surrogate erf(alpha * x).  Interpolating the discontinuous sign itself
is useless here: its interpolant carries a Gibbs oscillation of ~0.28 near
the jump at every practical degree, far outside the comparison contract.
With alpha = 1.7 / tie_margin the surrogate is within 2 * 0.0082 of sign
everywhere outside the tie margin.  At the default degree 255 and margin
0.035 the series lies within 0.00809 of {0, 1} at gaps >= tie_margin
(200,001 points on [margin, 1]), overshoots [0, 1] by at most 1.9e-5 and
stays within 2.0e-5 of the surrogate (400,001 points on [-1, 1]), while
exact ties map to 0.5 exactly (the series is odd by construction).  Its
depth is 9, two levels below degree 1023 at margin 0.01, and its folded
series of 128 coefficients takes 16 baby steps and 8 leaves in the kernel,
against 32 and 16 for degree 1023.

Why the margin is 0.035: any narrower, and degree 255 tracks the surrogate
less closely (within 1.7e-4 at 0.03 and 1.1e-3 at 0.025, against 2.0e-5);
any wider than 1/28 ~ 0.0357, and fifteen values in [0, 1] can no longer be
spaced two margins apart (14 gaps of 2 * 0.035 take 0.98).  The margin is a
band of scaled differences, and the protocol scales each centroid pair by
its own bound (``protocol.pair_scales``), so for a close pair it is a
narrower band of raw squared distance than one scale for every pair gives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .packed_matrix import PackedLayout, axis_sum
from .slot_engine import SlotEngine, SlotVector, whole

# erf steepness per unit of tie margin: erfc(1.7) ~ 0.0164, half the 0.02
# sign-error budget that keeps cmp within 0.01 of {0, 1} at the margin.
STEEPNESS = 1.7

DEFAULT_DEGREE = 255


@dataclass(frozen=True)
class SignApproxConfig:
    """Parameters of the polynomial comparison.

    Differences must lie in [-1, 1].  Differences smaller than
    ``tie_margin`` give unreliable comparisons by contract; everything at or
    beyond the margin compares to within 0.01.  The default, degree 255 at
    margin 0.035, compares to within 0.00809 there, overshoots [0, 1] by at
    most 1.9e-5 and costs 9 levels; the module docstring says why the
    margin is 0.035.
    """

    degree: int = DEFAULT_DEGREE
    tie_margin: float = 0.035

    def __post_init__(self):
        # a bool would pass for 1 and a fraction would move the Chebyshev nodes
        if whole(self.degree, "degree", ValueError) < 1 or self.degree % 2 == 0:
            raise ValueError(f"degree must be an odd positive whole number, got {self.degree!r}")
        if not 0 < self.tie_margin < 1:
            raise ValueError("tie_margin must lie in (0, 1)")


@functools.lru_cache(maxsize=16)
def cmp_series(cfg: SignApproxConfig) -> np.ndarray:
    """Chebyshev coefficients of sign(x)/2 + 0.5 on [-1, 1]; the shift is
    folded into the coefficients so a comparison costs exactly one series
    evaluation.

    Interpolates erf(STEEPNESS / tie_margin * x) at Chebyshev nodes of the
    first kind and zeroes the even coefficients, so the series is 0.5 plus
    an exactly odd part (ties evaluate to 0.5 with no rounding residue).

    The interpolant's coefficients are the DCT-II of the node values, over
    n.  It is computed with one complex FFT of length n (Makhoul's
    reordering): n = degree + 1 is even, so v = (x_0, x_2, ..., x_{n-2},
    x_{n-1}, ..., x_3, x_1) and DCT-II[k] = 2 Re(FFT(v)[k] exp(-i pi k / 2n)).
    """
    n = cfg.degree + 1
    nodes = np.cos((np.arange(n) + 0.5) * np.pi / n)
    alpha = STEEPNESS / cfg.tie_margin
    values = np.array([math.erf(alpha * x) for x in nodes])
    v = np.concatenate([values[::2], values[::-2]])
    shift = np.exp(-0.5j * np.pi * np.arange(n) / n)
    c = (np.fft.fft(v) * shift).real / n  # half the coefficients: sign(x) / 2
    c[::2] = 0.0
    c[0] = 0.5  # the shift
    c.setflags(write=False)
    return c


def compare(engine: SlotEngine, diff: SlotVector, cfg: SignApproxConfig, pairs=None) -> SlotVector:
    """Slot-wise soft comparison of a difference a - b: ~1 where it is
    positive, ~0 where it is negative, 0.5 at ties.  The difference must
    lie in [-1, 1]; it is fed to the series directly.  ``pairs`` names
    slots holding negated differences, for
    :meth:`SlotEngine.eval_chebyshev`."""
    return engine.eval_chebyshev(diff, cmp_series(cfg), pairs)


def rank(
    engine: SlotEngine,
    diff: SlotVector,
    layout: PackedLayout,
    cfg: SignApproxConfig,
) -> SlotVector:
    """Per block, first row holds each element's rank (1 = smallest).

    ``diff`` holds d_c - d_r at entry (r, c) of every block, for one
    per-block vector d; comparing it slot-wise and summing rows counts, for
    each column c, how many elements are smaller than d_c, and the
    self-comparison contributes the remaining 0.5, added on the first row
    (:meth:`PackedLayout.first_row`).  The other rows keep the
    partial sums of :func:`axis_sum` unmasked: :func:`indicator_phi` folds
    a first-row mask into its product anyway, so a mask here would only
    cost a level.

    Entry (c, r) is the negation of entry (r, c), so the comparison is
    given :meth:`PackedLayout.transpose_pairs` and evaluates the series
    once per mirrored pair.  The engine checks that the pairing holds
    exactly and otherwise evaluates every slot; either way the result and
    the charged cost are those of the full evaluation.
    """
    c = compare(engine, diff, cfg, layout.transpose_pairs())
    r = axis_sum(engine, c, layout)
    return engine.add(r, engine.plaintext(layout.first_row(0.5)))


def indicator_phi(engine: SlotEngine, r: SlotVector, layout: PackedLayout) -> SlotVector:
    """Evaluate the rank-1 indicator polynomial slot-wise.

    phi(x) = prod_{j=2..k} (x - j) / prod_{j=2..k} (1 - j): exactly 1 at
    rank 1, 0 at integer ranks 2..k, and bounded away from 1 on fractional
    tie ranks.  Nodes j and k + 2 - j are multiplied as one leaf,
    (x - j)(x - (k + 2 - j)) = s^2 - (c - j)^2 with c = (k + 2) / 2 and
    s = x - c, so one squaring serves every pair and the balanced product
    tree runs over ceil((k - 1) / 2) leaves; for even k, s itself is the
    last leaf.  The normalization constant times the first-row mask is
    folded onto the last leaf, which costs no level beyond the tree's
    (:func:`phi_depth`).  Blocks that carry no point are not masked: the
    caller multiplies the marker by each coordinate, which is 0 there.

    The mask zeroes every slot past the first grid row, the first
    ``layout.width`` slots, so the tree runs on that row alone
    (:meth:`SlotEngine.restrict`, constants included) and the marker is
    widened with zeros at the end: the same values, depth and counters as
    the whole vector's evaluation, whose other slots are products with the
    mask's zeros (of either sign).  So every constant is a
    :meth:`PackedLayout.first_row`, cached per layout and value: it holds
    its value on the first row, and whatever a constant holds on the other
    rows, their products with the last leaf's mask are zero.
    """
    k = layout.k
    width = layout.width

    def constant(value):
        return engine.restrict(engine.plaintext(layout.first_row(value)), width)

    centre = (k + 2) / 2
    s = engine.sub(engine.restrict(r, width), constant(centre))
    leaves = []
    if k >= 3:
        square = engine.mul(s, s)
        leaves = [engine.sub(square, constant((centre - j) ** 2)) for j in range(2, math.ceil(centre))]
    if k % 2 == 0:
        leaves.append(s)
    norm = 1.0 / math.prod(1.0 - j for j in range(2, k + 1))
    leaves[-1] = engine.mul(leaves[-1], constant(norm))

    while len(leaves) > 1:
        merged = [engine.mul(leaves[i], leaves[i + 1]) for i in range(0, len(leaves) - 1, 2)]
        if len(leaves) % 2:
            merged.append(leaves[-1])
        leaves = merged
    return engine.widen(leaves[0])


def argmin_packed(
    engine: SlotEngine,
    diff: SlotVector,
    layout: PackedLayout,
    cfg: SignApproxConfig,
) -> SlotVector:
    """One-hot argmin marker per block, in the first row of the block, and
    exactly 0 in the other rows.

    ``diff`` is the difference grid that :func:`rank` takes.  Ties across u
    minimal elements produce ranks (u + 1) / 2 for all of them, the
    indicator activates nowhere, and the block decodes as null (every entry
    far below 1); callers treat entries below 0.5 as zero.  A block of
    zeros is a k-way tie, so an unused block gets a null marker too.
    """
    return indicator_phi(engine, rank(engine, diff, layout, cfg), layout)


def argmin_two(engine: SlotEngine, diff: SlotVector, cfg: SignApproxConfig) -> SlotVector:
    """k = 2 fast path on compact encodings of d_0 - d_1: a bitmask, ~1
    where the second centroid is strictly closer.  1 - mask marks the first
    centroid; no packing, row sums, or indicator polynomial involved."""
    return compare(engine, diff, cfg)


def phi_depth(k: int) -> int:
    """Levels consumed by the masked indicator for k clusters:
    (k - 1).bit_length().

    Each level of :func:`indicator_phi`'s tree pairs its nodes left to
    right and passes an odd last node up unmerged.  Every other node is
    merged at every level, so the last leaf's path is never longer than
    any other leaf's, and the mask it carries can lift the depth only
    where all paths are equally long.  With n = ceil((k - 1) / 2) leaves
    the tree has height h = ceil(log2 n), and the depth is:

    * k odd: every leaf is a pair leaf, one level deep for the squaring.
      If n is a power of two, every path is h long and the total is h + 2;
      otherwise some level passes the last node up, its path is at most
      h - 1 and the total is h + 1.  Here k - 1 = 2n, whose bit length is
      h + 2 if n = 2^h and h + 1 if 2^(h-1) < n < 2^h.
    * k even: the last leaf is s, zero levels deep, so the mask lifts it to
      at most h + 1, and for k >= 4 the first pair leaf reaches h + 1; k = 2
      is the masked s alone, depth 1 = h + 1.  Here k - 1 = 2n - 1 lies in
      (2^h, 2^(h+1)) for k >= 4 and is 1 for k = 2: bit length h + 1.

    A k below 2, or one that is not a whole number (a numpy integer is one,
    a bool is not), raises ``ValueError``, as :class:`PackedLayout` does.
    """
    k = whole(k, "k", ValueError)
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    return (k - 1).bit_length()
