"""Chebyshev series evaluation, the slot engine's hot kernel.

The slot engine spends nearly all of its time evaluating Chebyshev series
over full slot vectors (the default comparator has degree 255).  It uses the
Chebyshev-basis baby-step/giant-step evaluation of Lee et al. (2020) and
Bossuat et al. (EUROCRYPT 2021), the algorithm whose depth the engine
charges:

* an odd series plus a constant (every even coefficient but ``c0`` zero,
  the shape of the sign approximation and of its 0/1 comparator shift) is
  first folded through the exact identity ``p(x) = c0 + x * q(2x^2 - 1)``,
  which halves its length and keeps ``p(0) = c0`` exact (ties give 0.5);
* a series of length L is divided recursively by the giant steps
  ``T_M``, ``M = m * 2^l``, through ``T_{M+j} = 2 T_M T_j - T_{M-j}``, into
  ``ceil(L / m)`` leaves of at most m coefficients each (a series no longer
  than m is a single leaf);
* the baby steps ``T_0 .. T_{m-1}`` fill one ``(m x slots)`` array, so every
  leaf is evaluated by one ``(leaves x m) @ (m x slots)`` matrix product;
* the leaves are recombined level by level as ``lo + hi * T_M``, with the
  giant steps obtained by doubling, ``T_{2M} = 2 T_M^2 - 1``.

The fold and the leaf matrix depend only on the coefficients, and the last
few are cached.

A folded series may also be given slot pairs ``(lo, hi)`` whose inputs are
negatives of each other, ``x[hi] == -x[lo]`` exactly; the packed argmin's
difference grid holds d_c - d_r at (r, c) and d_r - d_c at (c, r).  Then q
is evaluated only outside ``hi`` and ``hi`` takes ``c0 - z[lo]``, with
``z = x * q(2x^2 - 1)``.  This is the full evaluation bit for bit:
``2x^2 - 1`` is the same float for x and -x, so q is too (the baby steps
and the recombination are slot-wise, and the leaf product computes each
slot's column on its own, in the same order for any column count once
that count is padded to whole kernel widths: see ``_bsgs``);
``(-x) * q`` is exactly ``-(x * q)``, and
``c0 + (-z)`` is exactly ``c0 - z``.  The pairing is checked on every
call, and any mismatch, or a series that is not folded, takes the full
evaluation.

A folded series also evaluates q only where x != 0, paired or not.  A
zero slot, +0.0 or -0.0, takes c0: its full evaluation is
``c0 + (+-0) * q``, and a finite q makes the product a zero, which leaves
any c0 but -0.0 as it is (no series in the program has a zero c0).  The
argmin's grid has such slots on every diagonal entry, past the used blocks
and past the grid: 1,264 of the 8,824 slots a paired k = 15 comparison
keeps.  An input without a zero slot skips the compaction and runs as
before.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def odd_to_half(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients q with sum c_j T_j(x) = x * q(2x^2 - 1), for odd series.

    From 2x * T_m(2x^2 - 1) = T_{2m+1}(x) + T_{|2m-1|}(x):
    q_M = 2 c_{2M+1}, then q_m = 2 c_{2m+1} - q_{m+1}, and q_0 halves once
    more because T_0's pairing double-counts T_1.
    """
    odd = coeffs[1::2]
    q = np.empty(odd.size)
    acc = 0.0
    for m in range(odd.size - 1, -1, -1):
        acc = 2.0 * odd[m] - acc
        q[m] = acc
    q[0] *= 0.5
    return q


# the leaf product's column count is padded to a multiple of this
_LANES = 64


def _baby_steps(length: int) -> int:
    """Number m of baby steps for a series of ``length`` coefficients: the
    smallest power of two with m^2 >= 2 * length (16 for the folded
    degree-255 default comparator and the folded degree-127 one, 32 for a
    folded degree-1023 one)."""
    m = 2
    while m * m < 2 * length:
        m *= 2
    return m


def _leaf_matrix(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Split a series into leaves of m coefficients by division by T_M.

    A block of length 2M is ``lo + hi * T_M`` with ``hi_0 = c_M``,
    ``hi_j = 2 c_{M+j}`` and ``lo_{M-j} = c_{M-j} - c_{M+j}``.  The series is
    zero-padded to ``m * 2^K`` and split K times, halving every block; bit l
    of a leaf's row index says whether it sits in the ``hi`` part of the
    split by ``T_{m * 2^l}``.  Leaf i only holds coefficients from positions
    ``>= i * m``, so the padded leaves are zero and are dropped.
    """
    n = -(-coeffs.size // m)
    size = m
    while size < n * m:
        size *= 2
    blocks = np.zeros((1, size))
    blocks[0, : coeffs.size] = coeffs
    while blocks.shape[1] > m:
        half = blocks.shape[1] // 2
        lo = blocks[:, :half].copy()
        lo[:, 1:] -= blocks[:, :half:-1]
        hi = 2.0 * blocks[:, half:]
        hi[:, 0] = blocks[:, half]
        blocks = np.stack([lo, hi], axis=1).reshape(-1, half)
    return np.ascontiguousarray(blocks[:n])


@lru_cache(maxsize=32)
def _plan(key: bytes) -> tuple[float | None, np.ndarray]:
    """``(c0, leaves)`` for a series given as float64 bytes; ``c0`` is None
    unless the series is folded, and then the leaves are those of q."""
    coeffs = np.frombuffer(key)
    c0 = None
    if coeffs.size >= 8 and not np.any(coeffs[2::2]):
        c0 = float(coeffs[0])
        coeffs = odd_to_half(coeffs)
    leaves = _leaf_matrix(coeffs, _baby_steps(coeffs.size))
    leaves.setflags(write=False)
    return c0, leaves


def _bsgs(leaves: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Evaluate the series whose leaf matrix is ``leaves`` at every entry of
    the 1-D array ``y``.

    The baby steps are padded with zeros to a multiple of ``_LANES``
    columns, so that the leaf product computes every column with the BLAS
    kernel's full-width code.  OpenBLAS computes the last few columns of an
    unaligned product in another order (measured: the last n mod 8 of n
    columns can differ in the last bit), and an evaluation on a compacted
    subset of the slots must give every slot the bits of the full one.
    """
    m, n = leaves.shape[1], y.size
    baby = np.empty((m, -(-n // _LANES) * _LANES))
    baby[0] = 1.0
    baby[1, :n] = y
    baby[1, n:] = 0.0
    two_y = 2.0 * baby[1]
    for j in range(2, m):
        np.multiply(two_y, baby[j - 1], out=baby[j])
        baby[j] -= baby[j - 2]
    vals = leaves @ baby
    giant = None
    while len(vals) > 1:
        if giant is None:
            giant = two_y * baby[m - 1] - baby[m - 2]
        else:
            giant = 2.0 * giant * giant - 1.0
        pairs = len(vals) // 2
        hi = vals[1::2]
        hi *= giant
        vals[0 : 2 * pairs : 2] += hi
        vals = vals[::2]
    return vals[0, :n].copy()  # not a view pinning every leaf row


def eval_series(coeffs: np.ndarray, x: np.ndarray, pairs=None) -> np.ndarray:
    """Evaluate the Chebyshev series ``coeffs`` (float64) at every entry of
    the 1-D array ``x``, which must lie in [-1, 1].

    ``pairs`` is an optional ``(lo, hi)`` of index arrays; a folded series
    evaluates each pair once when ``x[hi] == -x[lo]`` holds exactly, and
    skips every zero slot, with the same result as a full evaluation.
    """
    c0, leaves = _plan(coeffs.tobytes())
    if c0 is None:
        return _bsgs(leaves, x)
    keep = x != 0
    paired = pairs is not None and np.array_equal(x[pairs[1]], -x[pairs[0]])
    if paired:
        keep[pairs[1]] = False
    elif keep.all():
        return c0 + x * _bsgs(leaves, 2.0 * x * x - 1.0)
    z = np.zeros(x.size)
    xk = x[keep]
    if xk.size:
        z[keep] = xk * _bsgs(leaves, 2.0 * xk * xk - 1.0)
    if paired:
        lo, hi = pairs
        z[hi] = -z[lo]
    return c0 + z
