"""Chebyshev series evaluation, the slot engine's hot kernel.

The slot engine spends nearly all of its time evaluating Chebyshev series
over full slot vectors (Clenshaw recurrence, ~1000 fused multiply-adds per
slot).  Two things keep that cheap in plain numpy:

* an odd series plus a constant (every even coefficient but ``c0`` zero,
  the shape of the sign approximation and of its 0/1 comparator shift) is
  folded through the exact identity ``p(x) = c0 + x * q(2x^2 - 1)``,
  halving the recurrence length;
* the recurrence runs slot-inner over whole vectors with preallocated
  buffers.
"""

from __future__ import annotations

import numpy as np


def clenshaw_numpy(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate a Chebyshev series at every entry of ``x`` (plain Clenshaw).

    Rotates three preallocated buffers instead of allocating per step.
    """
    two_x = 2.0 * x
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    scratch = np.empty_like(x)
    for k in range(len(coeffs) - 1, 0, -1):
        np.multiply(two_x, b1, out=scratch)
        scratch -= b2
        scratch += coeffs[k]
        b1, b2, scratch = scratch, b1, b2
    return coeffs[0] + x * b1 - b2


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


_half_cache: dict[bytes, np.ndarray] = {}


def eval_series(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Chebyshev series evaluation, taking the halved path for a constant
    plus an odd series."""
    if coeffs.size >= 8 and not np.any(coeffs[2::2]):
        key = coeffs.tobytes()
        q = _half_cache.get(key)
        if q is None:
            q = odd_to_half(coeffs)
            if len(_half_cache) > 32:
                _half_cache.clear()
            _half_cache[key] = q
        return coeffs[0] + x * clenshaw_numpy(q, 2.0 * x * x - 1.0)
    return clenshaw_numpy(coeffs, x)

