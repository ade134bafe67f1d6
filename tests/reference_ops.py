"""Independent plaintext references for the packed-matrix operations and
the per-pair comparison scales.

Everything here is written as direct per-block or per-pair loops over an
explicit (block, row, col) indexing function, deliberately avoiding the
library's grid/reshape helpers so the two implementations share no code
path.
"""

import numpy as np


def slot_index(layout, row, block, col):
    return row * (layout.blocks_per_ct * layout.k) + block * layout.k + col


def _slot_grid(layout, blocks):
    """Slot of every (block, row, col), from ``slot_index`` on broadcast
    index arrays: entry [b, r, c] is slot_index(layout, r, b, c)."""
    m = layout.k
    b = np.arange(blocks)[:, None, None]
    r = np.arange(m)[None, :, None]
    c = np.arange(m)[None, None, :]
    return slot_index(layout, r, b, c)


def blocks_of(layout, slots):
    """Extract every block as a dense matrix via explicit slot arithmetic."""
    return list(np.asarray(slots)[_slot_grid(layout, layout.blocks_per_ct)])


def slots_of(layout, blocks, slot_count):
    out = np.zeros(slot_count)
    out[_slot_grid(layout, len(blocks))] = np.asarray(blocks)
    return out


def ref_sum(blocks, axis):
    out = []
    for mat in blocks:
        res = np.zeros_like(mat)
        if axis == "row":
            for c in range(mat.shape[1]):
                total = 0.0
                for r in range(mat.shape[0]):
                    total += mat[r, c]
                res[0, c] = total
        else:
            for r in range(mat.shape[0]):
                total = 0.0
                for c in range(mat.shape[1]):
                    total += mat[r, c]
                res[r, 0] = total
        out.append(res)
    return out


def ref_replicate_flat(value, k):
    """Brute-force replication target: the value in all k positions."""
    return np.full(k, value)


def ref_extract_replicate(layout, compact_slots, positions):
    m = layout.k
    out = []
    for b in range(layout.blocks_per_ct):
        mat = np.zeros((m, m))
        if b < len(positions):
            mat[:, :] = compact_slots[positions[b]]
        out.append(mat)
    return out


def ref_reduce_blocks(blocks):
    total = np.zeros_like(blocks[0])
    for mat in blocks:
        total = total + mat
    return total


def ref_ranks(values):
    """Fractional ranks: 1 + #smaller + (ties - 1) / 2, via pairwise loops."""
    n = len(values)
    out = np.zeros(n)
    for j in range(n):
        r = 0.5
        for i in range(n):
            if values[j] > values[i]:
                r += 1.0
            elif values[j] == values[i]:
                r += 0.5
        out[j] = r
    return out


def ref_argmin_onehot(values):
    """Hard one-hot of the unique minimum; all zeros when the minimum ties."""
    values = np.asarray(values)
    lowest = values.min()
    hits = np.flatnonzero(values == lowest)
    out = np.zeros(values.size)
    if hits.size == 1:
        out[hits[0]] = 1.0
    return out


def ref_phi(x, k):
    num = 1.0
    den = 1.0
    for j in range(2, k + 1):
        num *= x - j
        den *= 1.0 - j
    return num / den


def ref_pair_scales(centers, bound):
    """1 / b_rc per centroid pair, b_rc = 2B ||c_c - c_r||_1 + | ||c_c||^2 -
    ||c_r||^2 |, and 1 / (d (2B)^2) where b_rc = 0."""
    k, d = centers.shape
    out = np.empty((k, k))
    for r in range(k):
        for c in range(k):
            b = 2.0 * bound * sum(abs(centers[c, l] - centers[r, l]) for l in range(d))
            b += abs(sum(centers[c] ** 2) - sum(centers[r] ** 2))
            out[r, c] = 1.0 / b if b > 0 else 1.0 / (d * (2.0 * bound) ** 2)
    return out
