"""Encrypted-matrix utilities over slot vectors.

A ciphertext is viewed as a grid of ``k`` rows by ``blocks_per_ct * k``
columns (C-order), so block ``b`` occupies a ``k``-wide column stripe:
slot(r, b, c) = r*width + b*k + c.  Each point's k x k block takes exactly
k*k slots, with no padding to a power of two.  The grid stores the first
row of every block, then the second row, and so on; any slots past the grid
are unused.

All operations act on every block simultaneously with the same rotation
schedule.  Row operations shift by multiples of ``width``, column operations
by small offsets inside the stripe.  Replication works for any k: most
schedules double a replicated segment as far as possible and then fill the
remainder from cached partial results, and k=7 rotates sums other than that
segment to save a rotation.  The test suite checks every schedule's output
for every start and k up to 64, and its rotation count against a bound; it
does not check that a schedule is rotation-minimal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .slot_engine import EngineError, SlotEngine, SlotVector

ROW = "row"
COLUMN = "column"


@dataclass(frozen=True)
class PackedLayout:
    """How k x k blocks tile a slot vector, k*k slots per block.

    ``blocks_per_ct`` may be pinned explicitly (useful for reproducing small
    worked examples); by default every block that fits is used.
    """

    k: int
    slot_count: int = 1 << 14
    blocks_per_ct: int = 0
    _mask_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be at least 2")
        max_blocks = self.slot_count // self.stride
        if self.blocks_per_ct == 0:
            object.__setattr__(self, "blocks_per_ct", max_blocks)
        if not 1 <= self.blocks_per_ct <= max_blocks:
            raise ValueError(
                f"blocks_per_ct {self.blocks_per_ct} outside [1, {max_blocks}] "
                f"for k={self.k}, slot_count={self.slot_count}"
            )

    @property
    def stride(self) -> int:
        """Slots consumed per block."""
        return self.k * self.k

    @property
    def width(self) -> int:
        """Columns per grid row (all stripes side by side)."""
        return self.blocks_per_ct * self.k

    @property
    def usable_slots(self) -> int:
        return self.blocks_per_ct * self.stride

    def grid(self, values=None) -> np.ndarray:
        """A zeroed (or filled) (k, blocks_per_ct, k) tensor.

        Reshaping it C-order and padding to slot_count yields the slot
        vector for this layout.
        """
        g = np.zeros((self.k, self.blocks_per_ct, self.k))
        if values is not None:
            g[...] = values
        return g

    def to_slots(self, grid: np.ndarray) -> np.ndarray:
        flat = np.asarray(grid, dtype=np.float64).reshape(-1)
        out = np.zeros(self.slot_count)
        out[: flat.size] = flat
        return out

    def from_slots(self, slots: np.ndarray) -> np.ndarray:
        return np.array(slots[: self.usable_slots]).reshape(
            self.k, self.blocks_per_ct, self.k
        )

    # -- cached plaintext masks -----------------------------------------

    def _mask(self, key, build) -> np.ndarray:
        if key not in self._mask_cache:
            arr = build()
            arr.setflags(write=False)
            self._mask_cache[key] = arr
        return self._mask_cache[key]

    def axis_mask(self, axis: str, index: int) -> np.ndarray:
        """1.0 on row/column ``index`` of every block, 0 elsewhere."""
        if not 0 <= index < self.k:
            raise IndexError(f"{axis} index {index} outside [0, {self.k})")

        def build():
            g = self.grid()
            if axis == ROW:
                g[index, :, :] = 1.0
            elif axis == COLUMN:
                g[:, :, index] = 1.0
            else:
                raise ValueError(f"axis must be {ROW!r} or {COLUMN!r}, got {axis!r}")
            return self.to_slots(g)

        return self._mask(("axis", axis, index), build)

    def head_mask(self, count: int) -> np.ndarray:
        """1.0 on the first ``count`` columns of block 0's first row."""

        def build():
            g = self.grid()
            g[0, 0, :count] = 1.0
            return self.to_slots(g)

        return self._mask(("head", count), build)


# ---------------------------------------------------------------------------
# replication / summation schedules
# ---------------------------------------------------------------------------

# A replication schedule lists rotation steps and an output set.  Vector 0 is
# the input x; step i makes vector i = rot(S, shift), where S is the sum of the
# step's operand vectors and rot(S, s) moves S by s lanes towards higher lanes
# (``engine.rotate(S, -s * unit)``).  The result is the sum of the output
# vectors.  Every schedule uses additions and rotations only, so the output is
# exact whatever intermediate sums spill into neighbouring blocks.
#
# Most counts use prefix schedules: each step rotates a snapshot of one
# contiguous segment that grows from the start lane until it covers
# [0, count).  Their lengths follow the binary fill (double to 2^m, then add
# cached snapshots per remainder bit), which costs floor(log2 k) +
# popcount(k) - 1 rotations.  That is at most 2*floor(log2 k) - 1 unless k is
# all-ones in binary, so 15, 31 and 63 carry shorter addition-chain fills.
# Every prefix schedule for 7 needs 4 rotations; 7 instead uses the 3-rotation
# schedules below, whose operands are sums other than the growing segment
# (found by exhaustive search over add-only schedules).  At 3 no schedule can
# do better than 2: one rotation reaches at most 2 lanes.
_CHAIN_FILLS = {
    15: [1, 1, 3, 6, 3],
    31: [1, 1, 3, 6, 12, 6, 1],
    63: [1, 1, 3, 6, 12, 24, 12, 3],
}

_NON_PREFIX_SCHEDULES = {
    7: {
        0: ([((0,), -1), ((0, 1), 2), ((0, 1, 2), 4)], (0, 2, 3)),
        1: ([((0,), -2), ((0, 1), 1), ((0, 1, 2), 4)], (0, 2, 3)),
        2: ([((0,), -2), ((0, 1), 1), ((0, 2), 3)], (0, 1, 2, 3)),
        3: ([((0,), -4), ((0, 1), 1), ((0, 1, 2), 2)], (0, 2, 3)),
        4: ([((0,), -4), ((0, 1), 2), ((0, 2), -1)], (0, 1, 2, 3)),
        5: ([((0,), -4), ((0, 1), -1), ((1, 2), 2)], (0, 1, 2, 3)),
        6: ([((0,), -4), ((0, 1), -2), ((1, 2), 1)], (0, 1, 2, 3)),
    },
}


class ReplicationSchedule(NamedTuple):
    """``steps`` is ``((operands, shift), ...)`` and ``output`` the summed
    vectors; every index tuple is in ascending order."""

    steps: tuple[tuple[tuple[int, ...], int], ...]
    output: tuple[int, ...]


def _fill_lengths(count: int) -> list[int]:
    if count in _CHAIN_FILLS:
        return list(_CHAIN_FILLS[count])
    m = count.bit_length() - 1
    lengths = [1 << i for i in range(m)]
    rem = count - (1 << m)
    for i in reversed(range(m)):
        if rem >> i & 1:
            lengths.append(1 << i)
    return lengths


def _prefix_schedule(count: int, start: int) -> ReplicationSchedule:
    lengths = _fill_lengths(count)
    # Pick which extensions go left so the segment ends exactly at 0.
    dp: dict[int, list[int]] = {0: []}
    for idx, p in enumerate(lengths):
        for s, sel in list(dp.items()):
            t = s + p
            if t <= start and t not in dp:
                dp[t] = sel + [idx]
    left = set(dp[start])

    lo, hi = start, start + 1
    snapshot = {1: (start, 0)}  # segment length -> (low lane, last vector in it)
    steps = []
    size = 1
    for idx, p in enumerate(lengths):
        src_lo, last = snapshot[p]
        if idx in left:
            shift = (lo - p) - src_lo
            lo -= p
        else:
            shift = hi - src_lo
            hi += p
        steps.append((tuple(range(last + 1)), shift))
        size += p
        snapshot[size] = (lo, idx + 1)
    assert (lo, hi) == (0, count)
    return ReplicationSchedule(tuple(steps), tuple(range(len(steps) + 1)))


def replication_schedule(count: int, start: int) -> ReplicationSchedule:
    """Rotation plan replicating one non-zero lane at ``start`` over ``count`` lanes.

    Returns the steps and output set described above; ``len(steps)`` is the
    rotation count.  Counts with an entry in ``_NON_PREFIX_SCHEDULES`` use it;
    all others use the prefix schedule of their fill lengths.
    """
    if not 0 <= start < count:
        raise ValueError(f"start {start} outside [0, {count})")
    if count in _NON_PREFIX_SCHEDULES:
        steps, output = _NON_PREFIX_SCHEDULES[count][start]
        return ReplicationSchedule(tuple(steps), output)
    return _prefix_schedule(count, start)


def _axis_unit(layout: PackedLayout, axis: str) -> int:
    if axis == ROW:
        return layout.width
    if axis == COLUMN:
        return 1
    raise ValueError(f"axis must be {ROW!r} or {COLUMN!r}, got {axis!r}")


@functools.lru_cache(maxsize=None)
def _evaluation_plan(count: int, start: int):
    """The schedule's sums split into the prefix x + R1 + ... + Rj each
    contains and the vectors it adds outside that prefix."""
    steps, output = replication_schedule(count, start)
    sets = [operands for operands, _ in steps] + [output]
    # leads[s]: how many of sets[s]'s sorted indices form the prefix 0, 1, ...
    leads = [next((p for p, i in enumerate(ix) if p != i), len(ix)) for ix in sets]
    loose = frozenset(i for ix, lead in zip(sets, leads) for i in ix[lead:])
    return steps, output, leads, loose, max(leads)


def _run_replication(
    engine: SlotEngine, v: SlotVector, unit: int, count: int, start: int
) -> SlotVector:
    """Run ``replication_schedule(count, start)`` on ``v``.

    A prefix is extended as soon as its newest vector exists, and a vector is
    kept on its own only when some sum adds it outside its prefix, so a
    prefix schedule runs as one running accumulator and holds no more
    ciphertexts than that needs.
    """
    steps, output, leads, loose, longest = _evaluation_plan(count, start)
    prefix = [v]
    kept = {}

    def total(indices, lead):
        acc = prefix[lead - 1] if lead else None
        for i in indices[lead:]:
            acc = kept[i] if acc is None else engine.add(acc, kept[i])
        return acc

    for i, ((operands, shift), lead) in enumerate(zip(steps, leads), start=1):
        rotated = engine.rotate(total(operands, lead), -shift * unit)
        if i < longest:
            prefix.append(engine.add(prefix[-1], rotated))
        if i in loose:
            kept[i] = rotated
    return total(output, leads[-1])


def _run_lane_sum(engine: SlotEngine, v: SlotVector, unit: int, count: int) -> SlotVector:
    """Sum ``count`` lanes into lane 0 (other lanes hold garbage, mask after)."""
    m = count.bit_length() - 1
    partials = [v]  # partials[i] at lane l sums lanes l .. l + 2^i - 1
    acc = v
    for i in range(m):
        acc = engine.add(acc, engine.rotate(acc, unit << i))
        partials.append(acc)
    total = acc
    offset = 1 << m
    rem = count - offset
    for i in reversed(range(m)):
        if rem >> i & 1:
            total = engine.add(total, engine.rotate(partials[i], unit * offset))
            offset += 1 << i
            rem -= 1 << i
    return total


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def axis_sum(engine: SlotEngine, v: SlotVector, axis: str, layout: PackedLayout) -> SlotVector:
    """Per block, sum all rows (resp. columns) into the first (rotations
    only).  As with :func:`reduce_blocks`, only the first row (resp. column)
    is meaningful afterwards; the other lanes hold partial sums for the
    caller to mask."""
    return _run_lane_sum(engine, v, _axis_unit(layout, axis), layout.k)


def repl_no_padding(
    engine: SlotEngine,
    v: SlotVector,
    start_index: int,
    layout: PackedLayout,
    axis: str = COLUMN,
) -> SlotVector:
    """Replicate the single non-zero row/column at ``start_index`` over the block.

    Works for any k; costs ``len(replication_schedule(k,
    start_index).steps)`` rotations and no multiplications.  The input must hold exactly one non-zero
    lane per block, at the same ``start_index`` everywhere.
    """
    return _run_replication(engine, v, _axis_unit(layout, axis), layout.k, start_index)


def batch_extract_replicate(
    engine: SlotEngine,
    x: SlotVector,
    positions,
    layout: PackedLayout,
) -> SlotVector:
    """Fill each block with one value taken from the compact encoding ``x``.

    ``positions`` holds one integer source slot per output block, for a
    prefix of the blocks; all sources must sit at the same (row, column)
    offset of their stripes so a single mask plus the two replication
    passes re-encode every block at once.  Total cost: one plaintext
    multiplication and rotations.
    """
    pos = np.asarray(positions, dtype=np.int64)
    blocks = np.arange(pos.size)
    r, rest = np.divmod(pos, layout.width)
    blk, c = np.divmod(rest, layout.k)
    too_many = blocks >= layout.blocks_per_ct
    bad = too_many | (blk != blocks) | (r < 0) | (r >= layout.k)
    if bad.any():
        i = int(np.argmax(bad))
        if too_many[i]:
            raise EngineError("more positions than blocks in the layout")
        raise EngineError(f"position {pos[i]} does not address block {blocks[i]}")
    if pos.size == 0 or np.any(r != r[0]) or np.any(c != c[0]):
        offsets = sorted(set(zip(r.tolist(), c.tolist())))
        raise EngineError(f"positions must share one in-block offset, got {offsets}")
    row0, col0 = int(r[0]), int(c[0])
    sel = np.zeros(layout.slot_count)
    sel[pos] = 1.0

    selected = engine.mul(x, engine.plaintext(sel))
    filled = repl_no_padding(engine, selected, col0, layout, axis=COLUMN)
    return repl_no_padding(engine, filled, row0, layout, axis=ROW)


def reduce_blocks(engine: SlotEngine, v: SlotVector, layout: PackedLayout) -> SlotVector:
    """Sum all blocks of the ciphertext into block 0 (rotations only; block 0
    is the meaningful one afterwards, the rest is garbage for the caller to
    mask)."""
    if layout.blocks_per_ct == 1:
        return v
    return _run_lane_sum(engine, v, layout.k, layout.blocks_per_ct)
