"""Encrypted-matrix utilities over slot vectors.

A ciphertext is viewed as a grid of ``k`` rows by ``blocks_per_ct * k``
columns (C-order), so block ``b`` occupies a ``k``-wide column stripe:
slot(r, b, c) = r*width + b*k + c.  Each point's k x k block takes exactly
k*k slots, with no padding to a power of two.  The grid stores the first
row of every block, then the second row, and so on; any slots past the grid
are unused.  :class:`PackedLayout` is the one place that knows this format.

The packed argmin uses one shape of each operation, and only that shape is
offered: rows summed into the first row (:func:`axis_sum`), a mask on the
first row of every block, one entry of each block replicated over the block
(:func:`batch_extract_replicate`), and blocks summed into one block
(:func:`reduce_blocks`).  Each acts on every block at once with the same
rotation schedule: row steps shift by multiples of ``width``, column steps
by small offsets inside the stripe.  Replication works for any k: most
schedules double a replicated segment as far as possible and then fill the
remainder from cached partial results, and k=7 rotates sums other than that
segment to save a rotation.  A sum of ``count`` lanes into lane j is the
replication from lane ``count - 1 - j``, with the same shift set, so sums
and replications run one executor.  The test suite checks every schedule's
output for every start and k up to 64, and its rotation count against a
bound; it does not check that a schedule is rotation-minimal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .slot_engine import EngineError, SlotEngine, SlotVector

ROW = "row"
COLUMN = "column"


def _constant(slots: int, index, values) -> np.ndarray:
    """A plaintext constant: ``values`` at ``index`` (an int, a slice or an
    index array) of ``slots`` zeros, read-only, so that the engine wraps it
    without a copy."""
    out = np.zeros(slots)
    out[index] = values
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PackedLayout:
    """How k x k blocks tile a slot vector, k*k slots per block; every block
    that fits is used, ``blocks_per_ct`` = slot_count // k^2 of them."""

    k: int
    slot_count: int = 1 << 14

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be at least 2")
        # a plain attribute, not a property: it is read on every replication step
        object.__setattr__(self, "blocks_per_ct", self.slot_count // self.stride)
        if self.blocks_per_ct < 1:
            raise ValueError(f"no {self.k} x {self.k} block fits in {self.slot_count} slots")

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

    def feature_rows(self, n: int) -> int:
        """Grid rows one uploaded feature of ``n`` points takes in its
        party's upload stream.  A feature starts on a row of its own, so
        every point keeps its block and column; at k = 2 it takes whole
        ciphertexts, as the compact path combines ciphertexts slot by slot."""
        rows = -(-n // self.width)
        return rows if self.k > 2 else -(-rows // self.k) * self.k

    def uploads(self, features: int, n: int) -> int:
        """Ciphertexts a party uploading ``features`` features of ``n``
        points sends: its features' rows, one after another, k per
        ciphertext."""
        return -(-features * self.feature_rows(n) // self.k)

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

    def spread(self, values: np.ndarray) -> np.ndarray:
        """``values[b]`` on every slot of block b and zeros past the blocks,
        as ``to_slots(grid(values[None, :, None]))`` gives them, but written
        once into a fresh array that is returned read-only."""
        slots = np.empty(self.slot_count)
        slots[self.usable_slots :] = 0.0
        # every grid row is the values repeated k times: one small repeat,
        # then one broadcast write, twice as fast as the strided (1, B, 1) one
        slots[: self.usable_slots].reshape(self.k, -1)[...] = np.repeat(values, self.k)
        slots.setflags(write=False)
        return slots

    def block_values(self, slots: np.ndarray) -> np.ndarray:
        """The inverse of :meth:`spread`: one value per block, read from
        the block's first slot into a fresh array.  Raises ``EngineError``
        unless ``spread`` of the values gives ``slots`` back, compared by
        value, so a zero slot may hold -0.0."""
        values = np.array(slots[: self.width : self.k], dtype=np.float64)
        if values.size != self.blocks_per_ct or not np.array_equal(self.spread(values), slots):
            raise EngineError(f"the slots do not hold one value per block of {self.k} x {self.k}")
        return values

    def from_slots(self, slots: np.ndarray) -> np.ndarray:
        return np.array(slots[: self.usable_slots]).reshape(
            self.k, self.blocks_per_ct, self.k
        )

    # -- plaintext masks and constants ----------------------------------

    @functools.lru_cache(maxsize=64)
    def first_row(self, scale: float) -> np.ndarray:
        """``scale`` on the first row of every block, 0 elsewhere; cached per
        layout and scale."""
        return _constant(self.slot_count, slice(self.width), scale)

    def head_mask(self, block: int) -> np.ndarray:
        """1.0 on the first row of ``block``, where :func:`reduce_blocks`
        into that block leaves the per-cluster totals; not cached, as a run
        would keep d + 1 of them.  A block outside the layout raises
        ``EngineError``."""
        if not 0 <= block < self.blocks_per_ct:
            raise EngineError(f"block {block} is outside the layout's {self.blocks_per_ct} blocks")
        return _constant(self.slot_count, slice(block * self.k, (block + 1) * self.k), 1.0)

    def releases(self, aggregates: int) -> int:
        """Ciphertexts that release a round's ``aggregates`` aggregates,
        ``blocks_per_ct`` per ciphertext, placed by :meth:`release_slots`."""
        return -(-aggregates // self.blocks_per_ct)

    def release_slots(self, aggregates: int) -> tuple[np.ndarray, np.ndarray]:
        """Where a round's aggregates are released: aggregate l on slots
        (l % B) * k .. (l % B) * k + k - 1 of release ciphertext l // B,
        B = ``blocks_per_ct``, the first row of block l % B.  Returns
        ``(cts, slots)``, of shapes (aggregates, 1) and (aggregates, k), so
        that ``stacked[cts, slots]`` reads every aggregate off the stacked
        release ciphertexts."""
        cts, blocks = np.divmod(np.arange(aggregates)[:, None], self.blocks_per_ct)
        return cts, blocks * self.k + np.arange(self.k)

    def entry_slots(self, row, col) -> np.ndarray:
        """The slot of entry (row, col) in each block, block 0 first.  A row
        past the first k is a row of an upload stream, k per ciphertext, and
        gives that row's stream slots; arrays broadcast against the blocks."""
        return row * self.width + col + self.k * np.arange(self.blocks_per_ct)

    def batches(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The packed batch plan of a feature of ``n`` points, from its first
        stream row: ``(rows, cols, points)``, one batch per stream row and
        column whose first point, row * width + col, is below n, in stream
        order, and ``points = entry_slots(rows[:, None], cols[:, None])``.
        Points at or past n mark unused blocks, the last of a batch."""
        full, rest = divmod(n, self.width)  # only the last, partial row can lack columns
        rows, cols = np.divmod(np.arange(full * self.k + min(rest, self.k)), self.k)
        return rows, cols, self.entry_slots(rows[:, None], cols[:, None])

    @functools.lru_cache(maxsize=16)
    def transpose_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Slot indices ``(lo, hi)`` pairing every slot (r, b, c) with
        r < c with its mirror (c, b, r), one entry per pair; cached per
        layout and read-only."""
        slot = np.arange(self.usable_slots).reshape(self.k, self.blocks_per_ct, self.k)
        r, c = np.triu_indices(self.k, 1)
        pairs = np.stack([slot[r, :, c].ravel(), slot[c, :, r].ravel()])
        pairs.setflags(write=False)
        lo, hi = pairs
        return lo, hi


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
    # Pick which extensions go left so the segment ends exactly at 0: first[t]
    # is the first extension with which some sum to t (a lane sum over 2^14
    # lanes starts at 16,383, too many lanes for a dict of index lists).
    unset = len(lengths)
    first = np.full(start + 1, unset)
    first[0] = -1
    for idx, p in enumerate(lengths):
        if p <= start:
            first[p:][(first[p:] == unset) & (first[: start + 1 - p] < idx)] = idx
    left, t = set(), start
    while t:
        left.add(int(first[t]))
        t -= lengths[first[t]]

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


def _run_lane_sum(engine: SlotEngine, v: SlotVector, unit: int, count: int, lane: int) -> SlotVector:
    """Sum ``count`` lanes into ``lane`` (other lanes hold garbage, mask
    after): the replication from lane ``count - 1 - lane``, as both add
    ``v`` moved towards higher lanes by ``lane + 1 - count``, ..., ``lane``
    lanes over the whole slot vector.  The schedules of every lane have the
    same length, so the choice of lane costs no rotation."""
    return _run_replication(engine, v, unit, count, count - 1 - lane)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def axis_sum(engine: SlotEngine, v: SlotVector, layout: PackedLayout) -> SlotVector:
    """Per block, sum all rows into the first (rotations only): the
    replication from the last row, at ``len(replication_schedule(k, k -
    1).steps)`` rotations.  As with :func:`reduce_blocks`, only the first
    row is meaningful afterwards; the other rows hold partial sums for the
    caller to mask."""
    return _run_lane_sum(engine, v, layout.width, layout.k, 0)


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
    row: int,
    col: int,
    count: int,
    layout: PackedLayout,
) -> SlotVector:
    """Fill each of the first ``count`` blocks with its own entry (row, col)
    of ``x``, and zero the rest.

    One mask, 1.0 on the selected entries and built anew for each call,
    selects them, and the two replication passes re-encode every block at
    once.  Total cost: one plaintext multiplication and rotations.
    """
    if not (0 <= row < layout.k and 0 <= col < layout.k and 0 < count <= layout.blocks_per_ct):
        raise EngineError(f"entry ({row}, {col}) of {count} blocks is outside the layout's "
                          f"{layout.blocks_per_ct} blocks of {layout.k} x {layout.k}")
    sel = _constant(layout.slot_count, layout.entry_slots(row, col)[:count], 1.0)
    selected = engine.mul(x, engine.plaintext(sel))
    filled = repl_no_padding(engine, selected, col, layout, axis=COLUMN)
    return repl_no_padding(engine, filled, row, layout, axis=ROW)


def reduce_blocks(engine: SlotEngine, v: SlotVector, layout: PackedLayout, block: int) -> SlotVector:
    """Sum all blocks of the ciphertext into ``block`` (rotations only; that
    block is the meaningful one afterwards, the rest is garbage for the
    caller to mask with ``layout.head_mask(block)``): a lane sum, a block
    being the lane, at the same rotation count for every target block."""
    return _run_lane_sum(engine, v, layout.k, layout.blocks_per_ct, block)
