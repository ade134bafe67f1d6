import numpy as np
import pytest

import reference_ops as ref
from vpkmeans.packed_matrix import (
    COLUMN,
    ROW,
    PackedLayout,
    _constant,
    axis_sum,
    batch_extract_replicate,
    reduce_blocks,
    repl_no_padding,
    replication_schedule,
)
from vpkmeans.slot_engine import EngineConfig, EngineError, SlotEngine


def make(slot_count=64, depth=16):
    return SlotEngine(EngineConfig(slot_count=slot_count, depth_budget=depth))


def enc_blocks(engine, layout, blocks):
    return engine.encrypt(ref.slots_of(layout, blocks, engine.config.slot_count))


def dec_blocks(engine, layout, v):
    return ref.blocks_of(layout, engine.decrypt(v))


# -- layout -------------------------------------------------------------------


def test_layout_invariants():
    lay = PackedLayout(14, slot_count=1 << 14)
    assert lay.stride == 196
    assert lay.blocks_per_ct == 83
    assert lay.blocks_per_ct * lay.stride <= 1 << 14


def test_layout_rejects_bad_params():
    with pytest.raises(ValueError):
        PackedLayout(1)
    with pytest.raises(ValueError, match="no 5 x 5 block fits in 16 slots"):
        PackedLayout(5, slot_count=16)


@pytest.mark.parametrize("k, slot_count", [(2, 64), (3, 64), (5, 1 << 10), (15, 1 << 14)])
def test_transpose_pairs_mirror_every_upper_slot(k, slot_count):
    lay = PackedLayout(k, slot_count=slot_count)
    lo, hi = lay.transpose_pairs()
    want = {ref.slot_index(lay, r, b, c): ref.slot_index(lay, c, b, r)
            for b in range(lay.blocks_per_ct) for r in range(k) for c in range(r + 1, k)}
    assert lo.size == hi.size == len(want)
    assert dict(zip(lo.tolist(), hi.tolist())) == want
    assert len(set(lo.tolist()) | set(hi.tolist())) == 2 * lo.size  # no slot twice
    assert np.shares_memory(lay.transpose_pairs()[1], hi) and not hi.flags.writeable  # cached like the masks


@pytest.mark.parametrize("k, slot_count", [(k, s) for s in (64, 1 << 10, 1 << 14) for k in (*range(3, 17), 31, 64)
                                           if k * k <= s])
def test_batches_take_every_point_once_in_stream_order(k, slot_count):
    lay = PackedLayout(k, slot_count=slot_count)
    width, blocks = lay.width, lay.blocks_per_ct
    for n in (1, width, width + 1, lay.usable_slots, lay.usable_slots + 1):
        # point p sits at grid row p // width, block (p mod width) // k and
        # column p mod k; a batch takes one (row, column) over every block
        p = np.arange(n)
        want = np.full((-(-n // width), k, blocks), -1)
        want[p // width, p % k, p % width // k] = p
        want_rows, want_cols = np.nonzero((want >= 0).any(axis=2))  # C order: by row, then column
        rows, cols, points = lay.batches(n)
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols), n
        assert points.shape == (rows.size, blocks)
        used = points < n
        assert np.array_equal(np.where(used, points, -1), want[rows, cols]), n
        assert np.array_equal(np.sort(points[used]), p), n  # every point exactly once
        assert not np.any(used[:, 1:] & ~used[:, :-1]), n  # the used blocks are a prefix
        assert np.array_equal(points, lay.entry_slots(rows[:, None], cols[:, None]))


# -- mask ---------------------------------------------------------------------


@pytest.mark.parametrize("k, slot_count", [(2, 64), (3, 64), (8, 1 << 14), (15, 1 << 14)])
def test_spread_puts_each_value_on_its_block(k, slot_count):
    layout = PackedLayout(k, slot_count=slot_count)
    values = np.random.default_rng(k).uniform(-1, 1, layout.blocks_per_ct)
    slots = layout.spread(values)
    assert np.array_equal(slots, layout.to_slots(layout.grid(values[None, :, None])))
    assert not slots.flags.writeable


def test_mask_row_example():
    eng = make()
    lay = PackedLayout(2, slot_count=64)
    blocks = [np.array([[1.0, 2], [3, 4]])] + [np.zeros((2, 2))] * (lay.blocks_per_ct - 1)
    masked = eng.mul(enc_blocks(eng, lay, blocks), eng.plaintext(lay.first_row(0.5)))
    assert np.array_equal(dec_blocks(eng, lay, masked)[0], [[0.5, 1], [0, 0]])


def test_first_row_two_blocks():
    eng = make(slot_count=8)
    lay = PackedLayout(2, slot_count=8)
    blocks = [np.array([[1.0, 2], [3, 4]]), np.array([[5.0, 6], [7, 8]])]
    out = dec_blocks(eng, lay, eng.mul(enc_blocks(eng, lay, blocks), eng.plaintext(lay.first_row(1.0))))
    assert np.array_equal(out[0], [[1, 2], [0, 0]])
    assert np.array_equal(out[1], [[5, 6], [0, 0]])
    assert np.array_equal(lay.head_mask(0), [1.0, 1.0] + [0.0] * 6)  # block 0's first row only
    assert np.array_equal(lay.head_mask(1), [0.0, 0.0, 1.0, 1.0] + [0.0] * 4)
    for block in (-1, 2):
        with pytest.raises(EngineError, match="outside the layout"):
            lay.head_mask(block)


@pytest.mark.parametrize("index, want", [
    (3, {3: 2.5}),
    (slice(4, 6), {4: 2.5, 5: 2.5}),
    (np.array([0, 7, 9]), {0: 2.5, 7: 2.5, 9: 2.5}),
])
def test_constant_holds_its_values_at_the_index_only(index, want):
    eng = make(slot_count=16)
    c = _constant(16, index, 2.5)
    assert {i: c[i] for i in np.flatnonzero(c)} == want
    assert c.shape == (16,) and not c.flags.writeable
    assert np.shares_memory(eng.plaintext(c).slots, c)  # wrapped without a copy
    assert np.array_equal(_constant(16, slice(2, 4), (-1.0, 1.0))[1:5], [0.0, -1.0, 1.0, 0.0])


def test_first_row_is_cached_per_layout_and_value():
    a, b = PackedLayout(3, slot_count=64), PackedLayout(3, slot_count=64)
    assert a == b and a.first_row(0.5) is b.first_row(0.5)
    assert a.first_row(0.5) is not a.first_row(0.25)
    assert PackedLayout(3, slot_count=128).first_row(0.5).size == 128
    assert not a.first_row(0.5).flags.writeable
    assert np.array_equal(a.first_row(0.5), [0.5] * a.width + [0.0] * (64 - a.width))


@pytest.mark.parametrize("k, slot_count", [(3, 64), (5, 1 << 10), (15, 1 << 14)])
def test_used_blocks_cover_a_prefix_of_blocks(k, slot_count):
    # a batch's coordinate 0 is its 0/1 used-block values spread over the
    # layout: 1.0 on every slot of the first count blocks, 0 elsewhere
    lay = PackedLayout(k, slot_count=slot_count)
    for count in (1, lay.blocks_per_ct // 2, lay.blocks_per_ct):
        g = lay.grid()
        g[:, :count, :] = 1.0
        want = lay.to_slots(g)
        assert sorted(np.flatnonzero(want)) == sorted(ref.slot_index(lay, r, b, c) for b in range(count)
                                                      for r in range(k) for c in range(k))
        values = (np.arange(lay.blocks_per_ct) < count).astype(np.float64)
        assert np.array_equal(lay.spread(values), want)
        assert np.array_equal(lay.block_values(want), values)


@pytest.mark.parametrize("k, slot_count", [(2, 64), (3, 64), (7, 256), (15, 1 << 14)])
def test_block_values_invert_spread_and_refuse_any_other_vector(k, slot_count):
    lay = PackedLayout(k, slot_count=slot_count)
    values = np.random.default_rng(k).uniform(-1, 1, lay.blocks_per_ct)
    values[::2] = 0.0
    slots = lay.spread(values)
    read = lay.block_values(slots)
    assert np.array_equal(read, values) and read.flags.writeable and not np.shares_memory(read, slots)
    # a zero slot may hold -0.0, as an extraction leaves some
    signed = np.array(slots)
    signed[signed == 0.0] = -0.0
    assert np.array_equal(lay.block_values(signed), values)
    # one changed slot: block 1's first, one inside block 0, the last grid
    # slot and the last slot, which is past the grid unless k is a power of two
    for slot in (k, 1, lay.usable_slots - 1, slot_count - 1):
        bad = np.array(slots)
        bad[slot] += 0.5
        with pytest.raises(EngineError, match="one value per block"):
            lay.block_values(bad)
    with pytest.raises(EngineError, match="one value per block"):
        lay.block_values(slots[: lay.width])


# -- sum vs the loop reference -----------------------------------------------


def first_row(engine, v, layout):
    return dec_blocks(engine, layout, engine.mul(v, engine.plaintext(layout.first_row(1.0))))


def test_sum_examples():
    eng = make(slot_count=8)
    lay = PackedLayout(2, slot_count=8)
    blocks = [np.array([[1.0, 2], [3, 4]]), np.zeros((2, 2))]
    rows = first_row(eng, axis_sum(eng, enc_blocks(eng, lay, blocks), lay), lay)
    assert np.array_equal(rows[0], [[4, 6], [0, 0]])
    assert np.array_equal(rows[1], np.zeros((2, 2)))


@pytest.mark.parametrize("k", range(2, 65))
@pytest.mark.parametrize("axis", [ROW, COLUMN])
def test_sum_matches_reference(k, axis):
    # at least two blocks, so a sum that leaks across stripes shows.  Rows
    # are summed by axis_sum; a column sum is the replication from the last
    # column, the same executor along the unit-1 lanes of the k = 2 path
    slot_count = max(256, 1 << (2 * k * k - 1).bit_length())
    eng = make(slot_count=slot_count)
    lay = PackedLayout(k, slot_count=slot_count)
    rng = np.random.default_rng(k * 11 + (axis == ROW))
    blocks = [rng.normal(size=(k, k)) for _ in range(lay.blocks_per_ct)]
    v = enc_blocks(eng, lay, blocks)
    before = eng.stats.rotations
    if axis == ROW:
        summed = axis_sum(eng, v, lay)
    else:
        summed = repl_no_padding(eng, v, k - 1, lay, axis=COLUMN)
    rotations = eng.stats.rotations - before
    got = dec_blocks(eng, lay, summed)
    want = ref.ref_sum(blocks, axis)
    for g, w in zip(got, want):
        lane = (g[0], w[0]) if axis == ROW else (g[:, 0], w[:, 0])
        assert np.allclose(*lane, atol=1e-12)
    # a lane sum is the replication from the last lane; acceptance 08's bound
    assert rotations == len(replication_schedule(k, k - 1).steps)
    assert rotations <= max(2 * (k.bit_length() - 1) - 1, (k - 1).bit_length())


# -- replication without padding ---------------------------------------------


def test_repl_no_padding_k5_example():
    eng = make(slot_count=32)
    lay = PackedLayout(5, slot_count=32)
    slots = np.zeros(32)
    slots[ref.slot_index(lay, 0, 0, 3)] = 7.0
    out = repl_no_padding(eng, eng.encrypt(slots), 3, lay, axis=COLUMN)
    got = ref.blocks_of(lay, eng.decrypt(out))[0]
    assert np.array_equal(got[0], ref.ref_replicate_flat(7.0, 5))


def test_repl_no_padding_k14_uses_196_slots_and_5_rotations():
    eng = SlotEngine(EngineConfig(slot_count=1 << 14, depth_budget=4))
    lay = PackedLayout(14, slot_count=1 << 14)
    assert lay.stride == 196
    slots = np.zeros(1 << 14)
    for b in range(lay.blocks_per_ct):
        slots[ref.slot_index(lay, 0, b, 0)] = b + 1.0
    before = eng.stats.rotations
    out = repl_no_padding(eng, eng.encrypt(slots), 0, lay, axis=COLUMN)
    assert eng.stats.rotations - before == 5  # doubling 2,4,8 then +4,+2
    got = ref.blocks_of(lay, eng.decrypt(out))
    for b in range(lay.blocks_per_ct):
        assert np.array_equal(got[b][0], np.full(14, b + 1.0))


@pytest.mark.parametrize("k, rotations", [(3, 2), (7, 3)])
def test_repl_no_padding_all_ones_rotation_counts(k, rotations):
    # 3 cannot do better (one rotation reaches at most 2 lanes); 7 needs its
    # non-prefix schedules, since every growing-segment schedule costs 4
    eng = SlotEngine(EngineConfig(slot_count=256, depth_budget=4))
    lay = PackedLayout(k, slot_count=256)
    for start in range(k):
        assert len(replication_schedule(k, start).steps) == rotations
        for axis in (COLUMN, ROW):
            before = eng.stats.rotations
            repl_no_padding(eng, eng.encrypt(np.zeros(256)), start, lay, axis=axis)
            assert eng.stats.rotations - before == rotations, (k, start, axis)


def test_repl_no_padding_rejects_bad_start():
    for count, start in [(5, 5), (5, -1), (7, 7), (7, -1)]:
        with pytest.raises(ValueError):
            replication_schedule(count, start)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8, 9, 12, 14, 15, 16, 31])
def test_repl_no_padding_all_starts_both_axes(k):
    slot_count = 1 << 14 if k * k > 256 else 256
    eng = SlotEngine(EngineConfig(slot_count=slot_count, depth_budget=4))
    lay = PackedLayout(k, slot_count=slot_count)
    rng = np.random.default_rng(k)
    for start in range(k):
        for axis in (COLUMN, ROW):
            values = rng.normal(size=lay.blocks_per_ct)
            slots = np.zeros(slot_count)
            expected = []
            for b, value in enumerate(values):
                want = np.zeros((k, k))
                if axis == COLUMN:
                    slots[ref.slot_index(lay, 0, b, start)] = value
                    want[0] = ref.ref_replicate_flat(value, k)
                else:
                    slots[ref.slot_index(lay, start, b, 0)] = value
                    want[:, 0] = ref.ref_replicate_flat(value, k)
                expected.append(want)
            out = eng.decrypt(repl_no_padding(eng, eng.encrypt(slots), start, lay, axis=axis))
            for b, block in enumerate(ref.blocks_of(lay, out)):
                assert np.array_equal(block, expected[b]), (k, start, axis, b)
            assert not np.any(out[lay.usable_slots:]), (k, start, axis)


# -- batch extraction (Fig-style worked instance) ------------------------------


def test_batch_extract_fig_instance():
    # 27 live slots as a 3 x 9 grid embedded in a 32-slot vector: three 3x3
    # blocks; x12 and x15 (1-indexed) are entry (1, 2) of blocks 0 and 1
    eng = make(slot_count=32, depth=8)
    lay = PackedLayout(3, slot_count=32)
    compact = eng.encrypt(np.arange(1.0, 28.0))
    out = batch_extract_replicate(eng, compact, 1, 2, 2, lay)
    blocks = dec_blocks(eng, lay, out)
    assert np.array_equal(blocks[0], np.full((3, 3), 12.0))
    assert np.array_equal(blocks[1], np.full((3, 3), 15.0))
    assert np.array_equal(blocks[2], np.zeros((3, 3)))
    assert out.depth_consumed == 1  # one plaintext mask multiplication


def test_batch_extract_single_block_position0():
    eng = make(slot_count=32, depth=8)
    lay = PackedLayout(5, slot_count=32)
    assert lay.blocks_per_ct == 1 and lay.width == lay.k
    compact = eng.encrypt([4.0] + [0] * 31)
    out = dec_blocks(eng, lay, batch_extract_replicate(eng, compact, 0, 0, 1, lay))
    assert np.array_equal(out[0], np.full((5, 5), 4.0))


def test_batch_extract_zero_source():
    eng = make(slot_count=32, depth=8)
    lay = PackedLayout(3, slot_count=32)
    compact = eng.encrypt(np.zeros(32))
    out = dec_blocks(eng, lay, batch_extract_replicate(eng, compact, 0, 0, 2, lay))
    assert np.array_equal(out[0], np.zeros((3, 3)))
    assert np.array_equal(out[1], np.zeros((3, 3)))


def test_batch_extract_equals_independent_single_extracts():
    # every block, a prefix of 7 and a single block, each at its own entry
    eng = make(slot_count=256, depth=8)
    lay = PackedLayout(4, slot_count=256)  # 16 blocks
    values = np.random.default_rng(9).normal(size=256)
    compact = eng.encrypt(values)
    for row, col, count in [(2, 1, 16), (1, 3, 7), (3, 3, 1)]:
        positions = [ref.slot_index(lay, row, b, col) for b in range(count)]
        got = dec_blocks(eng, lay, batch_extract_replicate(eng, compact, row, col, count, lay))
        want = ref.ref_extract_replicate(lay, values, positions)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), (row, col, count)


def test_batch_extract_takes_arrays():
    # entry and count read from an integer array arrive as numpy scalars
    eng = make(slot_count=256, depth=8)
    lay = PackedLayout(4, slot_count=256)  # 16 blocks
    values = np.random.default_rng(3).normal(size=256)
    compact = eng.encrypt(values)
    row, col, count = np.array([1, 3, 7])
    positions = [ref.slot_index(lay, 1, b, 3) for b in range(7)]
    got = dec_blocks(eng, lay, batch_extract_replicate(eng, compact, row, col, count, lay))
    want = ref.ref_extract_replicate(lay, values, positions)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


# Each id names the slot list whose fault the entry and count reproduce.
@pytest.mark.parametrize("row, col, count", [
    pytest.param(0, 0, 4, id="positions0-more positions than blocks"),  # the layout has 3 blocks
    pytest.param(0, 3, 2, id="positions1-position 0 does not address block 1"),  # col past the block
    pytest.param(0, -1, 1, id="positions2-does not address block 0"),
    pytest.param(3, 0, 2, id="positions3-does not address block 1"),  # row 4 of a 3-row block
    pytest.param(0, 0, 0, id="positions4-offset"),  # no block to fill
])
def test_batch_extract_rejects_bad_positions(row, col, count):
    eng = make(slot_count=32, depth=8)
    lay = PackedLayout(3, slot_count=32)
    with pytest.raises(EngineError, match="outside the layout"):
        batch_extract_replicate(eng, eng.encrypt(np.arange(32.0)), row, col, count, lay)


def test_reduce_blocks_sums_into_block0():
    # 28 blocks; 72 as at k=15 and 256 as at k=8 in 2^14 slots
    for k, slot_count, count in [(3, 256, 28), (15, 1 << 14, 72), (8, 1 << 14, 256)]:
        eng = make(slot_count=slot_count, depth=8)
        lay = PackedLayout(k, slot_count=slot_count)
        assert lay.blocks_per_ct == count
        rng = np.random.default_rng(4)
        blocks = [rng.normal(size=(k, k)) for _ in range(count)]
        v = enc_blocks(eng, lay, blocks)
        before = eng.stats.rotations
        got = dec_blocks(eng, lay, reduce_blocks(eng, v, lay, 0))[0]
        assert np.allclose(got, ref.ref_reduce_blocks(blocks), atol=1e-12)
        assert eng.stats.rotations - before == len(replication_schedule(count, count - 1).steps)


@pytest.mark.parametrize("k, slot_count", [(3, 256), (15, 1 << 14), (8, 1 << 14), (7, 64)])
def test_reduce_blocks_into_any_block_costs_the_block0_rotations(k, slot_count):
    # the release puts aggregate l in block l % B: every target block takes
    # a schedule as long as block 0's, and its head mask keeps only its total
    eng = make(slot_count=slot_count, depth=8)
    lay = PackedLayout(k, slot_count=slot_count)
    count = lay.blocks_per_ct
    rng = np.random.default_rng(k)
    blocks = [rng.normal(size=(k, k)) for _ in range(count)]
    want = ref.ref_reduce_blocks(blocks)
    v = enc_blocks(eng, lay, blocks)
    for block in sorted({0, 1 % count, count // 2, count - 1}):
        before = eng.stats.rotations
        out = eng.mul(reduce_blocks(eng, v, lay, block), eng.plaintext(lay.head_mask(block)))
        assert eng.stats.rotations - before == len(replication_schedule(count, count - 1).steps)
        got = dec_blocks(eng, lay, out)
        assert np.allclose(got[block][0], want[0], rtol=0, atol=1e-12), block
        assert not np.any(np.delete(eng.decrypt(out), block * k + np.arange(k))), block


def test_lane_sums_into_every_lane_take_schedules_of_one_length():
    for count in range(1, 65):
        lengths = {len(replication_schedule(count, start).steps) for start in range(count)}
        assert len(lengths) == 1, count


def test_sum_then_repl_gives_block_dim_times_row():
    eng = make(slot_count=64)
    lay = PackedLayout(4, slot_count=64)
    rng = np.random.default_rng(8)
    row = rng.normal(size=4)
    blocks = [np.zeros((4, 4))]
    blocks[0][0] = row
    filled = repl_no_padding(eng, enc_blocks(eng, lay, blocks), 0, lay, axis=ROW)
    summed = dec_blocks(eng, lay, axis_sum(eng, filled, lay))[0]
    assert np.allclose(summed[0], 4 * row, atol=1e-12)
