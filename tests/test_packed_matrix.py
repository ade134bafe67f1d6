import numpy as np
import pytest

import reference_ops as ref
from vpkmeans.packed_matrix import (
    COLUMN,
    ROW,
    PackedLayout,
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


def mask(engine, v, axis, index, layout):
    return engine.mul(v, engine.plaintext(layout.axis_mask(axis, index)))


# -- layout -------------------------------------------------------------------


def test_layout_invariants():
    lay = PackedLayout(14, slot_count=1 << 14)
    assert lay.stride == 196
    assert lay.blocks_per_ct == 83
    assert lay.blocks_per_ct * lay.stride <= 1 << 14


def test_layout_rejects_bad_params():
    with pytest.raises(ValueError):
        PackedLayout(1)
    with pytest.raises(ValueError):
        PackedLayout(5, slot_count=16)  # no block fits
    with pytest.raises(ValueError):
        PackedLayout(3, slot_count=64, blocks_per_ct=9)


# -- mask ---------------------------------------------------------------------


def test_mask_row_example():
    eng = make()
    lay = PackedLayout(2, slot_count=64)
    blocks = [np.array([[1.0, 2], [3, 4]])] + [np.zeros((2, 2))] * (lay.blocks_per_ct - 1)
    out = dec_blocks(eng, lay, mask(eng, enc_blocks(eng, lay, blocks), ROW, 0, lay))
    assert np.array_equal(out[0], [[1, 2], [0, 0]])


def test_mask_column_example():
    eng = make()
    lay = PackedLayout(2, slot_count=64)
    blocks = [np.array([[1.0, 2], [3, 4]])] + [np.zeros((2, 2))] * (lay.blocks_per_ct - 1)
    out = dec_blocks(eng, lay, mask(eng, enc_blocks(eng, lay, blocks), COLUMN, 1, lay))
    assert np.array_equal(out[0], [[0, 2], [0, 4]])


def test_mask_two_blocks_row1():
    eng = make(slot_count=8)
    lay = PackedLayout(2, slot_count=8)
    blocks = [np.array([[1.0, 2], [3, 4]]), np.array([[5.0, 6], [7, 8]])]
    out = dec_blocks(eng, lay, mask(eng, enc_blocks(eng, lay, blocks), ROW, 1, lay))
    assert np.array_equal(out[0], [[0, 0], [3, 4]])
    assert np.array_equal(out[1], [[0, 0], [7, 8]])


def test_mask_index_out_of_range():
    lay = PackedLayout(3, slot_count=64)
    with pytest.raises(IndexError):
        lay.axis_mask(ROW, 3)


# -- sum vs the loop reference -----------------------------------------------


def test_sum_examples():
    eng = make(slot_count=8)
    lay = PackedLayout(2, slot_count=8)
    blocks = [np.array([[1.0, 2], [3, 4]]), np.zeros((2, 2))]
    summed = axis_sum(eng, enc_blocks(eng, lay, blocks), ROW, lay)
    rows = dec_blocks(eng, lay, mask(eng, summed, ROW, 0, lay))
    assert np.array_equal(rows[0], [[4, 6], [0, 0]])
    summed = axis_sum(eng, enc_blocks(eng, lay, blocks), COLUMN, lay)
    cols = dec_blocks(eng, lay, mask(eng, summed, COLUMN, 0, lay))
    assert np.array_equal(cols[0], [[3, 0], [7, 0]])
    assert np.array_equal(rows[1], np.zeros((2, 2)))


@pytest.mark.parametrize("k", [2, 4, 3, 5, 7])
@pytest.mark.parametrize("axis", [ROW, COLUMN])
def test_sum_matches_reference(k, axis):
    eng = make(slot_count=256)
    lay = PackedLayout(k, slot_count=256)
    rng = np.random.default_rng(k * 11 + (axis == ROW))
    blocks = [rng.normal(size=(k, k)) for _ in range(lay.blocks_per_ct)]
    summed = axis_sum(eng, enc_blocks(eng, lay, blocks), axis, lay)
    got = dec_blocks(eng, lay, mask(eng, summed, axis, 0, lay))
    want = ref.ref_sum(blocks, axis)
    for g, w in zip(got, want):
        assert np.allclose(g, w, atol=1e-12)


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
    before = eng.stats.snapshot()
    out = repl_no_padding(eng, eng.encrypt(slots), 0, lay, axis=COLUMN)
    assert eng.stats.rotations_since(before) == 5  # doubling 2,4,8 then +4,+2
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
            before = eng.stats.snapshot()
            repl_no_padding(eng, eng.encrypt(np.zeros(256)), start, lay, axis=axis)
            assert eng.stats.rotations_since(before) == rotations, (k, start, axis)


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
    # 18 live slots as a 3 x 6 grid embedded in a 32-slot vector:
    # two 3x3 blocks, extract the 6th element of each (x9 and x12, 1-indexed)
    eng = make(slot_count=32, depth=8)
    lay = PackedLayout(3, slot_count=32, blocks_per_ct=2)
    compact = eng.encrypt(np.arange(1.0, 19.0))
    positions = [8, 11]  # x9 and x12
    out = batch_extract_replicate(eng, compact, positions, lay)
    blocks = dec_blocks(eng, lay, out)
    assert np.array_equal(blocks[0], np.full((3, 3), 9.0))
    assert np.array_equal(blocks[1], np.full((3, 3), 12.0))
    assert out.depth_consumed == 1  # one plaintext mask multiplication


def test_batch_extract_single_block_position0():
    eng = make(slot_count=32, depth=8)
    lay = PackedLayout(3, slot_count=32, blocks_per_ct=1)
    compact = eng.encrypt([4.0] + [0] * 31)
    out = dec_blocks(eng, lay, batch_extract_replicate(eng, compact, [0], lay))
    assert np.array_equal(out[0], np.full((3, 3), 4.0))


def test_batch_extract_zero_source():
    eng = make(slot_count=32, depth=8)
    lay = PackedLayout(3, slot_count=32, blocks_per_ct=2)
    compact = eng.encrypt(np.zeros(32))
    out = dec_blocks(eng, lay, batch_extract_replicate(eng, compact, [0, 3], lay))
    assert np.array_equal(out[0], np.zeros((3, 3)))
    assert np.array_equal(out[1], np.zeros((3, 3)))


def test_batch_extract_mismatched_offsets_rejected():
    eng = make(slot_count=32, depth=8)
    lay = PackedLayout(3, slot_count=32, blocks_per_ct=2)
    compact = eng.encrypt(np.arange(32.0))
    with pytest.raises(EngineError, match="offset"):
        batch_extract_replicate(eng, compact, [8, 10], lay)


def test_batch_extract_equals_independent_single_extracts():
    eng = make(slot_count=256, depth=8)
    lay = PackedLayout(4, slot_count=256)  # 16 blocks
    rng = np.random.default_rng(9)
    values = rng.normal(size=256)
    compact = eng.encrypt(values)
    positions = [ref.slot_index(lay, 2, b, 1) for b in range(lay.blocks_per_ct)]
    got = dec_blocks(eng, lay, batch_extract_replicate(eng, compact, positions, lay))
    want = ref.ref_extract_replicate(lay, values, positions)
    for g, w in zip(got, want):
        assert np.allclose(g, w, atol=1e-12)


def test_batch_extract_takes_arrays():
    eng = make(slot_count=256, depth=8)
    lay = PackedLayout(4, slot_count=256)  # 16 blocks
    values = np.random.default_rng(3).normal(size=256)
    compact = eng.encrypt(values)
    positions = np.array([ref.slot_index(lay, 1, b, 3) for b in range(7)])
    got = dec_blocks(eng, lay, batch_extract_replicate(eng, compact, positions, lay))
    want = ref.ref_extract_replicate(lay, values, list(positions))
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("positions,message", [
    ([0, 3, 6], "more positions than blocks"),  # the layout has 2 blocks
    ([0, 0], "position 0 does not address block 1"),
    ([-6], "does not address block 0"),
    ([0, 27], "does not address block 1"),  # row 4 of a 3-row block
    ([], "offset"),
])
def test_batch_extract_rejects_bad_positions(positions, message):
    eng = make(slot_count=32, depth=8)
    lay = PackedLayout(3, slot_count=32, blocks_per_ct=2)
    with pytest.raises(EngineError, match=message):
        batch_extract_replicate(eng, eng.encrypt(np.arange(32.0)), positions, lay)


def test_reduce_blocks_sums_into_block0():
    eng = make(slot_count=256, depth=8)
    lay = PackedLayout(3, slot_count=256)  # 28 blocks
    rng = np.random.default_rng(4)
    blocks = [rng.normal(size=(3, 3)) for _ in range(lay.blocks_per_ct)]
    got = dec_blocks(eng, lay, reduce_blocks(eng, enc_blocks(eng, lay, blocks), lay))[0]
    assert np.allclose(got, ref.ref_reduce_blocks(blocks), atol=1e-12)


def test_sum_then_repl_gives_block_dim_times_row():
    eng = make(slot_count=64)
    lay = PackedLayout(4, slot_count=64)
    rng = np.random.default_rng(8)
    row = rng.normal(size=4)
    blocks = [np.zeros((4, 4))]
    blocks[0][0] = row
    filled = repl_no_padding(eng, enc_blocks(eng, lay, blocks), 0, lay, axis=ROW)
    summed = dec_blocks(eng, lay, axis_sum(eng, filled, ROW, lay))[0]
    assert np.allclose(summed[0], 4 * row, atol=1e-12)
