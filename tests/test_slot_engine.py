import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval

from vpkmeans import _kernels
from vpkmeans.packed_matrix import PackedLayout
from vpkmeans.secure_argmin import SignApproxConfig, cmp_series
from vpkmeans.slot_engine import (
    CIPHERTEXT,
    PLAINTEXT,
    SEED_BYTES,
    DepthBudgetError,
    DomainError,
    EngineConfig,
    EngineError,
    SizeModel,
    SlotEngine,
    ciphertext_size_bytes,
)


@pytest.fixture
def engine():
    return SlotEngine(EngineConfig(slot_count=16, depth_budget=10))


def test_add_componentwise(engine):
    a = engine.encrypt([1, 2, 0, 0])
    b = engine.encrypt([3, 4, 0, 0])
    assert np.allclose(engine.decrypt(engine.add(a, b))[:4], [4, 6, 0, 0])


def test_add_zero_identity(engine):
    v = engine.encrypt([1.5, -2.5, 3])
    z = engine.encrypt(np.zeros(16))
    assert np.array_equal(engine.decrypt(engine.add(v, z)), engine.decrypt(v))


def test_add_depth_is_max_of_inputs(engine):
    a = engine.encrypt(np.ones(16))
    for _ in range(3):
        a = engine.mul(a, a)  # wrong values, right depth bookkeeping
    assert a.depth_consumed == 3
    p = engine.plaintext(np.ones(16))
    out = engine.add(a, p)
    assert out.depth_consumed == 3
    assert out.kind == CIPHERTEXT


def test_mul_componentwise_and_depth(engine):
    a = engine.encrypt([1, 2])
    b = engine.encrypt([3, 4])
    out = engine.mul(a, b)
    assert np.allclose(engine.decrypt(out)[:2], [3, 8])
    assert out.depth_consumed == 1


def test_mul_by_ones_plaintext_keeps_values_costs_level(engine):
    v = engine.encrypt([2.5, -1, 4])
    out = engine.mul(v, engine.plaintext(np.ones(16)))
    assert np.array_equal(engine.decrypt(out), engine.decrypt(v))
    assert out.depth_consumed == 1


def test_mul_at_budget_boundary_raises():
    eng = SlotEngine(EngineConfig(slot_count=16, depth_budget=2))
    v = eng.encrypt(np.ones(16))
    v = eng.mul(v, v)
    v = eng.mul(v, v)
    with pytest.raises(DepthBudgetError, match="mul"):
        eng.mul(v, v)


def test_plaintext_times_plaintext_stays_plaintext(engine):
    a = engine.plaintext([1, 2])
    out = engine.mul(a, a)
    assert out.kind == PLAINTEXT
    assert out.depth_consumed == 0


def test_rotate_examples(engine):
    v = engine.encrypt([1, 2, 3, 4] + [0] * 12)
    assert np.allclose(engine.decrypt(engine.rotate(v, 1))[:4], [2, 3, 4, 0])
    assert np.array_equal(engine.decrypt(engine.rotate(v, 0)), engine.decrypt(v))
    assert np.array_equal(engine.decrypt(engine.rotate(v, 16)), engine.decrypt(v))


def test_rotate_by_zero_is_not_counted(engine):
    v = engine.encrypt(np.arange(16.0))
    assert engine.rotate(v, 0) is v
    assert engine.rotate(v, -16) is v  # a whole turn is no rotation either
    assert engine.stats.rotations == 0
    engine.rotate(v, 17)
    assert engine.stats.rotations == 1


def test_rotate_left_four_on_full_vector(engine):
    vals = np.arange(16.0)
    v = engine.encrypt(vals)
    assert np.array_equal(engine.decrypt(engine.rotate(v, 4)), np.roll(vals, -4))


@given(r=st.integers(min_value=-40, max_value=40))
@settings(max_examples=40, deadline=None)
def test_rotate_roundtrip(r):
    eng = SlotEngine(EngineConfig(slot_count=16, depth_budget=4))
    vals = np.arange(16.0) * 0.5 - 3
    v = eng.encrypt(vals)
    out = eng.rotate(eng.rotate(v, r), -r)
    assert np.array_equal(eng.decrypt(out), vals)


def test_encrypt_decrypt_roundtrip(engine):
    out = engine.decrypt(engine.encrypt([1.5, -2]))
    assert np.allclose(out, [1.5, -2] + [0] * 14)


def test_decrypt_plaintext_returns_slots(engine):
    p = engine.plaintext([7, 8])
    assert np.allclose(engine.decrypt(p)[:2], [7, 8])


@pytest.mark.parametrize("wrap", ["encrypt", "plaintext"])
@pytest.mark.parametrize("shape", [(16,), (4, 4)])
def test_wrapping_copies_a_writeable_array(engine, wrap, shape):
    values = np.arange(16.0).reshape(shape)
    v = getattr(engine, wrap)(values)
    values[0] = 99.0
    assert np.array_equal(v.slots, np.arange(16.0))
    assert values.flags.writeable


@pytest.mark.parametrize("wrap", ["encrypt", "plaintext"])
def test_wrapping_keeps_a_read_only_array(engine, wrap):
    values = np.arange(16.0)
    values.setflags(write=False)
    v = getattr(engine, wrap)(values)
    assert np.shares_memory(v.slots, values)
    assert np.array_equal(v.slots, np.arange(16.0))


def test_encrypt_too_many_values(engine):
    with pytest.raises(EngineError):
        engine.encrypt(np.ones(17))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_encrypt_rejects_non_finite(engine, bad):
    with pytest.raises(EngineError, match="finite"):
        engine.encrypt([1.0, bad])
    assert engine.stats.encryptions == 0


def test_homomorphism_matches_plain_arithmetic(engine):
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=16), rng.normal(size=16)
    got_add = engine.decrypt(engine.add(engine.encrypt(a), engine.encrypt(b)))
    got_mul = engine.decrypt(engine.mul(engine.encrypt(a), engine.encrypt(b)))
    assert np.array_equal(got_add, a + b)
    assert np.array_equal(got_mul, a * b)


def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(slot_count=24)
    with pytest.raises(ValueError):
        SizeModel(bytes_per_slot_per_level=0)


@pytest.mark.parametrize("rate", [True, "8", 0, -1.0, math.inf, math.nan])
def test_size_model_refuses_a_rate_that_is_not_a_positive_real(rate):
    # True used to pass for 1 byte per slot per level
    with pytest.raises(ValueError, match="bytes_per_slot_per_level must be positive and finite"):
        SizeModel(bytes_per_slot_per_level=rate)


def test_size_model_takes_numpy_and_int_rates():
    assert SizeModel(np.float32(2.5)).bytes_per_slot_per_level == 2.5
    assert SizeModel(8).bytes_per_slot_per_level == 8


@pytest.mark.parametrize("field", ["slot_count", "depth_budget"])
@pytest.mark.parametrize("value", [1024.0, True, "1024", 2.5])
def test_config_counts_must_be_ints(field, value):
    # a float slot count used to reach ``&`` and a bool passed for 1
    with pytest.raises(ValueError, match=f"{field} must be a whole number"):
        EngineConfig(**{field: value})


def test_config_counts_take_numpy_integers():
    cfg = EngineConfig(slot_count=np.int64(1024), depth_budget=np.int32(5))
    assert (cfg.slot_count, cfg.depth_budget) == (1024, 5)


def test_slot_count_stops_at_ring_dimension_2_17():
    # a vector of the largest slot count takes 512 KiB; the next power of two
    # is refused before any vector exists
    assert EngineConfig(slot_count=1 << 16).slot_count == 1 << 16
    with pytest.raises(ValueError, match="slot_count must be a power of two up to 65536"):
        EngineConfig(slot_count=1 << 17)


# -- eval_chebyshev -----------------------------------------------------------


def _scalar_clenshaw(coeffs, x):
    b1 = b2 = 0.0
    for c in coeffs[:0:-1]:
        b1, b2 = c + 2 * x * b1 - b2, b1
    return coeffs[0] + x * b1 - b2


def test_chebyshev_identity_polynomial(engine):
    v = engine.encrypt([0.5, -0.5])
    out = engine.eval_chebyshev(v, [0.0, 1.0])
    assert np.allclose(engine.decrypt(out)[:2], [0.5, -0.5])


def test_chebyshev_agrees_with_scalar_clenshaw(engine):
    rng = np.random.default_rng(3)
    xs = rng.uniform(-1, 1, 16)
    generic = rng.normal(size=40) / np.arange(1, 41)
    shifted = cmp_series(SignApproxConfig(degree=63))  # c0 = 0.5 plus the fold
    odd = shifted.copy()
    odd[0] = 0.0  # takes the x * q(2x^2 - 1) fold
    for coeffs in (generic, odd, shifted):
        got = engine.decrypt(engine.eval_chebyshev(engine.encrypt(xs), coeffs))
        want = [_scalar_clenshaw(coeffs, x) for x in xs]
        assert np.max(np.abs(got - want)) < 1e-9


@pytest.mark.parametrize("folded", [False, True])
@pytest.mark.parametrize("length", [2, 3, 31, 32, 33, 64, 65, 300, 1024])
def test_chebyshev_tree_shapes(length, folded):
    # lengths 2 and 3 are a single leaf; the others give trees of 3 to 16
    # leaves, full (32, 64, 1024) or with a partial last leaf or subtree.
    # Folded series (a constant plus odd terms) run their half-length q, and
    # folded length 1024 has the degree-1023 comparator's tree
    rng = np.random.default_rng(length)
    coeffs = rng.normal(size=length) / np.arange(1, length + 1)
    if folded:
        coeffs[2::2] = 0.0
    eng = SlotEngine(EngineConfig(slot_count=64, depth_budget=12))
    xs = np.concatenate([[-1.0, 0.0, 1.0], rng.uniform(-1, 1, 61)])
    got = eng.decrypt(eng.eval_chebyshev(eng.encrypt(xs), coeffs))
    want = [_scalar_clenshaw(coeffs, x) for x in xs]
    assert np.max(np.abs(got - want)) < 1e-9
    assert np.max(np.abs(got - chebval(xs, coeffs))) < 1e-9


def test_comparator_tie_is_exactly_half():
    eng = SlotEngine(EngineConfig(slot_count=16, depth_budget=12))
    zeros = eng.encrypt(np.zeros(16))
    out = eng.decrypt(eng.eval_chebyshev(zeros, cmp_series(SignApproxConfig())))
    assert np.all(out == 0.5)


def mirrored_grid(k: int):
    """A layout and its row - column grid, d_c - d_r at (r, b, c), with the
    last two blocks unused and two pairs at +-(1 + 1e-7), where the clip
    runs."""
    lay = PackedLayout(k)
    used = lay.blocks_per_ct - 2
    d = np.random.default_rng(k).uniform(-0.5, 0.5, size=(used, k))
    grid = lay.grid()
    grid[:, :used, :] = d[None, :, :] - d.T[:, :, None]
    for r, b, c in ((0, 0, 1), (k - 2, used - 1, k - 1)):
        grid[r, b, c], grid[c, b, r] = 1 + 1e-7, -(1 + 1e-7)
    return lay, lay.to_slots(grid)


def eval_both_ways(x, coeffs, pairs):
    """(slots, depth, stats) of eval_chebyshev on a fresh engine, without
    and with ``pairs``."""
    runs = []
    for p in (None, pairs):
        eng = SlotEngine(EngineConfig(depth_budget=12))
        out = eng.eval_chebyshev(eng.encrypt(x), coeffs, p)
        runs.append((eng.decrypt(out), out.depth_consumed, eng.stats))
    return runs


@pytest.mark.parametrize("k", [3, 8, 15])
def test_paired_evaluation_is_bit_identical(k, bsgs_sizes):
    lay, x = mirrored_grid(k)
    lo, hi = lay.transpose_pairs()
    (full, full_depth, full_stats), (paired, depth, stats) = eval_both_ways(
        x, cmp_series(SignApproxConfig()), (lo, hi))
    # the diagonal and the unused blocks are zeros, which neither call evaluates;
    # the second call took the paired path and skips hi too
    assert bsgs_sizes == [np.count_nonzero(x), np.count_nonzero(np.delete(x, hi))]
    assert np.array_equal(paired, full)
    assert depth == full_depth
    assert stats == full_stats


@pytest.mark.parametrize("k", [3, 8, 15])
def test_paired_evaluation_falls_back_when_a_pair_is_broken(k, bsgs_sizes):
    lay, x = mirrored_grid(k)
    lo, hi = lay.transpose_pairs()
    x[hi[len(hi) // 2]] += 1e-3
    (full, _, _), (paired, _, _) = eval_both_ways(x, cmp_series(SignApproxConfig()), (lo, hi))
    assert bsgs_sizes == [np.count_nonzero(x)] * 2
    assert np.array_equal(paired, full)


def test_paired_evaluation_needs_a_folded_series(bsgs_sizes):
    lay, x = mirrored_grid(3)
    (full, _, _), (paired, _, _) = eval_both_ways(x, cmp_series(SignApproxConfig(degree=5)),
                                                  lay.transpose_pairs())
    # degree 5 is too short to fold, so both calls evaluate every slot, zeros included
    assert bsgs_sizes == [x.size, x.size]
    assert np.array_equal(paired, full)


def every_slot(coeffs, x):
    """The folded series evaluated on every slot, zeros included, as the
    kernel did before it skipped zero slots."""
    c0, leaves = _kernels._plan(coeffs.tobytes())
    return c0 + x * _kernels._bsgs(leaves, 2.0 * x * x - 1.0)


@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["+0", "-0"])
def test_zero_slots_take_c0_without_a_series_evaluation(zero, bsgs_sizes):
    coeffs = cmp_series(SignApproxConfig())
    x = np.full(64, zero)
    for pairs in (None, (np.arange(32), np.arange(32, 64))):
        out = _kernels.eval_series(coeffs, x, pairs)
        assert out.tobytes() == np.full(64, coeffs[0]).tobytes()
    assert bsgs_sizes == []


def test_a_vector_without_zero_slots_is_evaluated_whole(bsgs_sizes):
    coeffs = cmp_series(SignApproxConfig())
    x = np.random.default_rng(4).uniform(0.01, 1.0, 64) * np.resize([1.0, -1.0], 64)
    out = _kernels.eval_series(coeffs, x)
    assert bsgs_sizes[0] == x.size
    assert out.tobytes() == every_slot(coeffs, x).tobytes()


def test_skipping_zero_slots_is_bit_identical(bsgs_sizes):
    coeffs = cmp_series(SignApproxConfig())
    x = np.random.default_rng(5).uniform(-1.0, 1.0, 64)
    x[::3] = 0.0
    x[1::7] = -0.0
    out = _kernels.eval_series(coeffs, x)
    assert bsgs_sizes[0] == np.count_nonzero(x) < x.size
    assert out.tobytes() == every_slot(coeffs, x).tobytes()


def test_rotate_refuses_a_restricted_vector(engine):
    v = engine.restrict(engine.encrypt(np.arange(16.0)), 8)
    with pytest.raises(EngineError, match="restricted"):
        engine.rotate(v, 1)
    with pytest.raises(EngineError, match="mismatch"):
        engine.add(v, engine.encrypt(np.ones(16)))


def test_restrict_and_widen_are_free_and_keep_depth_and_kind(engine):
    ct = engine.mul(engine.encrypt(np.arange(1.0, 17.0)), engine.plaintext(np.ones(16)))
    pt = engine.plaintext(np.arange(16.0))
    before = replace(engine.stats)
    short = engine.restrict(ct, 5)
    wide = engine.widen(short)
    assert engine.stats == before
    assert (short.depth_consumed, short.kind) == (wide.depth_consumed, wide.kind) == (1, CIPHERTEXT)
    assert np.array_equal(engine.decrypt(short), np.arange(1.0, 6.0))
    assert np.array_equal(engine.decrypt(wide), np.concatenate([np.arange(1.0, 6.0), np.zeros(11)]))
    assert engine.restrict(pt, 16).kind == engine.widen(pt).kind == PLAINTEXT
    assert np.array_equal(engine.decrypt(engine.widen(ct)), engine.decrypt(ct))
    for count in (0, 17):
        with pytest.raises(EngineError):
            engine.restrict(ct, count)


def test_chebyshev_depth_model(engine):
    v = engine.encrypt(np.zeros(16))
    out = engine.eval_chebyshev(v, np.ones(8))  # degree 7 -> 3 + 1 levels
    assert out.depth_consumed == 4
    out = engine.eval_chebyshev(v, np.ones(9))  # degree 8 -> ceil(log2 9) + 1 = 5
    assert out.depth_consumed == 5


def test_chebyshev_domain_violation(engine):
    # NaN compares False with any bound, so a `>` check lets it through;
    # encrypt rejects NaN, so it is made by overflow: inf - inf
    with np.errstate(over="ignore", invalid="ignore"):
        big = engine.mul(engine.encrypt([0.5, 1e308]), engine.plaintext([1.0, 1e308]))
        nan = engine.sub(big, big)
    for bad in (engine.encrypt([1.5]), nan):
        with pytest.raises(DomainError):
            engine.eval_chebyshev(bad, [0.0, 1.0])


def test_chebyshev_budget(engine):
    eng = SlotEngine(EngineConfig(slot_count=16, depth_budget=3))
    v = eng.encrypt(np.zeros(16))
    with pytest.raises(DepthBudgetError):
        eng.eval_chebyshev(v, np.ones(8))


# -- depth of random expression trees vs an independent calculator -----------


def _tree_depth(node):
    if node[0] == "leaf":
        return 0, node[1]  # (depth, kind)
    if node[0] == "rot":
        return _tree_depth(node[1])
    ld, lk = _tree_depth(node[1])
    rd, rk = _tree_depth(node[2])
    kind = CIPHERTEXT if CIPHERTEXT in (lk, rk) else PLAINTEXT
    d = max(ld, rd)
    if node[0] == "mul" and kind == CIPHERTEXT:
        d += 1
    if kind == PLAINTEXT:
        d = 0
    return d, kind


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_depth_matches_syntax_tree(data):
    eng = SlotEngine(EngineConfig(slot_count=8, depth_budget=64))

    def build(depth_left):
        choice = data.draw(st.sampled_from(
            ["leaf", "leaf", "mul", "add", "rot"] if depth_left else ["leaf"]))
        if choice == "leaf":
            kind = data.draw(st.sampled_from([CIPHERTEXT, PLAINTEXT]))
            vals = np.full(8, 0.5)
            vec = eng.encrypt(vals) if kind == CIPHERTEXT else eng.plaintext(vals)
            return ("leaf", kind), vec
        if choice == "rot":
            node, vec = build(depth_left - 1)
            return ("rot", node), eng.rotate(vec, data.draw(st.integers(0, 7)))
        ln, lv = build(depth_left - 1)
        rn, rv = build(depth_left - 1)
        if choice == "mul":
            return ("mul", ln, rn), eng.mul(lv, rv)
        return ("add", ln, rn), eng.add(lv, rv)

    node, vec = build(4)
    want, _kind = _tree_depth(node)
    assert vec.depth_consumed == want


# -- size model ---------------------------------------------------------------


def test_size_formula_example():
    cfg = EngineConfig(slot_count=1 << 14, depth_budget=18,
                       size_model=SizeModel(bytes_per_slot_per_level=8))
    assert ciphertext_size_bytes(0, cfg) == 524_288


def test_size_monotone_in_levels():
    cfg = EngineConfig()
    sizes = [ciphertext_size_bytes(l, cfg) for l in range(6)]
    assert all(b > a for a, b in zip(sizes, sizes[1:]))


def test_size_negative_levels_rejected():
    with pytest.raises(ValueError):
        ciphertext_size_bytes(-1, EngineConfig())


@pytest.mark.parametrize("levels", [0, 1, 18])
def test_a_seeded_ciphertext_is_one_polynomial_and_the_seed(levels):
    cfg = EngineConfig()
    assert ciphertext_size_bytes(levels, cfg, True) == ciphertext_size_bytes(levels, cfg) // 2 + SEED_BYTES


def test_only_a_fresh_ciphertext_has_a_seeded_size(engine):
    fresh = engine.encrypt(np.arange(16.0))
    assert engine.size_bytes(fresh, seeded=True) == ciphertext_size_bytes(10, engine.config, True)
    used = engine.mul(fresh, engine.plaintext(np.full(16, 0.5)))
    for v in (engine.plaintext(np.ones(16)), used, engine.drop_to_depth(fresh, 10)):
        with pytest.raises(EngineError, match="only a fresh ciphertext can be seeded"):
            engine.size_bytes(v, seeded=True)
        assert engine.size_bytes(v) > 0  # the full size stays defined


# -- level dropping -------------------------------------------------------------


def test_drop_to_depth_is_free_and_shrinks(engine):
    v = engine.mul(engine.encrypt(np.arange(16.0)), engine.plaintext(np.full(16, 0.5)))
    before = replace(engine.stats)
    same = engine.drop_to_depth(v, 1)
    low = engine.drop_to_depth(v, engine.config.depth_budget)
    assert same.depth_consumed == 1 and low.depth_consumed == 10
    assert np.array_equal(engine.decrypt(low), engine.decrypt(v))
    assert low.kind == CIPHERTEXT
    assert engine.size_bytes(low) == ciphertext_size_bytes(0, engine.config) < engine.size_bytes(v)
    stats = replace(engine.stats)
    assert stats.max_depth_seen == 10
    stats.max_depth_seen = before.max_depth_seen
    assert stats == before  # no operation is counted


def test_drop_to_depth_rejects_plaintext_and_bad_targets(engine):
    v = engine.mul(engine.encrypt(np.ones(16)), engine.plaintext(np.ones(16)))
    with pytest.raises(EngineError, match="plaintext"):
        engine.drop_to_depth(engine.plaintext(np.ones(16)), 3)
    with pytest.raises(EngineError, match="below"):
        engine.drop_to_depth(v, 0)
    with pytest.raises(DepthBudgetError, match="budget"):
        engine.drop_to_depth(v, engine.config.depth_budget + 1)


def test_stats_counters(engine):
    before = replace(engine.stats)
    v = engine.encrypt(np.ones(16))
    engine.rotate(v, 3)
    engine.mul(v, v)
    engine.mul(v, engine.plaintext(np.ones(16)))
    assert engine.stats.rotations - before.rotations == 1
    assert engine.stats.ct_mults == before.ct_mults + 1
    assert engine.stats.pt_mults == before.pt_mults + 1
