import math

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

import reference_ops as ref
from vpkmeans.packed_matrix import PackedLayout
from vpkmeans.secure_argmin import (
    STEEPNESS,
    SignApproxConfig,
    argmin_packed,
    argmin_two,
    cmp_series,
    compare,
    indicator_phi,
    phi_depth,
    rank,
)
from vpkmeans.slot_engine import EngineConfig, SlotEngine, chebyshev_depth


CFG = SignApproxConfig()


def make(slot_count=256, depth=40):
    return SlotEngine(EngineConfig(slot_count=slot_count, depth_budget=depth))


def encode_row_col(engine, layout, blocks_values):
    """Row and column encodings of per-block vectors, built in plaintext."""
    m = layout.k
    row_blocks, col_blocks = [], []
    for vals in blocks_values:
        row_blocks.append(np.tile(np.asarray(vals, dtype=float), (m, 1)))
        col_blocks.append(np.tile(np.asarray(vals, dtype=float)[:, None], (1, m)))
    pad = [np.zeros((m, m))] * (layout.blocks_per_ct - len(blocks_values))
    n = engine.config.slot_count
    return (
        engine.encrypt(ref.slots_of(layout, row_blocks + pad, n)),
        engine.encrypt(ref.slots_of(layout, col_blocks + pad, n)),
    )


# -- series and compare --------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SignApproxConfig(degree=10)
    with pytest.raises(ValueError):
        SignApproxConfig(tie_margin=1.5)


@pytest.mark.parametrize("degree", [True, 63.5], ids=["bool", "fraction"])
def test_config_rejects_degree_that_is_not_a_whole_number(degree):
    # True would pass for degree 1 and 63.5 would build its series from
    # nodes that are not Chebyshev nodes
    with pytest.raises(ValueError, match="whole number"):
        SignApproxConfig(degree=degree)


def test_cmp_series_is_odd_and_accurate():
    c = cmp_series(CFG)
    odd = c.copy()
    odd[0] = 0.0  # sign(x) / 2
    assert c[0] == 0.5 and np.all(odd[::2] == 0.0)
    assert chebval(0.0, c) == 0.5
    assert abs(chebval(0.8, c) - 1.0) < 0.005  # sign within 0.01 of 1
    # the contract: within 0.01 of {0, 1} (0.02 of sign) for |x| >= tie_margin
    xs = np.linspace(CFG.tie_margin, 1.0, 4001)
    assert np.max(np.abs(chebval(xs, c) - 1.0)) <= 0.01

    # the FFT-based DCT against scipy's, on the same node values
    from scipy.fft import dct

    for degree in (1, 5, 63, 127, 255, 1023):
        cfg = SignApproxConfig(degree=degree)
        c = cmp_series(cfg)
        n = degree + 1
        nodes = np.cos((np.arange(n) + 0.5) * np.pi / n)
        values = np.array([math.erf(STEEPNESS / cfg.tie_margin * x) for x in nodes])
        want = dct(values, type=2) / (2 * n)
        assert c[0] == 0.5 and np.all(c[2::2] == 0.0)
        assert np.max(np.abs(c[1::2] - want[1::2])) <= 1e-15


def test_cmp_examples():
    eng = make()
    a = eng.encrypt(np.full(256, 0.8))
    b = eng.encrypt(np.full(256, 0.2))
    out = eng.decrypt(compare(eng, eng.sub(a, b), CFG))
    assert np.all(np.abs(out - 1.0) < 0.01)
    out = eng.decrypt(compare(eng, eng.sub(b, a), CFG))
    assert np.all(np.abs(out) < 0.01)
    out = eng.decrypt(compare(eng, eng.sub(a, a), CFG))
    assert np.allclose(out, 0.5)  # exact midpoint on ties


def test_cmp_contract_at_margin():
    eng = make(slot_count=4096)
    rng = np.random.default_rng(0)
    a = rng.uniform(0, 1, 4096)
    gap = rng.uniform(CFG.tie_margin, 1.0, 4096)
    b = np.clip(a - gap, 0, None)
    keep = (a - b) >= CFG.tie_margin
    out = eng.decrypt(compare(eng, eng.sub(eng.encrypt(a), eng.encrypt(b)), CFG))
    assert np.max(np.abs(out[keep] - 1.0)) <= 0.01


# -- ranking ------------------------------------------------------------------


def test_rank_tie_example_from_worked_ranking():
    # [10, 10, 30, 40] -> [1.5, 1.5, 3, 4]
    eng = make()
    lay = PackedLayout(4, slot_count=256)
    v_row, v_col = encode_row_col(eng, lay, np.array([[10, 10, 30, 40]]) / 40)
    r = ref.blocks_of(lay, eng.decrypt(rank(eng, eng.sub(v_row, v_col), lay, CFG)))[0][0]
    assert np.max(np.abs(r - np.array([1.5, 1.5, 3.0, 4.0]))) < 0.02


def test_rank_sorted_input():
    eng = make()
    lay = PackedLayout(3, slot_count=256)
    v_row, v_col = encode_row_col(eng, lay, [[0.1, 0.2, 0.3]])
    r = ref.blocks_of(lay, eng.decrypt(rank(eng, eng.sub(v_row, v_col), lay, CFG)))[0][0]
    assert np.max(np.abs(r - np.array([1.0, 2.0, 3.0]))) < 0.02


def test_rank_matches_pairwise_reference():
    eng = make()
    lay = PackedLayout(3, slot_count=256)
    vals = [0.3, 0.1, 0.2]
    v_row, v_col = encode_row_col(eng, lay, [vals])
    r = ref.blocks_of(lay, eng.decrypt(rank(eng, eng.sub(v_row, v_col), lay, CFG)))[0][0]
    assert np.max(np.abs(r - ref.ref_ranks(vals))) < 0.02


def test_rank_permutation_property():
    eng = make(slot_count=1024)
    rng = np.random.default_rng(1)
    for k in (3, 5, 8):
        lay = PackedLayout(k, slot_count=1024)
        count = min(lay.blocks_per_ct, 20)
        vals = [rng.permutation(k) / k + 0.05 for _ in range(count)]
        v_row, v_col = encode_row_col(eng, lay, vals)
        blocks = ref.blocks_of(lay, eng.decrypt(rank(eng, eng.sub(v_row, v_col), lay, CFG)))
        for i in range(count):
            rounded = np.sort(np.round(blocks[i][0]))
            assert np.array_equal(rounded, np.arange(1, k + 1)), (k, i)


# -- indicator ----------------------------------------------------------------


def test_phi_scalar_reference_values():
    # phi is 1 at the first node, 0 at the integer nodes, and the worked
    # fractional value at a two-way tie
    assert ref.ref_phi(1.0, 4) == 1.0
    assert ref.ref_phi(3.0, 4) == 0.0
    assert ref.ref_phi(1.5, 4) == pytest.approx(0.3125)


def test_indicator_phi_slotwise():
    eng = make()
    lay = PackedLayout(4, slot_count=256)
    ranks = np.zeros((lay.k, lay.blocks_per_ct, lay.k))
    ranks[0, 0, :] = [1.0, 3.0, 1.5, 4.0]
    v = eng.encrypt(lay.to_slots(ranks))
    out = ref.blocks_of(lay, eng.decrypt(indicator_phi(eng, v, lay)))[0][0]
    assert out[0] == pytest.approx(1.0, abs=1e-12)
    assert out[1] == pytest.approx(0.0, abs=1e-12)
    assert out[2] == pytest.approx(0.3125, abs=1e-12)
    assert out[3] == pytest.approx(0.0, abs=1e-12)


def _phi_of_ranks(k, ranks):
    """indicator_phi on first-row ranks, one rank per first-row slot."""
    eng = make(slot_count=1024, depth=10)
    lay = PackedLayout(k, slot_count=1024)
    grid = lay.grid()
    row = np.zeros(lay.width)
    row[: len(ranks)] = ranks
    grid[0] = row.reshape(lay.blocks_per_ct, k)
    out = eng.decrypt(indicator_phi(eng, eng.encrypt(lay.to_slots(grid)), lay))
    return lay.from_slots(out)[0].ravel()[: len(ranks)]


@pytest.mark.parametrize("k", range(2, 17))
def test_indicator_phi_matches_reference_slotwise(k):
    # integer ranks hit a zero factor exactly; rank 1 multiplies exact
    # integers and one rounded 1 / prod(1 - j), so it may miss 1 by an ulp
    got = _phi_of_ranks(k, np.arange(1, k + 1, dtype=float))
    assert abs(got[0] - 1.0) <= np.finfo(float).eps
    assert np.all(got[1:] == 0.0)

    rng = np.random.default_rng(k)
    tied = []
    for u in (2, 3):
        for first in range(1, k - u + 2):  # u elements tied for ranks first .. first + u - 1
            tied.append(first + (u - 1) / 2)
    ranks = np.concatenate([tied, rng.uniform(1, k, 400)])[: PackedLayout(k, slot_count=1024).width]
    want = np.array([ref.ref_phi(x, k) for x in ranks])
    # s^2 - (c - j)^2 cancels next to a node, so relative error grows there;
    # the absolute floor is 100 ulp of phi(1) = 1, the largest |phi| on [1, k]
    np.testing.assert_allclose(_phi_of_ranks(k, ranks), want, rtol=1e-12, atol=1e-14)


def _old_tree_depth(k):
    """Levels of the masked product tree over the k - 1 factors (r - j),
    paired left to right, with the mask on the leaf of shortest path."""
    paths = [0] * (k - 1)
    groups = [[i] for i in range(k - 1)]
    while len(groups) > 1:
        merged = []
        for a, b in zip(groups[0::2], groups[1::2]):
            for leaf in a + b:
                paths[leaf] += 1
            merged.append(a + b)
        if len(groups) % 2:
            merged.append(groups[-1])
        groups = merged
    return max(max(paths), min(paths) + 1)


def test_indicator_phi_depth_ledger():
    for k in range(2, 65):
        eng = make(slot_count=4096, depth=10)
        lay = PackedLayout(k, slot_count=4096)
        out = indicator_phi(eng, eng.encrypt(np.zeros(4096)), lay)
        assert out.depth_consumed == phi_depth(k) == _old_tree_depth(k), k


@pytest.mark.parametrize("k", range(3, 17))
def test_indicator_phi_pairs_halve_the_products(k):
    eng = make(slot_count=1024, depth=10)
    lay = PackedLayout(k, slot_count=1024)
    indicator_phi(eng, eng.encrypt(np.zeros(1024)), lay)
    assert eng.stats.ct_mults == math.ceil((k - 1) / 2)
    assert eng.stats.pt_mults == 1  # the normalized first-row mask


def _phi_with_full_constants(engine, r, layout):
    """indicator_phi with every shift constant held on every slot, not on
    the first grid row only, and the same first-row normalization mask."""
    k, width = layout.k, layout.width

    def constant(values):
        return engine.restrict(engine.plaintext(values), width)

    centre = (k + 2) / 2
    full = engine.config.slot_count
    s = engine.sub(engine.restrict(r, width), constant(np.full(full, centre)))
    leaves = []
    if k >= 3:
        square = engine.mul(s, s)
        leaves = [engine.sub(square, constant(np.full(full, (centre - j) ** 2)))
                  for j in range(2, math.ceil(centre))]
    if k % 2 == 0:
        leaves.append(s)
    norm = 1.0 / math.prod(1.0 - j for j in range(2, k + 1))
    mask = np.zeros(full)
    mask[:width] = norm
    leaves[-1] = engine.mul(leaves[-1], constant(mask))
    while len(leaves) > 1:
        merged = [engine.mul(leaves[i], leaves[i + 1]) for i in range(0, len(leaves) - 1, 2)]
        if len(leaves) % 2:
            merged.append(leaves[-1])
        leaves = merged
    return engine.widen(leaves[0])


@pytest.mark.parametrize("k", [3, 4, 8, 15])
def test_first_row_constants_match_full_constants_bit_for_bit(k):
    # the tree runs on the first grid row, where first_row(c) holds c on
    # every slot, as a constant filled with c does
    lay = PackedLayout(k, slot_count=1024)
    ranks = np.random.default_rng(k).uniform(0.5, k + 0.5, 1024)
    ranks[:k] = np.arange(1, k + 1)  # the exact ranks of one block
    ranks[k : 2 * k] = 1.5  # and a tie
    outs = []
    for phi in (indicator_phi, _phi_with_full_constants):
        eng = make(slot_count=1024, depth=10)
        out = phi(eng, eng.encrypt(ranks), lay)
        outs.append((eng.decrypt(out).tobytes(), out.depth_consumed, eng.stats))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("k", [3, 8, 15])
def test_indicator_phi_reads_only_the_first_grid_row(k, monkeypatch):
    """Random ranks in every row and past the grid give the first row of a
    first-row-only input, exact zeros elsewhere, and the same counters;
    the whole vector's evaluation (``restrict`` and ``widen`` as the
    identity, as in a real backend) has the same values."""
    lay = PackedLayout(k, slot_count=1024)
    ranks = np.random.default_rng(k).uniform(0.5, k + 0.5, 1024)
    first = np.where(np.arange(1024) < lay.width, ranks, 0.0)

    def phi(values):
        eng = make(slot_count=1024, depth=10)
        out = indicator_phi(eng, eng.encrypt(values), lay)
        assert out.depth_consumed == phi_depth(k)
        return eng.decrypt(out), eng.stats

    (out, stats), (out_first, stats_first) = phi(ranks), phi(first)
    assert out.tobytes() == out_first.tobytes()
    assert np.all(out[lay.width:] == 0.0) and not np.any(np.signbit(out[lay.width:]))
    assert stats == stats_first
    monkeypatch.setattr(SlotEngine, "restrict", lambda self, v, count: v)
    monkeypatch.setattr(SlotEngine, "widen", lambda self, v: v)
    whole, whole_stats = phi(ranks)
    assert np.array_equal(whole, out)  # bit for bit, but for the sign of a zero
    assert whole_stats == stats


@pytest.mark.parametrize("k", [1, 0, -3])
def test_phi_depth_rejects_fewer_than_two_clusters(k):
    with pytest.raises(ValueError, match="k must be at least 2"):
        phi_depth(k)


@pytest.mark.parametrize("k", [True, 3.0, "3", np.bool_(True)], ids=["bool", "float", "str", "numpy-bool"])
def test_phi_depth_reads_k_by_the_one_whole_number_rule(k):
    # a bool is no count, though True would read as k = 1
    with pytest.raises(ValueError, match="k must be a whole number"):
        phi_depth(k)
    assert phi_depth(np.int64(3)) == phi_depth(3)


# -- packed argmin -------------------------------------------------------------


def test_argmin_block_examples():
    eng = make()
    lay = PackedLayout(3, slot_count=256)
    v_row, v_col = encode_row_col(eng, lay, [[0.4, 0.1, 0.9]])
    a = ref.blocks_of(lay, eng.decrypt(argmin_packed(eng, eng.sub(v_row, v_col), lay, CFG)))[0][0]
    assert np.array_equal(a > 0.5, [False, True, False])
    assert abs(a[1] - 1.0) < 0.02


def test_argmin_tie_returns_null_block():
    eng = make()
    lay = PackedLayout(3, slot_count=256)
    v_row, v_col = encode_row_col(eng, lay, [[0.5, 0.5, 0.9]])
    a = ref.blocks_of(lay, eng.decrypt(argmin_packed(eng, eng.sub(v_row, v_col), lay, CFG)))[0][0]
    assert np.all(a < 0.5)


def test_argmin_random_blocks_match_plaintext_oracle():
    eng = make(slot_count=4096)
    rng = np.random.default_rng(7)
    for k in (3, 8):
        lay = PackedLayout(k, slot_count=4096)
        count = min(lay.blocks_per_ct, 40)
        gap = 2 * CFG.tie_margin
        vals = []
        for _ in range(count):
            base = np.sort(rng.uniform(0, 1 - (k - 1) * gap, k))
            vals.append(rng.permutation(base + gap * np.arange(k)))
        v_row, v_col = encode_row_col(eng, lay, vals)
        blocks = ref.blocks_of(lay, eng.decrypt(argmin_packed(eng, eng.sub(v_row, v_col), lay, CFG)))
        for i in range(count):
            got = (blocks[i][0] > 0.5).astype(float)
            assert np.array_equal(got, ref.ref_argmin_onehot(vals[i])), (k, i)


def test_argmin_two_matches_scalar_cmp_oracle():
    eng = make(slot_count=256, depth=20)
    d1 = np.array([0.9, 0.1, 0.3, 0.5])
    d2 = np.array([0.1, 0.9, 0.5, 0.5])
    a = eng.decrypt(argmin_two(eng, eng.sub(eng.encrypt(d1), eng.encrypt(d2)), CFG))[:4]
    want = chebval(np.clip(d1 - d2, -1, 1), cmp_series(CFG))
    assert np.allclose(a, want, atol=1e-9)
    assert abs(a[0] - 1.0) < 0.01 and abs(a[1]) < 0.01
    assert a[3] == pytest.approx(0.5)  # equal distances stay at the midpoint


def test_argmin_two_all_closer_to_first():
    eng = make(slot_count=256, depth=20)
    d1 = np.full(256, 0.1)
    d2 = np.full(256, 0.9)
    a = eng.decrypt(argmin_two(eng, eng.sub(eng.encrypt(d1), eng.encrypt(d2)), CFG))
    assert np.all(np.abs(a) < 0.01)


def test_argmin_two_agrees_with_packed_k2():
    eng = make(slot_count=1024, depth=40)
    lay = PackedLayout(2, slot_count=1024)
    rng = np.random.default_rng(3)
    count = 50
    d = rng.uniform(0, 1, size=(count, 2))
    v_row, v_col = encode_row_col(eng, lay, list(d))
    packed = ref.blocks_of(lay, eng.decrypt(argmin_packed(eng, eng.sub(v_row, v_col), lay, CFG)))
    fast = eng.decrypt(argmin_two(
        eng,
        eng.sub(eng.encrypt(np.concatenate([d[:, 0], np.zeros(1024 - count)])),
                eng.encrypt(np.concatenate([d[:, 1], np.zeros(1024 - count)]))),
        CFG,
    ))[:count]
    for i in range(count):
        one_hot = packed[i][0]
        assert one_hot[1] == pytest.approx(fast[i], abs=1e-9)
        assert one_hot[0] == pytest.approx(1.0 - fast[i], abs=1e-9)


def test_argmin_depth_ledger():
    for k in (2, 15):
        eng = make(slot_count=1024, depth=40)
        lay = PackedLayout(k, slot_count=1024)
        v_row, v_col = encode_row_col(eng, lay, [list(np.linspace(0.1, 0.9, k))])
        a = argmin_packed(eng, eng.sub(v_row, v_col), lay, CFG)
        want = chebyshev_depth(CFG.degree) + phi_depth(k)
        assert a.depth_consumed == want, k


@pytest.mark.parametrize("k", [3, 8, 15])
def test_argmin_packed_is_zero_outside_first_row(k):
    # the ranks leave partial sums in the other rows; the indicator's folded
    # mask must zero them exactly
    eng = make(slot_count=1024)
    lay = PackedLayout(k, slot_count=1024)
    rng = np.random.default_rng(k)
    vals = [rng.permutation(np.linspace(0.05, 0.95, k)) for _ in range(lay.blocks_per_ct)]
    v_row, v_col = encode_row_col(eng, lay, vals)
    out = eng.decrypt(argmin_packed(eng, eng.sub(v_row, v_col), lay, CFG))
    assert np.all(out[lay.first_row(1.0) == 0] == 0.0)
    blocks = ref.blocks_of(lay, out)
    for i in range(lay.blocks_per_ct):
        assert np.array_equal(blocks[i][0] > 0.5, ref.ref_argmin_onehot(vals[i]) > 0.5), (k, i)
