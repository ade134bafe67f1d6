import math

import numpy as np
import pytest

from vpkmeans.dp_accounting import (
    ADVANCED,
    SIMPLE,
    NoiseScales,
    PrivacyBudget,
    gaussian_sigma,
    per_round_budget,
    perturb_aggregates,
)
from vpkmeans.packed_matrix import PackedLayout
from vpkmeans.slot_engine import EngineConfig, SlotEngine


def test_budget_validation():
    with pytest.raises(ValueError):
        PrivacyBudget(0.0, 1e-5, 10)
    with pytest.raises(ValueError):
        PrivacyBudget(math.nan, 1e-5, 10)
    with pytest.raises(ValueError):
        PrivacyBudget(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        PrivacyBudget(1.0, 1e-5, 0)


@pytest.mark.parametrize("args, name", [
    ((1.0, 1e-3, 2.5), "rounds"),  # used to split the budget over 2.5 rounds
    ((1.0, 1e-3, True), "rounds"),
    ((1.0, 1e-3, 2.0), "rounds"),
    ((1.0, 1e-3, "2"), "rounds"),
    ((True, 1e-3, 2), "epsilon_total"),
    ((np.True_, 1e-3, 2), "epsilon_total"),
    (("1", 1e-3, 2), "epsilon_total"),
    ((1.0, "0.001", 2), "delta_total"),
    ((1.0, False, 2), "delta_total"),
])
def test_budget_refuses_values_of_the_wrong_type(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be a"):
        PrivacyBudget(*args)


def test_budget_takes_numpy_numbers():
    b = PrivacyBudget(np.float32(0.5), np.float64(1e-3), np.int64(2))
    assert per_round_budget(b) == per_round_budget(PrivacyBudget(0.5, 1e-3, 2))
    assert PrivacyBudget(1, 1e-3, 2).epsilon_total == 1


def test_simple_split():
    rb = per_round_budget(PrivacyBudget(1.0, 1e-4, 10))
    assert rb.epsilon == pytest.approx(0.1)
    assert rb.delta == pytest.approx(1e-4 / 11)
    assert rb.mode == SIMPLE


def test_single_round_degenerate():
    rb = per_round_budget(PrivacyBudget(2.0, 1e-4, 1))
    assert rb.epsilon == pytest.approx(2.0)


def test_advanced_recovers_total():
    # at 200 rounds the advanced rule grants more than 1/200 per round
    b = PrivacyBudget(1.0, 1e-4, 200)
    rb = per_round_budget(b)
    assert rb.mode == ADVANCED
    assert rb.epsilon > 1.0 / 200
    slack = b.delta_total / (b.rounds + 1)
    recovered = 2.0 * rb.epsilon * math.sqrt(2.0 * b.rounds * math.log(1.0 / slack))
    assert recovered == pytest.approx(1.0, abs=1e-9)


def test_auto_picks_larger():
    b = PrivacyBudget(1.0, 1e-4, 10)
    rb = per_round_budget(b)
    # numerically solve the advanced equation and compare with the simple split
    slack = 1e-4 / 11
    adv = 1.0 / (2.0 * math.sqrt(2.0 * 10 * math.log(1.0 / slack)))
    assert rb.epsilon == pytest.approx(max(0.1, adv))
    assert rb.mode == SIMPLE  # 0.1 wins here


def test_simple_conserves_epsilon():
    for r in (1, 3, 10, 40):
        rb = per_round_budget(PrivacyBudget(0.7, 1e-5, r))
        assert r * rb.epsilon == pytest.approx(0.7, abs=1e-12)


def test_gaussian_sigma_spot_value():
    # sqrt(2 ln(1.25e5)) for unit sensitivity at eps=1, delta=1e-5
    assert gaussian_sigma(1.0, 1.0, 1e-5) == pytest.approx(4.845, abs=1e-3)


def test_gaussian_sigma_zero_sensitivity():
    assert gaussian_sigma(0.0, 1.0, 1e-5) == 0.0


def test_gaussian_sigma_linear_in_sensitivity():
    b = 0.7
    assert gaussian_sigma(2 * b, 1.0, 1e-5) == pytest.approx(2 * gaussian_sigma(b, 1.0, 1e-5))


def test_gaussian_sigma_validation():
    with pytest.raises(ValueError):
        gaussian_sigma(1.0, 0.0, 1e-5)
    with pytest.raises(ValueError):
        gaussian_sigma(1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        gaussian_sigma(-1.0, 1.0, 1e-5)


def test_noise_scales_follow_sensitivities():
    rb = per_round_budget(PrivacyBudget(1.0, 1e-4, 10))
    for bound in (0.5, 1.0, 3.0):
        ns = NoiseScales.from_budget(rb, bound)
        assert ns.sigma_sum / ns.sigma_count == pytest.approx(2 * bound)
        assert ns.sigma_count == pytest.approx(gaussian_sigma(1.0, rb.epsilon, rb.delta))


# -- perturb_aggregates --------------------------------------------------------


# k = 4 at 16 slots has one block per ciphertext: the counts, then the two
# sums, are each released on slots 0 .. 3 of a ciphertext of their own
LAYOUT = PackedLayout(4, slot_count=16)


def _aggregates(engine, k=4):
    """Releases of the counts (10 each) and two sums (0 .. k - 1)."""
    return [engine.encrypt(np.full(k, 10.0))] + [engine.encrypt(np.arange(k, dtype=float)) for _ in range(2)]


def test_perturb_zero_scales_identity():
    eng = SlotEngine(EngineConfig(slot_count=16, depth_budget=4))
    releases = _aggregates(eng)
    ns = NoiseScales(sigma_sum=0.0, sigma_count=0.0)
    out = perturb_aggregates(eng, releases, 2, LAYOUT, ns, np.random.default_rng(0))
    assert all(np.array_equal(eng.decrypt(a), eng.decrypt(b)) for a, b in zip(releases, out))


def test_perturb_deterministic_under_seed():
    eng = SlotEngine(EngineConfig(slot_count=16, depth_budget=4))
    ns = NoiseScales(sigma_sum=2.0, sigma_count=1.0)
    outs = []
    for _ in range(2):
        out = perturb_aggregates(eng, _aggregates(eng), 2, LAYOUT, ns, np.random.default_rng(42))
        outs.append(np.concatenate([eng.decrypt(x) for x in out]))
    assert np.array_equal(outs[0], outs[1])


def test_perturb_only_touches_meaningful_slots():
    eng = SlotEngine(EngineConfig(slot_count=16, depth_budget=4))
    releases = _aggregates(eng)
    ns = NoiseScales(sigma_sum=5.0, sigma_count=5.0)
    t2 = perturb_aggregates(eng, releases, 2, LAYOUT, ns, np.random.default_rng(1))[0]
    assert np.array_equal(eng.decrypt(t2)[4:], np.zeros(12))
    assert not np.array_equal(eng.decrypt(t2)[:4], eng.decrypt(releases[0])[:4])


def test_perturb_empirical_stddev():
    eng = SlotEngine(EngineConfig(slot_count=16, depth_budget=4))
    ns = NoiseScales(sigma_sum=3.0, sigma_count=1.5)
    rng = np.random.default_rng(11)
    draws_s, draws_t = [], []
    for _ in range(2500):
        t2, s2 = perturb_aggregates(eng, _aggregates(eng), 2, LAYOUT, ns, rng)[:2]
        draws_s.append(eng.decrypt(s2)[:4] - np.arange(4))
        draws_t.append(eng.decrypt(t2)[:4] - 10.0)
    std_s = np.std(np.ravel(draws_s))
    std_t = np.std(np.ravel(draws_t))
    assert abs(std_s / 3.0 - 1.0) < 0.05
    assert abs(std_t / 1.5 - 1.0) < 0.05


def test_perturb_slots_uncorrelated():
    eng = SlotEngine(EngineConfig(slot_count=16, depth_budget=4))
    ns = NoiseScales(sigma_sum=1.0, sigma_count=1.0)
    rng = np.random.default_rng(5)
    cols = []
    for _ in range(4000):
        t2 = perturb_aggregates(eng, _aggregates(eng), 2, LAYOUT, ns, rng)[0]
        cols.append(eng.decrypt(t2)[:2] - 10.0)
    cols = np.array(cols)
    corr = np.corrcoef(cols[:, 0], cols[:, 1])[0, 1]
    # at the 1% level the sample correlation of n iid pairs is ~2.58/sqrt(n)
    assert abs(corr) < 2.58 / math.sqrt(len(cols))


# -- the documented noise order ---------------------------------------------------


def _documented_noise(rng, scales, k, d):
    """One round of the protocol docstring's order: k draws for each sum
    coordinate in coordinate order, then k for the counts."""
    sums = [rng.normal(0.0, scales.sigma_sum, k) for _ in range(d)]
    return rng.normal(0.0, scales.sigma_count, k), sums


def test_perturb_draws_in_the_documented_order():
    # zero releases come back holding exactly the noise, aggregate l on the
    # k slots from (l % B) * k of release l // B: at 16 slots one block per
    # ciphertext (B = 1), at 32 slots all three in one (B = 3)
    k, d = 3, 2
    ns = NoiseScales(sigma_sum=2.0, sigma_count=5.0)
    for slots, per_ct in ((16, 1), (32, 3)):
        eng = SlotEngine(EngineConfig(slot_count=slots, depth_budget=4))
        layout = PackedLayout(k, slot_count=slots)
        assert layout.blocks_per_ct == per_ct
        rng, fresh = np.random.default_rng([7, 0xD9]), np.random.default_rng([7, 0xD9])
        for _ in range(2):
            zeros = [eng.encrypt(np.zeros(slots)) for _ in range(layout.releases(d + 1))]
            out = [eng.decrypt(v) for v in perturb_aggregates(eng, zeros, d, layout, ns, rng)]
            counts, sums = _documented_noise(fresh, ns, k, d)
            want = np.zeros((len(out), slots))
            for l, draws in enumerate([counts, *sums]):
                want[l // per_ct, l % per_ct * k : (l % per_ct + 1) * k] = draws
            assert np.array_equal(np.stack(out), want), slots


class _Releases(SlotEngine):
    """An engine that records every decrypted vector: a run decrypts only
    its release ciphertexts, one per round where the aggregates fit."""

    def __init__(self, config):
        super().__init__(config)
        self.released = []

    def decrypt(self, v):
        out = super().decrypt(v)
        self.released.append(out)
        return out


@pytest.mark.parametrize("k", [2, 3])
def test_a_run_adds_its_noise_in_the_documented_order(k):
    # the noisy release minus the noise-free one at the same centroids is the
    # documented stream of default_rng([seed, 0xD9]), round after round
    from vpkmeans.protocol import CentroidSet, required_depth, run, split_features

    seed, rounds, d, bound = 4, 2, 2, 1.0
    cfg = EngineConfig(slot_count=64, depth_budget=required_depth(k))
    pts = np.random.default_rng(3).uniform(-bound, bound, (90, d))
    parts = split_features(pts, [[0], [1]])
    noisy = _Releases(cfg)
    res = run(parts[0], parts[1], PrivacyBudget(1.0, 1e-3, rounds), rounds, k=k, bound=bound, engine=noisy,
              seed=seed)
    assert res.noise.sigma_sum != res.noise.sigma_count
    fresh = np.random.default_rng([seed, 0xD9])
    for t in range(rounds):
        clean = _Releases(cfg)
        run(parts[0], parts[1], None, 1, k=k, bound=bound, engine=clean, seed=seed,
            init=CentroidSet(res.history[t], bound))
        # at 64 slots the d + 1 aggregates share one release ciphertext, on
        # slots l * k .. l * k + k - 1
        assert len(clean.released) == 1
        added = noisy.released[t] - clean.released[0]
        counts, sums = _documented_noise(fresh, res.noise, k, d)
        meaningful = added[: (d + 1) * k].reshape(d + 1, k)
        assert np.allclose(meaningful, np.stack([counts, *sums]), rtol=0, atol=1e-9), t
        assert not np.any(added[(d + 1) * k :]), t
