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
from vpkmeans.slot_engine import EngineConfig, SlotEngine


def test_budget_validation():
    with pytest.raises(ValueError):
        PrivacyBudget(0.0, 1e-5, 10)
    with pytest.raises(ValueError):
        PrivacyBudget(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        PrivacyBudget(1.0, 1e-5, 0)
    with pytest.raises(ValueError):
        PrivacyBudget(1.0, 1e-5, 10, composition="zcdp")


def test_simple_split():
    rb = per_round_budget(PrivacyBudget(1.0, 1e-4, 10, composition=SIMPLE))
    assert rb.epsilon == pytest.approx(0.1)
    assert rb.delta == pytest.approx(1e-4 / 11)
    assert rb.mode == SIMPLE


def test_single_round_degenerate():
    rb = per_round_budget(PrivacyBudget(2.0, 1e-4, 1, composition=SIMPLE))
    assert rb.epsilon == pytest.approx(2.0)


def test_advanced_recovers_total():
    b = PrivacyBudget(1.0, 1e-4, 10, composition=ADVANCED)
    rb = per_round_budget(b)
    slack = b.delta_total / (b.rounds + 1)
    recovered = 2.0 * rb.epsilon * math.sqrt(2.0 * b.rounds * math.log(1.0 / slack))
    assert recovered == pytest.approx(1.0, abs=1e-9)


def test_auto_picks_larger():
    b = PrivacyBudget(1.0, 1e-4, 10, composition="auto")
    rb = per_round_budget(b)
    # numerically solve the advanced equation and compare with the simple split
    slack = 1e-4 / 11
    adv = 1.0 / (2.0 * math.sqrt(2.0 * 10 * math.log(1.0 / slack)))
    assert rb.epsilon == pytest.approx(max(0.1, adv))
    assert rb.mode == SIMPLE  # 0.1 wins here


def test_simple_conserves_epsilon():
    for r in (1, 3, 10, 40):
        rb = per_round_budget(PrivacyBudget(0.7, 1e-5, r, composition=SIMPLE))
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


def test_noise_scales_paper_formula_flag_swaps():
    rb = per_round_budget(PrivacyBudget(1.0, 1e-4, 10))
    ours = NoiseScales.from_budget(rb, 2.0)
    lit = NoiseScales.from_budget(rb, 2.0, paper_formulas=True)
    assert lit.sigma_sum == pytest.approx(ours.sigma_count)
    assert lit.sigma_count == pytest.approx(ours.sigma_sum)


# -- perturb_aggregates --------------------------------------------------------


def _aggregates(engine, k=4):
    s = [engine.encrypt(np.arange(k, dtype=float)) for _ in range(2)]
    t = engine.encrypt(np.full(k, 10.0))
    return s, t


def test_perturb_zero_scales_identity():
    eng = SlotEngine(EngineConfig(slot_count=16, depth_budget=4))
    s, t = _aggregates(eng)
    ns = NoiseScales(sigma_sum=0.0, sigma_count=0.0)
    s2, t2 = perturb_aggregates(eng, s, t, ns, range(4), np.random.default_rng(0))
    assert np.array_equal(eng.decrypt(t2), eng.decrypt(t))
    assert all(np.array_equal(eng.decrypt(a), eng.decrypt(b)) for a, b in zip(s, s2))


def test_perturb_deterministic_under_seed():
    eng = SlotEngine(EngineConfig(slot_count=16, depth_budget=4))
    ns = NoiseScales(sigma_sum=2.0, sigma_count=1.0)
    outs = []
    for _ in range(2):
        s, t = _aggregates(eng)
        s2, t2 = perturb_aggregates(eng, s, t, ns, range(4), np.random.default_rng(42))
        outs.append(np.concatenate([eng.decrypt(t2)] + [eng.decrypt(x) for x in s2]))
    assert np.array_equal(outs[0], outs[1])


def test_perturb_only_touches_meaningful_slots():
    eng = SlotEngine(EngineConfig(slot_count=16, depth_budget=4))
    s, t = _aggregates(eng)
    ns = NoiseScales(sigma_sum=5.0, sigma_count=5.0)
    s2, t2 = perturb_aggregates(eng, s, t, ns, range(4), np.random.default_rng(1))
    assert np.array_equal(eng.decrypt(t2)[4:], np.zeros(12))
    assert not np.array_equal(eng.decrypt(t2)[:4], eng.decrypt(t)[:4])


def test_perturb_empirical_stddev():
    eng = SlotEngine(EngineConfig(slot_count=16, depth_budget=4))
    ns = NoiseScales(sigma_sum=3.0, sigma_count=1.5)
    rng = np.random.default_rng(11)
    draws_s, draws_t = [], []
    for _ in range(2500):
        s, t = _aggregates(eng)
        s2, t2 = perturb_aggregates(eng, s, t, ns, range(4), rng)
        draws_s.append(eng.decrypt(s2[0])[:4] - np.arange(4))
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
        s, t = _aggregates(eng)
        _, t2 = perturb_aggregates(eng, s, t, ns, range(4), rng)
        cols.append(eng.decrypt(t2)[:2] - 10.0)
    cols = np.array(cols)
    corr = np.corrcoef(cols[:, 0], cols[:, 1])[0, 1]
    # at the 1% level the sample correlation of n iid pairs is ~2.58/sqrt(n)
    assert abs(corr) < 2.58 / math.sqrt(len(cols))
