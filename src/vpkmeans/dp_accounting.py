"""Differential-privacy bookkeeping for the iterative release of aggregates.

Each round releases per-cluster counts (sensitivity 1: one changed record
moves at most one unit of count) and per-cluster coordinate sums
(sensitivity 2B per coordinate: replacing one record moves a sum by at most
the domain width).  The total (epsilon, delta) is split evenly across
rounds with either the simple or the advanced composition rule, whichever
grants the larger per-round epsilon; one (r+1)-th of delta is reserved as
the advanced rule's slack term so both rules compete at the same per-round
delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .slot_engine import SlotEngine, SlotVector

SIMPLE = "simple"
ADVANCED = "advanced"
AUTO = "auto"


@dataclass(frozen=True)
class PrivacyBudget:
    epsilon_total: float
    delta_total: float
    rounds: int
    composition: str = AUTO

    def __post_init__(self):
        if self.epsilon_total <= 0:
            raise ValueError("epsilon_total must be positive")
        if not 0 < self.delta_total < 1:
            raise ValueError("delta_total must lie in (0, 1)")
        if self.rounds < 1:
            raise ValueError("rounds must be a positive integer")
        if self.composition not in (SIMPLE, ADVANCED, AUTO):
            raise ValueError(f"unknown composition mode {self.composition!r}")


@dataclass(frozen=True)
class RoundBudget:
    epsilon: float
    delta: float
    mode: str  # which rule produced epsilon


@dataclass(frozen=True)
class NoiseScales:
    """Gaussian scales for coordinate sums (sigma_sum) and counts (sigma_count)."""

    sigma_sum: float
    sigma_count: float

    @classmethod
    def from_budget(
        cls, round_budget: RoundBudget, bound: float, paper_formulas: bool = False
    ) -> "NoiseScales":
        """Scales follow the stated sensitivities: 2B for sums, 1 for counts.

        ``paper_formulas`` reproduces the source text's displayed equations,
        which attach the 2B factor to the count scale instead; kept only for
        comparison runs.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        s_sum = gaussian_sigma(2.0 * bound, round_budget.epsilon, round_budget.delta)
        s_count = gaussian_sigma(1.0, round_budget.epsilon, round_budget.delta)
        if paper_formulas:
            s_sum, s_count = s_count, s_sum
        return cls(sigma_sum=s_sum, sigma_count=s_count)


def per_round_budget(budget: PrivacyBudget) -> RoundBudget:
    """Even split of the total budget across rounds.

    simple:   epsilon_r = epsilon / r
    advanced: epsilon_r solves epsilon = 2 * epsilon_r * sqrt(2 r ln(1/delta'))
              with delta' = delta / (r + 1)
    Both use delta_r = delta / (r + 1), leaving one share as the advanced
    rule's slack; auto picks whichever epsilon_r is larger.
    """
    r = budget.rounds
    delta_r = budget.delta_total / (r + 1)
    eps_simple = budget.epsilon_total / r
    delta_slack = budget.delta_total / (r + 1)
    eps_advanced = budget.epsilon_total / (2.0 * math.sqrt(2.0 * r * math.log(1.0 / delta_slack)))

    if budget.composition == SIMPLE:
        eps, mode = eps_simple, SIMPLE
    elif budget.composition == ADVANCED:
        eps, mode = eps_advanced, ADVANCED
    else:
        if eps_advanced > eps_simple:
            eps, mode = eps_advanced, ADVANCED
        else:
            eps, mode = eps_simple, SIMPLE
    if eps <= 0 or delta_r <= 0:
        raise ValueError("budget split produced a non-positive per-round parameter")
    return RoundBudget(epsilon=eps, delta=delta_r, mode=mode)


def gaussian_sigma(sensitivity: float, eps: float, delta: float) -> float:
    """Gaussian-mechanism scale sqrt(2 ln(1.25/delta)) * sensitivity / eps."""
    if sensitivity < 0:
        raise ValueError("sensitivity must be non-negative")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if sensitivity == 0:
        return 0.0
    return math.sqrt(2.0 * math.log(1.25 / delta)) * sensitivity / eps


def perturb_aggregates(
    engine: SlotEngine,
    s_dims: list[SlotVector],
    t: SlotVector,
    scales: NoiseScales,
    meaningful_slots,
    rng: np.random.Generator,
) -> tuple[list[SlotVector], SlotVector]:
    """Add plaintext Gaussian noise to the meaningful slots of each aggregate.

    Noise is sampled by the computing party and added homomorphically just
    before release; with a fixed generator the output is bit-identical
    across runs.  Zero scales return the inputs unchanged.
    """
    idx = np.asarray(list(meaningful_slots), dtype=np.intp)

    def noisy(v: SlotVector, sigma: float) -> SlotVector:
        if sigma == 0.0:
            return v
        noise = np.zeros(engine.config.slot_count)
        noise[idx] = rng.normal(0.0, sigma, size=idx.size)
        return engine.add(v, engine.plaintext(noise))

    s_out = [noisy(s, scales.sigma_sum) for s in s_dims]
    t_out = noisy(t, scales.sigma_count)
    return s_out, t_out
