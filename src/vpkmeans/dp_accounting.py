"""Differential-privacy bookkeeping for the iterative release of aggregates.

Each round releases per-cluster counts (sensitivity 1: one changed record
moves at most one unit of count) and per-cluster coordinate sums
(sensitivity 2B per coordinate: replacing one record moves a sum by at most
the domain width), each through the Gaussian mechanism.  The total
(epsilon, delta) is split evenly across the rounds under one rule: the
per-round epsilon is the larger of basic composition's epsilon / r and the
one the advanced-composition corollary grants (Dwork & Roth, Cor. 3.21),
and every round gets delta / (r + 1), one share being the corollary's
slack term.

The guarantee covers what the key holder and the data owners see, not the
computing party, which samples the noise, and not CKKS decryption error,
which the simulated engine does not model; ``SCOPE`` says so in every
report's ``dp`` section.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .packed_matrix import PackedLayout
from .slot_engine import SlotEngine, SlotVector, whole

SIMPLE = "simple"
ADVANCED = "advanced"

# what the printed (epsilon, delta) covers, stated next to it in every report
SCOPE = ("the noisy aggregates and centroids that the key holder and the data owners see; "
         "not the computing party, which samples the noise, and not CKKS decryption error")


@dataclass(frozen=True)
class PrivacyBudget:
    """The total (epsilon, delta) of a run of ``rounds`` rounds.  Epsilon
    and delta must be real numbers and rounds an int (a numpy integer is
    one); a bool, a string or a fractional round count raises
    ``ValueError``."""

    epsilon_total: float
    delta_total: float
    rounds: int

    def __post_init__(self):
        for name in ("epsilon_total", "delta_total"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        whole(self.rounds, "rounds", ValueError)
        if not self.epsilon_total > 0:
            raise ValueError("epsilon_total must be positive")
        if not 0 < self.delta_total < 1:
            raise ValueError("delta_total must lie in (0, 1)")
        if self.rounds < 1:
            raise ValueError("rounds must be a positive integer")


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
    def from_budget(cls, round_budget: RoundBudget, bound: float) -> "NoiseScales":
        """Scales follow the stated sensitivities: 2B for sums, 1 for counts."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return cls(
            sigma_sum=gaussian_sigma(2.0 * bound, round_budget.epsilon, round_budget.delta),
            sigma_count=gaussian_sigma(1.0, round_budget.epsilon, round_budget.delta),
        )


def per_round_budget(budget: PrivacyBudget) -> RoundBudget:
    """Even split of the total budget across rounds, at the larger epsilon_r.

    simple:   epsilon_r = epsilon / r
    advanced: epsilon_r solves epsilon = 2 * epsilon_r * sqrt(2 r ln(1/delta'))
              with delta' = delta / (r + 1)
    Both use delta_r = delta / (r + 1), leaving one share as the advanced
    rule's slack; ``mode`` names the rule that granted epsilon_r.
    """
    r = budget.rounds
    delta_r = budget.delta_total / (r + 1)
    eps_simple = budget.epsilon_total / r
    eps_advanced = budget.epsilon_total / (2.0 * math.sqrt(2.0 * r * math.log(1.0 / delta_r)))
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
    return math.sqrt(2.0 * math.log(1.25 / delta)) * sensitivity / eps


def perturb_aggregates(
    engine: SlotEngine,
    releases: list[SlotVector],
    d: int,
    layout: PackedLayout,
    scales: NoiseScales,
    rng: np.random.Generator,
) -> list[SlotVector]:
    """Add plaintext Gaussian noise to the meaningful slots of a round's
    release ciphertexts, one addition per ciphertext.

    ``releases`` hold the counts and the ``d`` coordinate sums on the
    slots of :meth:`PackedLayout.release_slots`: aggregate l on k slots
    from (l % B) * k of ``releases[l // B]``, B = ``layout.blocks_per_ct``.
    The draws are k ``normal(0, sigma_sum)`` for each sum coordinate, in
    coordinate order, then k ``normal(0, sigma_count)`` for the counts; no
    other slot gets noise.  Noise is sampled by the computing party and
    added homomorphically just before release; with a fixed generator the
    output is bit-identical across runs.  A zero scale adds exact zeros.
    """
    sums = [rng.normal(0.0, scales.sigma_sum, size=layout.k) for _ in range(d)]
    counts = rng.normal(0.0, scales.sigma_count, size=layout.k)
    noise = np.zeros((len(releases), engine.config.slot_count))
    noise[layout.release_slots(d + 1)] = [counts, *sums]
    return [engine.add(v, engine.plaintext(row)) for v, row in zip(releases, noise)]
