"""Simulated CKKS-style SIMD ciphertext engine.

Models one leveled ciphertext as a fixed-length vector of real slots with a
multiplicative-depth counter.  Arithmetic is exact float64 by default; an
optional bounded multiplicative perturbation per ciphertext multiplication
emulates the approximation error of a real scheme.  There is no actual
encryption here: ``encrypt`` tags a vector as ciphertext-kind so that depth
and size accounting behave like the real thing, and the module is the
extension point for a real lattice backend.

Depth model (the engine's contract, enforced everywhere):

* ``add``/``sub``/``rotate``: free.
* ``drop_to_depth``: free; consumes levels without computing (modulus
  switching without rescaling, as SEAL's ``mod_switch_to`` or OpenFHE's
  ``LevelReduce``), which shrinks a ciphertext and leaves its slots as
  they are.
* ``mul``: one level, whether ciphertext x ciphertext or ciphertext x
  plaintext (conservative; matches rescale-per-multiplication schemes).
* ``eval_chebyshev`` with degree D: ``ceil(log2(D + 1)) + 1`` levels
  (balanced-tree evaluation cost).

Exceeding the depth budget raises ``DepthBudgetError`` -- never silent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._kernels import eval_series

CIPHERTEXT = "ciphertext"
PLAINTEXT = "plaintext"

# eval_chebyshev accepts slot magnitudes up to 1 + DOMAIN_TOLERANCE
DOMAIN_TOLERANCE = 1e-6


class EngineError(Exception):
    """Base class for slot-engine failures."""


class DepthBudgetError(EngineError):
    """A homomorphic operation would exceed the multiplicative depth budget."""


class DomainError(EngineError):
    """Input slots lie outside the domain required by an operation."""


@dataclass(frozen=True)
class SizeModel:
    """Ciphertext byte-size model: bytes per slot per residue limb, with no
    fixed overhead, calibrated once against a measured total."""

    bytes_per_slot_per_level: float = 8.0

    def __post_init__(self):
        if self.bytes_per_slot_per_level <= 0:
            raise ValueError("bytes_per_slot_per_level must be positive")


@dataclass(frozen=True)
class EngineConfig:
    """Static parameters of one simulated scheme instance.

    ``slot_count`` is the number of usable SIMD slots (half the ring
    dimension of the scheme being modeled, 2^14 for ring dimension 2^15).
    ``approx_perturbation`` is the relative half-width of the per-multiplication
    noise; it must stay below 2^-10 so the simulation remains near-exact.
    """

    slot_count: int = 1 << 14
    depth_budget: int = 18
    approx_perturbation: float = 0.0
    size_model: SizeModel = field(default_factory=SizeModel)

    def __post_init__(self):
        if self.slot_count < 1 or self.slot_count & (self.slot_count - 1):
            raise ValueError(f"slot_count must be a power of two, got {self.slot_count}")
        if self.depth_budget < 0:
            raise ValueError("depth_budget must be non-negative")
        if not 0 <= self.approx_perturbation < 2.0 ** -10:
            raise ValueError("approx_perturbation must lie in [0, 2^-10)")


@dataclass(frozen=True)
class SlotVector:
    """Immutable slot vector plus depth/kind metadata.

    ``slots`` is never mutated after construction; all engine operations
    return fresh vectors, so values are safe to share across threads.
    """

    slots: np.ndarray
    depth_consumed: int
    kind: str

    def __post_init__(self):
        self.slots.setflags(write=False)

    @property
    def is_ciphertext(self) -> bool:
        return self.kind == CIPHERTEXT


@dataclass
class EngineStats:
    """Operation counters, used for rotation budgets and depth assertions.

    ``max_depth_seen`` is the largest depth of any result, results of
    :meth:`SlotEngine.drop_to_depth` included.  A protocol run releases its
    aggregates at level 0, so afterwards it reads the depth budget, not the
    circuit's depth; ``RunResult.round_depths`` holds the circuit's depth.
    """

    rotations: int = 0
    ct_mults: int = 0
    pt_mults: int = 0
    additions: int = 0
    cheb_evals: int = 0
    encryptions: int = 0
    max_depth_seen: int = 0

    def snapshot(self) -> "EngineStats":
        return replace(self)

    def rotations_since(self, before: "EngineStats") -> int:
        return self.rotations - before.rotations


class SlotEngine:
    """Factory and arithmetic for :class:`SlotVector` values.

    All operations are pure with respect to their inputs; the engine itself
    only accumulates statistics (and owns the perturbation RNG when the
    approximate mode is enabled).
    """

    def __init__(self, config: EngineConfig | None = None, seed: int | None = None):
        self.config = config or EngineConfig()
        self.stats = EngineStats()
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # construction / destruction
    # ------------------------------------------------------------------

    def _pad(self, values) -> np.ndarray:
        arr = np.asarray(values, dtype=np.float64).ravel()
        n = self.config.slot_count
        if arr.size > n:
            raise EngineError(f"{arr.size} values exceed {n} slots")
        if arr.size < n:
            arr = np.concatenate([arr, np.zeros(n - arr.size)])
        return arr

    def encrypt(self, values) -> SlotVector:
        """Wrap values (zero-padded) as a fresh ciphertext at depth 0; NaN
        or infinite values raise ``EngineError``."""
        slots = self._pad(values)
        if not np.all(np.isfinite(slots)):
            raise EngineError("encrypt: values must be finite")
        self.stats.encryptions += 1
        return SlotVector(slots, 0, CIPHERTEXT)

    def plaintext(self, values) -> SlotVector:
        """Wrap values (zero-padded) as a plaintext-kind vector."""
        return SlotVector(self._pad(values), 0, PLAINTEXT)

    def decrypt(self, v: SlotVector) -> np.ndarray:
        """Return the slots verbatim (exact round-trip when perturbation is 0)."""
        return np.array(v.slots)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def _check_lengths(self, a: SlotVector, b: SlotVector, op: str):
        if a.slots.shape != b.slots.shape:
            raise EngineError(f"{op}: slot length mismatch {a.slots.shape} vs {b.slots.shape}")

    def _result(self, slots: np.ndarray, depth: int, kind: str) -> SlotVector:
        if kind == PLAINTEXT:
            depth = 0
        self.stats.max_depth_seen = max(self.stats.max_depth_seen, depth)
        return SlotVector(slots, depth, kind)

    def _charge(self, depth: int, levels: int, op: str) -> int:
        new = depth + levels
        if new > self.config.depth_budget:
            raise DepthBudgetError(
                f"{op}: depth {depth} + {levels} exceeds budget {self.config.depth_budget}"
            )
        return new

    def add(self, a: SlotVector, b: SlotVector) -> SlotVector:
        self._check_lengths(a, b, "add")
        self.stats.additions += 1
        kind = CIPHERTEXT if (a.is_ciphertext or b.is_ciphertext) else PLAINTEXT
        return self._result(a.slots + b.slots, max(a.depth_consumed, b.depth_consumed), kind)

    def sub(self, a: SlotVector, b: SlotVector) -> SlotVector:
        self._check_lengths(a, b, "sub")
        self.stats.additions += 1
        kind = CIPHERTEXT if (a.is_ciphertext or b.is_ciphertext) else PLAINTEXT
        return self._result(a.slots - b.slots, max(a.depth_consumed, b.depth_consumed), kind)

    def mul(self, a: SlotVector, b: SlotVector) -> SlotVector:
        self._check_lengths(a, b, "mul")
        kind = CIPHERTEXT if (a.is_ciphertext or b.is_ciphertext) else PLAINTEXT
        depth = max(a.depth_consumed, b.depth_consumed)
        if kind == CIPHERTEXT:
            depth = self._charge(depth, 1, "mul")
            if a.is_ciphertext and b.is_ciphertext:
                self.stats.ct_mults += 1
            else:
                self.stats.pt_mults += 1
        out = a.slots * b.slots
        if kind == CIPHERTEXT and self.config.approx_perturbation > 0:
            p = self.config.approx_perturbation
            out = out * (1.0 + self._rng.uniform(-p, p, size=out.shape))
        return self._result(out, depth, kind)

    def rotate(self, v: SlotVector, r: int) -> SlotVector:
        """Cyclic left shift by ``r`` (negative rotates right); depth-free.
        A shift by a multiple of the slot count is no rotation and is not
        counted."""
        r = r % self.config.slot_count
        if r == 0:
            return v
        self.stats.rotations += 1
        return self._result(np.roll(v.slots, -r), v.depth_consumed, v.kind)

    def drop_to_depth(self, v: SlotVector, depth: int) -> SlotVector:
        """The same ciphertext with ``depth`` levels consumed; free and not
        counted.  A plaintext, a target below the current depth or one above
        the budget raise ``EngineError``."""
        if not v.is_ciphertext:
            raise EngineError("drop_to_depth: a plaintext has no levels to drop")
        if depth < v.depth_consumed:
            raise EngineError(f"drop_to_depth: target {depth} below the consumed depth {v.depth_consumed}")
        if depth > self.config.depth_budget:
            raise DepthBudgetError(f"drop_to_depth: target {depth} exceeds budget {self.config.depth_budget}")
        return self._result(v.slots, depth, v.kind)

    def eval_chebyshev(self, v: SlotVector, coeffs) -> SlotVector:
        """Evaluate a Chebyshev series slot-wise.

        Requires slots in [-1, 1] up to ``DOMAIN_TOLERANCE``; NaN slots
        raise ``DomainError`` too.  Consumes ceil(log2(degree + 1)) + 1
        levels on ciphertexts.
        """
        coeffs = np.asarray(coeffs, dtype=np.float64)
        degree = coeffs.size - 1
        if degree < 1:
            raise EngineError("eval_chebyshev needs degree >= 1")
        bound = 1.0 + DOMAIN_TOLERANCE
        amax = float(np.max(np.abs(v.slots))) if v.slots.size else 0.0
        if not amax <= bound:  # also catches NaN
            raise DomainError(
                f"eval_chebyshev: slot magnitude {amax:.6g} outside [-1, 1] (+{DOMAIN_TOLERANCE:g})"
            )
        levels = math.ceil(math.log2(degree + 1)) + 1
        depth = v.depth_consumed
        if v.is_ciphertext:
            depth = self._charge(depth, levels, "eval_chebyshev")
        self.stats.cheb_evals += 1
        out = eval_series(coeffs, np.clip(v.slots, -1.0, 1.0))
        return self._result(out, depth, v.kind)

    # ------------------------------------------------------------------
    # size accounting
    # ------------------------------------------------------------------

    def levels_remaining(self, v: SlotVector) -> int:
        return self.config.depth_budget - v.depth_consumed

    def size_bytes(self, v: SlotVector) -> int:
        return ciphertext_size_bytes(self.levels_remaining(v), self.config)


def ciphertext_size_bytes(levels_remaining: int, cfg: EngineConfig) -> int:
    """Byte size of a ciphertext with the given number of levels left.

    Two ring polynomials over a ring of dimension 2 * slot_count, one
    residue limb per remaining level plus one.
    """
    if levels_remaining < 0:
        raise ValueError("levels_remaining must be non-negative")
    raw = 2 * cfg.slot_count * 2 * (levels_remaining + 1) * cfg.size_model.bytes_per_slot_per_level
    return math.ceil(raw)
