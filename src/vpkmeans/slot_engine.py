"""Simulated CKKS-style SIMD ciphertext engine.

Models one leveled ciphertext as a fixed-length vector of real slots with a
multiplicative-depth counter.  Arithmetic is exact float64: the engine
models no CKKS approximation or decryption error.  There is no actual
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

``eval_chebyshev`` may be told which slot pairs hold negated inputs (the
packed argmin's mirrored comparisons) and then evaluates an odd-plus-
constant series once per pair.  That saves host time only: the result is
bit-identical, a real CKKS backend still evaluates the whole ciphertext,
and the depth and counters charge the full evaluation.  Such a series is
also evaluated on non-zero slots only: at a zero slot its value is its
constant.

``restrict`` and ``widen`` are the same kind of shortcut, for a circuit
whose result is known to depend on a prefix of the slots only: ``restrict``
keeps the first ``count`` slots and ``widen`` zero-pads back to
``slot_count``.  Both are free, uncounted and keep depth and kind, and a
real backend implements both as the identity, computing every slot.  They
are exact only where every dropped slot is multiplied by zero before it
reaches a released value: the widened zeros then stand for the products
that a full evaluation would have computed as zeros.  Arithmetic on
restricted vectors is slot-wise as before; ``rotate`` refuses them, since
a rotation would bring dropped slots back in.

The packed protocol takes one more such shortcut, in memory: a vector
whose every packed block holds one value, such as an extracted
ciphertext, is kept as those values (``PackedLayout.block_values``, which
checks that the vector is exactly that) and rebuilt with
``PackedLayout.spread`` at its depth and kind each time it is used.  The
engine counts the extraction once, as before; a real backend cannot read a
ciphertext's slots and keeps the ciphertext.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ._kernels import eval_series

CIPHERTEXT = "ciphertext"
PLAINTEXT = "plaintext"

# eval_chebyshev accepts slot magnitudes up to 1 + DOMAIN_TOLERANCE
DOMAIN_TOLERANCE = 1e-6

# the largest slot count, ring dimension 2^17: one vector is then 512 KiB
MAX_SLOT_COUNT = 1 << 16

# bytes of the PRNG seed sent in place of a uniform polynomial: SEAL's
# prng_seed_type, eight 64-bit words
SEED_BYTES = 64


class EngineError(Exception):
    """Base class for slot-engine failures."""


class DepthBudgetError(EngineError):
    """A homomorphic operation would exceed the multiplicative depth budget."""


class DomainError(EngineError):
    """Input slots lie outside the domain required by an operation."""


def whole(value, name: str, error: type[Exception]) -> int:
    """``value`` as an int, the one rule for a count in every layer: an int
    or a numpy integer is one, while a bool, a float (an integral one too)
    or a string raises ``error``, the calling layer's own type, naming
    ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SizeModel:
    """Ciphertext byte-size model: bytes per slot per residue limb, with no
    fixed overhead, calibrated once against a measured total.  The rate
    must be a positive finite real number; a bool or a string raises
    ``ValueError``."""

    bytes_per_slot_per_level: float = 8.0

    def __post_init__(self):
        rate = self.bytes_per_slot_per_level
        if isinstance(rate, bool) or not isinstance(rate, numbers.Real) or not 0 < rate < math.inf:
            raise ValueError(f"bytes_per_slot_per_level must be positive and finite, got {rate!r}")


@dataclass(frozen=True)
class EngineConfig:
    """Static parameters of one simulated scheme instance.

    ``slot_count`` is the number of usable SIMD slots (half the ring
    dimension of the scheme being modeled, 2^14 for ring dimension 2^15): a
    power of two up to ``MAX_SLOT_COUNT``.  Both counts must be ints (a
    numpy integer is one); a bool, a float or a string raises
    ``ValueError``.
    """

    slot_count: int = 1 << 14
    depth_budget: int = 18
    size_model: SizeModel = field(default_factory=SizeModel)

    def __post_init__(self):
        for name in ("slot_count", "depth_budget"):
            whole(getattr(self, name), name, ValueError)
        if not 1 <= self.slot_count <= MAX_SLOT_COUNT or self.slot_count & (self.slot_count - 1):
            raise ValueError(f"slot_count must be a power of two up to {MAX_SLOT_COUNT}, got {self.slot_count}")
        if self.depth_budget < 0:
            raise ValueError("depth_budget must be non-negative")


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


class SlotEngine:
    """Factory and arithmetic for :class:`SlotVector` values.

    All operations are pure with respect to their inputs; the engine itself
    only accumulates statistics.
    """

    def __init__(self, config: EngineConfig | None = None):
        self.config = config or EngineConfig()
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # construction / destruction
    # ------------------------------------------------------------------

    def _pad(self, values) -> np.ndarray:
        """``values`` as ``slot_count`` float64 slots, zero-padded.  A
        writeable array is copied, so that no caller can change a vector's
        slots; a read-only one, such as a layout's cached mask, is kept as
        the caller's promise that its values do not change."""
        arr = np.asarray(values, dtype=np.float64)
        n = self.config.slot_count
        if arr.size > n:
            raise EngineError(f"{arr.size} values exceed {n} slots")
        if arr.size < n:
            return np.concatenate([arr.ravel(), np.zeros(n - arr.size)])
        return arr.copy().ravel() if arr.flags.writeable else arr.ravel()

    def encrypt(self, values) -> SlotVector:
        """Wrap values (zero-padded, copied unless read-only) as a fresh
        ciphertext at depth 0; NaN or infinite values raise ``EngineError``."""
        slots = self._pad(values)
        if not np.all(np.isfinite(slots)):
            raise EngineError("encrypt: values must be finite")
        self.stats.encryptions += 1
        return SlotVector(slots, 0, CIPHERTEXT)

    def plaintext(self, values) -> SlotVector:
        """Wrap values (zero-padded, copied unless read-only) as a
        plaintext-kind vector."""
        return SlotVector(self._pad(values), 0, PLAINTEXT)

    def decrypt(self, v: SlotVector) -> np.ndarray:
        """Return the slots verbatim (an exact round-trip)."""
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
        return self._result(a.slots * b.slots, depth, kind)

    def rotate(self, v: SlotVector, r: int) -> SlotVector:
        """Cyclic left shift by ``r`` (negative rotates right); depth-free.
        A shift by a multiple of the slot count is no rotation and is not
        counted."""
        if v.slots.size != self.config.slot_count:
            raise EngineError(f"rotate: a restricted vector of {v.slots.size} slots cannot rotate")
        r = r % self.config.slot_count
        if r == 0:
            return v
        self.stats.rotations += 1
        return self._result(np.concatenate((v.slots[r:], v.slots[:r])), v.depth_consumed, v.kind)

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

    def restrict(self, v: SlotVector, count: int) -> SlotVector:
        """The first ``count`` slots of ``v``, with its depth and kind; free
        and not counted.  The identity in a real backend, so exact only
        where the dropped slots are multiplied by zero before they reach a
        released value (see the module docstring).  A count outside
        ``1 .. len(v.slots)`` raises ``EngineError``."""
        if not 0 < count <= v.slots.size:
            raise EngineError(f"restrict: {count} slots of a vector of {v.slots.size}")
        return SlotVector(v.slots[:count], v.depth_consumed, v.kind)

    def widen(self, v: SlotVector) -> SlotVector:
        """``v`` zero-padded back to ``slot_count`` slots, with its depth and
        kind; free and not counted, and the identity in a real backend."""
        return SlotVector(self._pad(v.slots), v.depth_consumed, v.kind)

    def eval_chebyshev(self, v: SlotVector, coeffs, pairs=None) -> SlotVector:
        """Evaluate a Chebyshev series slot-wise.

        Requires slots in [-1, 1] up to ``DOMAIN_TOLERANCE``; NaN slots
        raise ``DomainError`` too.  Consumes ceil(log2(degree + 1)) + 1
        levels on ciphertexts.

        ``pairs`` is an optional ``(lo, hi)`` of slot index arrays, such as
        :meth:`PackedLayout.transpose_pairs`.  When the series is an odd one
        plus a constant and the clipped slots satisfy ``x[hi] == -x[lo]``
        exactly, each pair is evaluated once (see ``_kernels``); otherwise
        every slot is.  The result is the same either way.  This is a
        shortcut in host time only: a real CKKS backend evaluates the whole
        ciphertext, and the depth and ``cheb_evals`` charge the full
        evaluation.
        """
        coeffs = np.asarray(coeffs, dtype=np.float64)
        degree = coeffs.size - 1
        if degree < 1:
            raise EngineError("eval_chebyshev needs degree >= 1")
        # no full-size |slots| temporary; a NaN fails the comparison
        hi, lo = float(v.slots.max()), float(v.slots.min())
        amax = max(hi, -lo)
        if not amax <= 1.0 + DOMAIN_TOLERANCE:
            raise DomainError(
                f"eval_chebyshev: slot magnitude {amax:.6g} outside [-1, 1] (+{DOMAIN_TOLERANCE:g})"
            )
        levels = chebyshev_depth(degree)
        depth = v.depth_consumed
        if v.is_ciphertext:
            depth = self._charge(depth, levels, "eval_chebyshev")
        self.stats.cheb_evals += 1
        x = v.slots if amax <= 1.0 else np.clip(v.slots, -1.0, 1.0)
        out = eval_series(coeffs, x, pairs)
        return self._result(out, depth, v.kind)

    # ------------------------------------------------------------------
    # size accounting
    # ------------------------------------------------------------------

    def levels_remaining(self, v: SlotVector) -> int:
        return self.config.depth_budget - v.depth_consumed

    def size_bytes(self, v: SlotVector, seeded: bool = False) -> int:
        """Byte size of ``v`` as sent, by :func:`ciphertext_size_bytes`.
        Only a fresh ciphertext has a uniform half to send as a seed, so
        ``seeded`` for a plaintext or for a vector with levels consumed
        raises ``EngineError``."""
        if seeded and (not v.is_ciphertext or v.depth_consumed > 0):
            raise EngineError(f"size_bytes: only a fresh ciphertext can be seeded, got a {v.kind} "
                              f"at depth {v.depth_consumed}")
        return ciphertext_size_bytes(self.levels_remaining(v), self.config, seeded)


def chebyshev_depth(degree: int) -> int:
    """Levels the engine charges for a series of this degree."""
    return math.ceil(math.log2(degree + 1)) + 1


def ciphertext_size_bytes(levels_remaining: int, cfg: EngineConfig, seeded: bool = False) -> int:
    """Byte size of a ciphertext with the given number of levels left.

    Two ring polynomials over a ring of dimension 2 * slot_count, one
    residue limb per remaining level plus one.  ``seeded``: one polynomial
    plus ``SEED_BYTES``, the form of a fresh ciphertext whose second
    polynomial is uniform, which the receiver expands from the seed
    (SEAL's seeded serialization).  That holds for an encryption under the
    secret key and for a public key, whose uniform half is, under MPC, the
    collective key's common reference polynomial (Mouchet et al., PoPETs
    2021); an encryption under a public key has no uniform half.
    """
    if levels_remaining < 0:
        raise ValueError("levels_remaining must be non-negative")
    polynomials = 1 if seeded else 2
    raw = polynomials * cfg.slot_count * 2 * (levels_remaining + 1) * cfg.size_model.bytes_per_slot_per_level
    return math.ceil(raw) + (SEED_BYTES if seeded else 0)
