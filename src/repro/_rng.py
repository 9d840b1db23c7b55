"""Fast, allocation-free deterministic pseudo-randomness.

The simulator draws millions of tiny next-token distributions per run, so we
cannot afford a ``numpy.random.Generator`` construction per draw.  Instead,
every random quantity in the synthetic model substrate is a pure function of
a 64-bit *context hash* computed with splitmix64-style mixing.  This gives:

- determinism: the same (seed, token sequence) always yields the same
  distribution, which is what makes tree verification consistent with
  sequence decoding;
- O(1) incremental updates: appending a token to a context is one mix step;
- speed: a handful of integer multiplications per uniform.

All functions operate on Python ints masked to 64 bits, except
:func:`fold_sum`, the one float sum the simulator uses.  The array forms
live in :mod:`repro._vrng`.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import reduce
from operator import add

MASK64 = (1 << 64) - 1

# Multipliers from the splitmix64 / Murmur3 finalizer families.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_COMBINE = 0x2545F4914F6CDD1D

_INV_2_53 = 1.0 / (1 << 53)


def splitmix64(x: int) -> int:
    """Finalize a 64-bit value into a well-mixed 64-bit value."""
    x = (x + _GOLDEN) & MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & MASK64
    return x ^ (x >> 31)


def mix(h: int, v: int) -> int:
    """Combine a hash with a new value (e.g. append a token to a context)."""
    return splitmix64((h ^ (v * _COMBINE)) & MASK64)


def hash_seed(*parts: int) -> int:
    """Build a root hash from integer parts (seed, request id, ...)."""
    h = 0x853C49E6748FEA9B
    for p in parts:
        h = mix(h, p & MASK64)
    return h


def salted(salt: int) -> int:
    """Precompute the XOR mask ``(salt * _COMBINE) & MASK64`` for a salt.

    Hot loops (see :mod:`repro.model.stochastic_lm`) draw many uniforms
    per context with a fixed salt; since every context hash fits in 64
    bits, ``(h ^ (salt * _COMBINE)) & MASK64 == h ^ salted(salt)``, so
    the multiply-and-mask can be hoisted out of the loop without
    changing a single draw.
    """
    return (salt * _COMBINE) & MASK64


def uniform(h: int, salt: int) -> float:
    """One uniform in [0, 1) derived from (hash, salt)."""
    return (splitmix64((h ^ (salt * _COMBINE)) & MASK64) >> 11) * _INV_2_53


def randint(h: int, salt: int, lo: int, hi: int) -> int:
    """One integer in [lo, hi) derived from (hash, salt)."""
    span = hi - lo
    if span <= 0:
        raise ValueError(f"empty range [{lo}, {hi})")
    return lo + splitmix64((h ^ (salt * _COMBINE)) & MASK64) % span


def derive_seed(base_seed: int, *parts: object) -> int:
    """Deterministic sub-seed from a base seed plus labels.

    Labels may be ints or strings (folded byte-by-byte), so seed
    derivation is stable across processes, platforms, and Python hash
    randomization.  Returns a non-negative 63-bit integer.
    """
    h = hash_seed(int(base_seed) & MASK64)
    for part in parts:
        if isinstance(part, int):
            h = mix(h, part & MASK64)
        else:
            for byte in str(part).encode("utf-8"):
                h = mix(h, byte)
    return h >> 1


def fold_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum: the same bits on every Python version.

    From Python 3.12 the builtin ``sum()`` compensates its rounding
    (Neumaier), so a float total it feeds into a fixed-seed run would
    differ between 3.11 and 3.12.  This fold rounds after every
    addition, exactly as ``sum()`` did before 3.12.  Integer-only sums
    keep using ``sum()``, which is exact on every version.
    """
    return reduce(add, values, 0.0)
