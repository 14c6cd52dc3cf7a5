"""Deterministic 64-bit random number generation.

The generator is SplitMix64 (Steele, Lea and Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014), chosen because its entire
state is one 64-bit word and its output sequence is defined purely by
integer arithmetic, so identical seeds give identical streams on every
platform. State is passed in and returned explicitly; nothing is mutated.
"""

from __future__ import annotations

import math

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# 2^-53; top 53 bits of a word map to a double in [0, 1)
_INV_2_53 = 1.0 / 9007199254740992.0


def splitmix64_next(state: int) -> tuple[int, int]:
    """Advance the state by one step; return (output word, next state)."""
    state = (state + _GAMMA) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    z ^= z >> 31
    return z, state


def unit_double(word: int) -> float:
    """Map a 64-bit word to a double in [0, 1) using its top 53 bits."""
    return (word >> 11) * _INV_2_53


def next_double(state: int) -> tuple[float, int]:
    word, state = splitmix64_next(state)
    return unit_double(word), state


def next_gaussian_pair(state: int) -> tuple[float, float, int]:
    """Draw two standard normals by the Box-Muller transform."""
    w1, state = splitmix64_next(state)
    w2, state = splitmix64_next(state)
    # shift into (0, 1] so the logarithm is finite
    u1 = ((w1 >> 11) + 1) * _INV_2_53
    u2 = unit_double(w2)
    r = math.sqrt(-2.0 * math.log(u1))
    return r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2), state


def seed_state(seed: int) -> int:
    """Reduce an arbitrary Python integer seed to a 64-bit state word."""
    return seed & MASK64

