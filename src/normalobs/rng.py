"""Deterministic 64-bit random number generation.

The generator is SplitMix64 (Steele, Lea and Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014), chosen because its entire
state is one 64-bit word and its output sequence is defined purely by
integer arithmetic, so identical seeds give identical streams on every
platform. State is passed in and returned explicitly; nothing is mutated.

The state advances by a fixed increment, so it jumps ahead in closed form:
the k-th state after ``s`` is ``s + k*GAMMA mod 2**64``, and the k-th word
is a fixed mixing function of that state alone. :func:`next_doubles` uses
this to draw a whole block at once in numpy ``uint64`` arithmetic, which
wraps modulo 2**64 exactly as the scalar code masks, so every word is the
scalar word. Its map to a double is exact as well: ``word >> 11`` has at
most 53 bits, so it converts to float64 without rounding, and the product
with 2**-53 only changes the exponent. A block therefore equals the same
number of :func:`next_double` calls bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# 2^-53; top 53 bits of a word map to a double in [0, 1)
_INV_2_53 = 1.0 / 9007199254740992.0

# uint64 operands of next_doubles (see its docstring for why)
_GAMMA_U64 = np.uint64(_GAMMA)
_MIX1_U64 = np.uint64(_MIX1)
_MIX2_U64 = np.uint64(_MIX2)
_SHIFT11, _SHIFT27, _SHIFT30, _SHIFT31 = (np.uint64(k) for k in (11, 27, 30, 31))


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


def next_doubles(state: int, count: int) -> tuple[np.ndarray, int]:
    """Draw ``count`` doubles at once; return (float64 array, next state).

    ``state`` is a 64-bit state word, as :func:`seed_state` returns. The
    result is bit for bit the values and the state that ``count``
    successive :func:`next_double` calls return: word k mixes
    ``state + k*GAMMA``, computed for k = 1..count in place in numpy
    ``uint64``. The shift counts and multipliers are ``np.uint64``
    constants, since NumPy 1.x rejects ``uint64 >> int``. The next state
    is computed in Python ints.
    """
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= _GAMMA_U64
    z += np.uint64(state & MASK64)
    z ^= z >> _SHIFT30
    z *= _MIX1_U64
    z ^= z >> _SHIFT27
    z *= _MIX2_U64
    z ^= z >> _SHIFT31
    z >>= _SHIFT11
    doubles = z.astype(np.float64)
    doubles *= _INV_2_53
    return doubles, (state + count * _GAMMA) & MASK64


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

