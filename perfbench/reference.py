"""Independent reference implementations the benchmark checks outputs against.

Nothing here imports normalobs. SplitMix64 is re-derived from its
definition (Steele, Lea and Flood, OOPSLA 2014) in vectorised numpy
uint64 arithmetic: the k-th output of a stream seeded with s mixes the
state s + k * gamma (mod 2^64), so a whole block of draws is computed at
once and bit-identically to a scalar loop.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 1.0 / 9007199254740992.0

# words one random scenario consumes: 4 observables x (2 Gaussian pairs +
# 2 doubles) + 4 Gaussian pairs for the joint state
WORDS_PER_SCENARIO = 32


def splitmix64_scalar(seed: int, count: int) -> list[int]:
    """First ``count`` outputs of the stream seeded with ``seed``, one at a time."""
    state = seed & MASK64
    out = []
    for _ in range(count):
        state = (state + int(_GAMMA)) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * int(_MIX1)) & MASK64
        z = ((z ^ (z >> 27)) * int(_MIX2)) & MASK64
        out.append(z ^ (z >> 31))
    return out


def splitmix64_words(seed: int, count: int) -> np.ndarray:
    """First ``count`` outputs of the stream seeded with ``seed`` as uint64."""
    k = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & MASK64) + k * _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def unit_doubles(words: np.ndarray) -> np.ndarray:
    """Top 53 bits of each word as a double in [0, 1); exact in float64."""
    return (words >> np.uint64(11)).astype(np.float64) * _INV_2_53


def inverse_cdf_counts(probabilities, shots: int, seed: int) -> list[int]:
    """Outcome counts of ``shots`` inverse-CDF draws over ``probabilities``.

    A draw u selects the first outcome whose cumulative probability exceeds
    u; a u at or past the last cumulative value (rounding) selects the last
    outcome of positive probability.
    """
    probs = np.asarray(probabilities, dtype=float)
    cumulative = np.cumsum(probs)
    fallback = int(np.flatnonzero(probs > 0.0)[-1])
    idx = np.searchsorted(cumulative, unit_doubles(splitmix64_words(seed, shots)), side="right")
    idx[idx >= len(probs)] = fallback
    return np.bincount(idx, minlength=len(probs)).tolist()


def _gaussian_pairs(w1: np.ndarray, w2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u1 = ((w1 >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
    u2 = unit_doubles(w2)
    r = np.sqrt(-2.0 * np.log(u1))
    return r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("nij,nkl->nikjl", a, b).reshape(-1, 4, 4)


def audit_max_norm(seed: int, trials: int, hermitian: bool) -> float:
    """Largest ||Z|| over the scenarios a Tsirelson audit with this seed draws.

    Each observable is a random 2x2 Hermitian's eigenbasis (numpy ``eigh``)
    carrying unit-modulus labels; ||Z|| is the square root of the top
    ``eigvalsh`` eigenvalue of Z^dag Z. The joint state does not enter ||Z||.
    """
    words = splitmix64_words(seed, WORDS_PER_SCENARIO * trials)
    obs = words.reshape(trials, WORDS_PER_SCENARIO)[:, :24].reshape(trials * 4, 6)
    g1, g2 = _gaussian_pairs(obs[:, 0], obs[:, 1])
    g3, g4 = _gaussian_pairs(obs[:, 2], obs[:, 3])
    h = np.empty((len(obs), 2, 2), dtype=complex)
    h[:, 0, 0], h[:, 1, 1] = g1, g2
    h[:, 0, 1], h[:, 1, 0] = g3 - 1j * g4, g3 + 1j * g4
    _, basis = np.linalg.eigh(h)
    u = unit_doubles(obs[:, 4:6])
    labels = np.where(u < 0.5, 1.0, -1.0) if hermitian else np.exp(2j * np.pi * u)
    m = np.einsum("nij,nj,nkj->nik", basis, labels, basis.conj()).reshape(trials, 4, 2, 2)
    a1, a2, b1, b2 = m[:, 0], m[:, 1], m[:, 2], m[:, 3]
    z = _kron2(a1, b1) + _kron2(a1, b2) + _kron2(a2, b1) - _kron2(a2, b2)
    top = np.linalg.eigvalsh(np.conj(np.swapaxes(z, 1, 2)) @ z)[:, -1]
    return float(np.sqrt(top.max()))
