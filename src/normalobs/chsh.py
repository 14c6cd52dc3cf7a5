"""Complex-outcome CHSH correlations, bounds, and setting optimization.

Two parties measure one qubit each of a shared two-qubit state; each party
has two observables whose eigenvalues all have modulus 1 (so the operators
are unitary as well as normal). Outcome labels may be complex, e.g. one
party records {i, -i} instead of {1, -1}. The deterministic local-strategy
value never exceeds 2 in modulus and the quantum value never exceeds
2*sqrt(2); neither ceiling moves when labels pick up phases, which this
module makes checkable numerically from several independent directions:
exhaustive strategy enumeration, exact Born-rule joint distributions,
operator-norm bounds on Z = A1 B1 + A1 B2 + A2 B1 - A2 B2, and direct
expansion identities for Z^dag Z.

Joint basis index convention: 2 * (first party) + (second party), i.e.
``numpy.kron(alice, bob)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InternalInvariantViolation,
    NotHermitianUnitary,
    NotUnimodular,
)
from .linalg import frobenius_norm, hermitian_eig, is_hermitian, operator_norm
from .measurement import StateVector, as_state
from .observables import Observable, scale_phase, spectral_decompose
from .qubit import PAULI_BASIS, bloch_matrix, bloch_vector
from .rng import next_double, next_gaussian_pair, seed_state

TSIRELSON_BOUND = 2.0 * np.sqrt(2.0)

_UNIMODULAR_TOL = 1e-12
_SPECTRUM_TOL = 1e-10
_PROB_TOL = 1e-10


# ---------------------------------------------------------------------------
# local deterministic strategies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OutcomeAlphabet:
    """Two distinct unit-modulus labels one party may assign to results."""

    labels: tuple[complex, complex]

    def __post_init__(self):
        labels = tuple(complex(x) for x in self.labels)
        if len(labels) != 2:
            raise ValueError("an alphabet has exactly two labels")
        for x in labels:
            if abs(abs(x) - 1.0) > _UNIMODULAR_TOL:
                raise NotUnimodular(f"label {x} has modulus {abs(x)!r}, expected 1")
        if labels[0] == labels[1]:
            raise ValueError("alphabet labels must be distinct")
        object.__setattr__(self, "labels", labels)


@dataclass(frozen=True)
class LhvStrategy:
    """Predefined outcomes (a1, a2, b1, b2), one per setting of each party."""

    a1: complex
    a2: complex
    b1: complex
    b2: complex


def lhv_value(s: LhvStrategy) -> complex:
    """S = a1 b1 + a1 b2 + a2 b1 - a2 b2 = b1 (a1 + a2) + b2 (a1 - a2)."""
    return s.a1 * s.b1 + s.a1 * s.b2 + s.a2 * s.b1 - s.a2 * s.b2


def enumerate_strategies(
    alphabet_a: OutcomeAlphabet, alphabet_b: OutcomeAlphabet
) -> tuple[LhvStrategy, ...]:
    """All 16 deterministic strategies, in a fixed order."""
    return tuple(
        LhvStrategy(a1, a2, b1, b2)
        for a1, a2, b1, b2 in itertools.product(
            alphabet_a.labels, alphabet_a.labels, alphabet_b.labels, alphabet_b.labels
        )
    )


def lhv_max(alphabet_a: OutcomeAlphabet, alphabet_b: OutcomeAlphabet) -> float:
    """Exhaustive maximum of |S| over the 16 deterministic strategies."""
    return max(
        abs(lhv_value(s)) for s in enumerate_strategies(alphabet_a, alphabet_b)
    )


# ---------------------------------------------------------------------------
# quantum correlations
# ---------------------------------------------------------------------------


def _require_unimodular_spectrum(obs: Observable, name: str) -> None:
    for lam in obs.eigenvalues:
        if abs(abs(lam) - 1.0) > _SPECTRUM_TOL:
            raise NotUnimodular(
                f"{name}: eigenvalue {lam} has modulus {abs(lam)!r}, expected 1"
            )


@dataclass(frozen=True)
class ChshScenario:
    """Four single-qubit observables with unit-modulus spectra plus a joint state."""

    a1: Observable
    a2: Observable
    b1: Observable
    b2: Observable
    psi: StateVector

    def __post_init__(self):
        for name, obs in self.observables().items():
            if obs.dim != 2:
                raise DimensionMismatch(f"{name} must be 2x2, got {obs.dim}x{obs.dim}")
            _require_unimodular_spectrum(obs, name)
        object.__setattr__(self, "psi", as_state(self.psi, 4))

    def observables(self) -> dict[str, Observable]:
        return {"A1": self.a1, "A2": self.a2, "B1": self.b1, "B2": self.b2}


@dataclass(frozen=True)
class JointDistribution:
    """Probabilities over (first-party label, second-party label) pairs."""

    probabilities: dict[tuple[complex, complex], float]

    def __post_init__(self):
        total = sum(self.probabilities.values())
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"joint probabilities sum to {total!r}, not 1")
        if any(p < 0.0 for p in self.probabilities.values()):
            raise ValueError("negative joint probability")


def joint_distribution(a: Observable, b: Observable, psi: StateVector) -> JointDistribution:
    """Born-rule joint outcome distribution from commuting local projectors.

    P(label_a, label_b) = || (P_a tensor Q_b) psi ||^2.
    """
    if a.dim != 2 or b.dim != 2:
        raise DimensionMismatch("joint distributions are defined for 2x2 observables")
    amps = as_state(psi, 4).amplitudes
    probs: dict[tuple[complex, complex], float] = {}
    values_a = a.eigenspace_values()
    values_b = b.eigenspace_values()
    for i, pa in enumerate(a.projectors):
        for j, qb in enumerate(b.projectors):
            projected = np.kron(pa, qb) @ amps
            probs[(values_a[i], values_b[j])] = float(
                np.real(np.vdot(projected, projected))
            )
    return JointDistribution(probabilities=probs)


def correlation_from_joint(dist: JointDistribution) -> complex:
    """Sum of label_a * label_b weighted by the joint probabilities."""
    return sum(
        (a * b) * p for (a, b), p in dist.probabilities.items()
    )


def quantum_correlation(a: Observable, b: Observable, psi: StateVector) -> complex:
    """<psi| A tensor B |psi>."""
    if a.dim != 2 or b.dim != 2:
        raise DimensionMismatch("correlations are defined for 2x2 observables")
    amps = as_state(psi, 4).amplitudes
    return complex(np.vdot(amps, np.kron(a.matrix, b.matrix) @ amps))


def chsh_value(sc: ChshScenario) -> complex:
    """C(A1,B1) + C(A1,B2) + C(A2,B1) - C(A2,B2)."""
    return (
        quantum_correlation(sc.a1, sc.b1, sc.psi)
        + quantum_correlation(sc.a1, sc.b2, sc.psi)
        + quantum_correlation(sc.a2, sc.b1, sc.psi)
        - quantum_correlation(sc.a2, sc.b2, sc.psi)
    )


def z_operator(sc: ChshScenario) -> np.ndarray:
    """Z = A1 B1 + A1 B2 + A2 B1 - A2 B2 on the two-particle space."""
    a1, a2 = sc.a1.matrix, sc.a2.matrix
    b1, b2 = sc.b1.matrix, sc.b2.matrix
    return (
        np.kron(a1, b1) + np.kron(a1, b2) + np.kron(a2, b1) - np.kron(a2, b2)
    )


def zdagz_expansion_residual(sc: ChshScenario) -> float:
    """Frobenius distance between Z^dag Z and its seven-term expansion.

    The expansion groups the sixteen cross products of Z^dag Z into four
    diagonal terms plus three bracketed products of single-party factors;
    it is an algebraic identity, so the residual is rounding noise.
    """
    a1, a2 = sc.a1.matrix, sc.a2.matrix
    b1, b2 = sc.b1.matrix, sc.b2.matrix
    a1d, a2d = a1.conj().T, a2.conj().T
    b1d, b2d = b1.conj().T, b2.conj().T
    z = z_operator(sc)
    zdagz = z.conj().T @ z
    expansion = (
        np.kron(a1d @ a1, b1d @ b1)
        + np.kron(a1d @ a1, b2d @ b2)
        + np.kron(a2d @ a2, b1d @ b1)
        + np.kron(a2d @ a2, b2d @ b2)
        + np.kron(a1d @ a1 - a2d @ a2, b1d @ b2 + b2d @ b1)
        + np.kron(a1d @ a2 + a2d @ a1, b1d @ b1 - b2d @ b2)
        + np.kron(a1d @ a2 - a2d @ a1, b2d @ b1 - b1d @ b2)
    )
    return frobenius_norm(zdagz - expansion)


def hermitian_z_squared_residual(sc: ChshScenario, tol: float = _SPECTRUM_TOL) -> float:
    """Frobenius distance between Z^2 and 4I - [A1,A2] tensor [B1,B2].

    Only defined when all four observables are Hermitian with square
    identity; otherwise raises NotHermitianUnitary.
    """
    for name, obs in sc.observables().items():
        m = obs.matrix
        if not is_hermitian(m, tol):
            raise NotHermitianUnitary(f"{name} is not Hermitian")
        if frobenius_norm(m @ m - np.eye(2)) > tol * np.sqrt(2.0):
            raise NotHermitianUnitary(f"{name} squared is not the identity")
    a1, a2 = sc.a1.matrix, sc.a2.matrix
    b1, b2 = sc.b1.matrix, sc.b2.matrix
    z = z_operator(sc)
    comm_a = a1 @ a2 - a2 @ a1
    comm_b = b1 @ b2 - b2 @ b1
    reduced = 4.0 * np.eye(4) - np.kron(comm_a, comm_b)
    return frobenius_norm(z @ z - reduced)


class TsirelsonResult(NamedTuple):
    norm: float
    satisfied: bool


def tsirelson_check(sc: ChshScenario, slack: float = 1e-9) -> TsirelsonResult:
    """Operator norm of Z and whether it is at most 2*sqrt(2) + slack.

    Also cross-checks ||Z^dag Z|| against the reduced form
    ||4I + (A1^dag A2 - A2^dag A1) tensor (B2^dag B1 - B1^dag B2)||, which
    is exact for unitary observables; disagreement indicates a bug and
    raises InternalInvariantViolation.
    """
    z = z_operator(sc)
    zdagz = z.conj().T @ z
    norm_zdagz = operator_norm(zdagz)
    a1, a2 = sc.a1.matrix, sc.a2.matrix
    b1, b2 = sc.b1.matrix, sc.b2.matrix
    reduced = 4.0 * np.eye(4) + np.kron(
        a1.conj().T @ a2 - a2.conj().T @ a1, b2.conj().T @ b1 - b1.conj().T @ b2
    )
    norm_reduced = operator_norm(reduced)
    if abs(norm_zdagz - norm_reduced) > 1e-10 * max(1.0, norm_zdagz):
        raise InternalInvariantViolation(
            f"||Z^dag Z|| = {norm_zdagz!r} but reduced form gives {norm_reduced!r}"
        )
    norm = float(np.sqrt(max(norm_zdagz, 0.0)))
    return TsirelsonResult(norm=norm, satisfied=bool(norm <= TSIRELSON_BOUND + slack))


def phase_relabel(sc: ChshScenario, phi_a: float, phi_b: float) -> ChshScenario:
    """Multiply both of each party's observables by a party-wide phase.

    The CHSH value picks up exactly e^{i (phi_a + phi_b)}, so its modulus
    and the norm of Z are invariant.
    """
    return ChshScenario(
        a1=scale_phase(sc.a1, phi_a),
        a2=scale_phase(sc.a2, phi_a),
        b1=scale_phase(sc.b1, phi_b),
        b2=scale_phase(sc.b2, phi_b),
        psi=sc.psi,
    )


# ---------------------------------------------------------------------------
# setting optimization and random scenario draws
# ---------------------------------------------------------------------------

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_SCAN_POINTS = 12
_SWEEP_TOL = 1e-10
_MAX_SWEEPS = 200


def correlation_matrix(psi: StateVector) -> np.ndarray:
    """3x3 real matrix T with T[k,l] = <psi| sigma_k tensor sigma_l |psi>."""
    amps = as_state(psi, 4).amplitudes
    t = np.zeros((3, 3))
    for k, sk in enumerate(PAULI_BASIS):
        for l, sl in enumerate(PAULI_BASIS):
            t[k, l] = np.vdot(amps, np.kron(sk, sl) @ amps).real
    return t


def _abs_s(angles: np.ndarray, t: np.ndarray) -> float:
    va1 = bloch_vector(angles[0], angles[1])
    va2 = bloch_vector(angles[2], angles[3])
    vb1 = bloch_vector(angles[4], angles[5])
    vb2 = bloch_vector(angles[6], angles[7])
    return abs(va1 @ t @ (vb1 + vb2) + va2 @ t @ (vb1 - vb2))


def _golden_max(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
    return 0.5 * (lo + hi)


def optimize_settings(psi: StateVector, restarts: int = 32, seed: int = 0) -> ChshScenario:
    """Search Hermitian (+1/-1 outcome) settings maximizing |chsh_value|.

    Each observable is a Bloch direction, two angles apiece; the eight
    angles are optimized by coordinate-wise golden-section ascent (with a
    coarse bracketing scan per coordinate) and random restarts. A sweep
    that improves |S| by less than 1e-10 ends a restart.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    psi = as_state(psi, 4)
    t = correlation_matrix(psi)
    state = seed_state(seed)
    period = 2.0 * np.pi
    grid = np.arange(_SCAN_POINTS) * (period / _SCAN_POINTS)
    step = period / _SCAN_POINTS

    best_value = -1.0
    best_angles = np.zeros(8)
    for _ in range(restarts):
        angles = np.empty(8)
        for i in range(8):
            u, state = next_double(state)
            angles[i] = period * u
        current = _abs_s(angles, t)
        for _ in range(_MAX_SWEEPS):
            previous = current
            for i in range(8):
                def objective(x, i=i):
                    trial = angles.copy()
                    trial[i] = x
                    return _abs_s(trial, t)

                coarse = [objective(g) for g in grid]
                k = int(np.argmax(coarse))
                x = _golden_max(objective, grid[k] - step, grid[k] + step)
                value = objective(x)
                if value > current:
                    angles[i] = x
                    current = value
            if current - previous < _SWEEP_TOL:
                break
        if current > best_value:
            best_value = current
            best_angles = angles.copy()

    return ChshScenario(
        a1=spectral_decompose(bloch_matrix(best_angles[0], best_angles[1])),
        a2=spectral_decompose(bloch_matrix(best_angles[2], best_angles[3])),
        b1=spectral_decompose(bloch_matrix(best_angles[4], best_angles[5])),
        b2=spectral_decompose(bloch_matrix(best_angles[6], best_angles[7])),
        psi=psi,
    )


def _random_hermitian2(state: int) -> tuple[np.ndarray, int]:
    g1, g2, state = next_gaussian_pair(state)
    g3, g4, state = next_gaussian_pair(state)
    return np.array([[g1, g3 - 1j * g4], [g3 + 1j * g4, g2]], dtype=complex), state


def _random_unimodular_observable(state: int, hermitian: bool) -> tuple[Observable, int]:
    h, state = _random_hermitian2(state)
    _, basis = hermitian_eig(h)
    if hermitian:
        u1, state = next_double(state)
        u2, state = next_double(state)
        lams = np.array([1.0 if u1 < 0.5 else -1.0, 1.0 if u2 < 0.5 else -1.0])
    else:
        u1, state = next_double(state)
        u2, state = next_double(state)
        lams = np.exp(2j * np.pi * np.array([u1, u2]))
    matrix = (basis * lams) @ basis.conj().T
    return spectral_decompose(matrix), state


def random_scenario(state: int, hermitian: bool = False) -> tuple[ChshScenario, int]:
    """Draw a random unitary-normal scenario; returns it plus the advanced RNG state.

    Observables are random-basis diagonals with unit-modulus eigenvalues
    (random signs when ``hermitian``); the joint state is a normalized
    complex Gaussian 4-vector.
    """
    obs = []
    for _ in range(4):
        o, state = _random_unimodular_observable(state, hermitian)
        obs.append(o)
    raw = np.empty(4, dtype=complex)
    for k in range(4):
        re, im, state = next_gaussian_pair(state)
        raw[k] = re + 1j * im
    psi = StateVector.normalized(raw)
    return ChshScenario(a1=obs[0], a2=obs[1], b1=obs[2], b2=obs[3], psi=psi), state


class AuditResult(NamedTuple):
    trials: int
    max_norm: float
    passed: bool


def audit_tsirelson(trials: int, seed: int, hermitian: bool = False) -> AuditResult:
    """Check ||Z|| <= 2*sqrt(2) + 1e-9 over random scenarios."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    state = seed_state(seed)
    worst = 0.0
    for _ in range(trials):
        sc, state = random_scenario(state, hermitian)
        norm, _ = tsirelson_check(sc)
        worst = max(worst, norm)
    return AuditResult(
        trials=trials, max_norm=worst, passed=bool(worst <= TSIRELSON_BOUND + 1e-9)
    )
