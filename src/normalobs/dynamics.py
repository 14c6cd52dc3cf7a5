"""Expectation-value dynamics under a Hermitian Hamiltonian (hbar = 1).

Time evolution is exact spectral exponentiation, so comparisons between
the time derivative of <A>(t) and the commutator expectation
(1/i) <[A, H]> carry no integrator error; any deviation beyond finite
difference truncation is a real defect. The comparison is insensitive to
whether A is Hermitian, which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NotHermitian
from .linalg import as_matrix, hermitian_eig, is_hermitian
from .measurement import StateVector, as_state
from .observables import Observable, expectation

DEFAULT_DT = 1e-5


@dataclass(frozen=True)
class Hamiltonian:
    """Hermitian generator with its eigendecomposition precomputed."""

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    basis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if not is_hermitian(m):
            raise NotHermitian("Hamiltonian is not Hermitian within tolerance")
        evals, u = hermitian_eig(m)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "eigenvalues", evals)
        object.__setattr__(self, "basis", u)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def evolve(psi: StateVector, h: Hamiltonian, t: float) -> StateVector:
    """exp(-iHt) |psi> via the spectral decomposition of H."""
    psi = as_state(psi, h.dim)
    phases = np.exp(-1j * h.eigenvalues * t)
    amps = h.basis @ (phases * (h.basis.conj().T @ psi.amplitudes))
    return StateVector(amps)


def heisenberg_rhs(a: Observable, h: Hamiltonian, psi: StateVector) -> complex:
    """(1/i) <psi| [A, H] |psi>, the commutator side of the equation of motion."""
    amps = as_state(psi, h.dim).amplitudes
    if a.dim != h.dim:
        raise DimensionMismatch(f"observable has dimension {a.dim}, expected {h.dim}")
    comm = a.matrix @ h.matrix - h.matrix @ a.matrix
    return complex(np.vdot(amps, comm @ amps) / 1j)


def heisenberg_comparison(
    a: Observable, h: Hamiltonian, psi: StateVector, t: float, dt: float = DEFAULT_DT
) -> tuple[complex, complex]:
    """(central-difference d<A>/dt, commutator side) at time ``t``."""
    fwd = expectation(a, evolve(psi, h, t + dt))
    bwd = expectation(a, evolve(psi, h, t - dt))
    lhs = (fwd - bwd) / (2.0 * dt)
    rhs = heisenberg_rhs(a, h, evolve(psi, h, t))
    return lhs, rhs


def ehrenfest_check(
    a: Observable,
    h: Hamiltonian,
    psi: StateVector,
    t_grid: Sequence[float],
    dt: float = DEFAULT_DT,
) -> float:
    """Max deviation between d<A>/dt and (1/i)<[A,H]> over the time grid."""
    worst = 0.0
    for t in t_grid:
        lhs, rhs = heisenberg_comparison(a, h, psi, float(t), dt)
        worst = max(worst, abs(lhs - rhs))
    return worst
