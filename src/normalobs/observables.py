"""Observables as normal operators with their spectral decomposition.

An observable is any matrix that commutes with its adjoint. Such a matrix
splits into commuting Hermitian parts B = C + iD, is unitarily
diagonalizable with mutually orthogonal eigenspaces, and carries complex
eigenvalues c + id. The :class:`Observable` type stores the matrix
together with its eigenvalues, an orthonormal eigenbasis, and the grouping
of basis columns into eigenspaces; everything downstream (measurement,
dynamics, the CHSH suite) consumes that decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateLabels,
    NotCommuting,
    NotHermitian,
    NotNormal,
    NotNormalized,
)
from .linalg import (
    DEFAULT_TOL,
    as_matrix,
    commutator,
    fix_column_phases,
    frobenius_norm,
    hermitian_eig,
    is_hermitian,
)

# relative scale for merging nearby eigenvalues into one eigenspace
_CLUSTER_SCALE = 1e-8

_NORMALITY_TOL = 1e-10
_RECONSTRUCTION_TOL = 1e-9
_ORTHONORMALITY_TOL = 1e-9


def normality_residual(m) -> float:
    """||M^dag M - M M^dag||_F, the defect from commuting with the adjoint."""
    a = as_matrix(m)
    ad = a.conj().T
    return frobenius_norm(ad @ a - a @ ad)


def check_normal(m, tol: float = _NORMALITY_TOL) -> bool:
    """True iff the commutation residual is at most tol * max(1, ||M||_F^2)."""
    a = as_matrix(m)
    return normality_residual(a) <= tol * max(1.0, frobenius_norm(a) ** 2)


def hermitian_parts(b) -> tuple[np.ndarray, np.ndarray]:
    """Split B into Hermitian C = (B + B^dag)/2 and D = (B - B^dag)/2i.

    B = C + iD always; B is normal exactly when C and D commute.
    """
    a = as_matrix(b)
    ad = a.conj().T
    return (a + ad) / 2.0, (a - ad) / 2.0j


def commutator_of_parts_norm(b) -> float:
    """||[C, D]||_F for the Hermitian parts of B; zero exactly when B is normal."""
    c, d = hermitian_parts(b)
    return frobenius_norm(commutator(c, d))


@dataclass(frozen=True)
class Observable:
    """A verified-normal operator with its spectral data.

    ``eigenvalues[k]`` belongs to eigenbasis column ``k``; ``eigenspaces``
    groups column indices that share one eigenvalue, and ``projectors[g]``
    is the orthogonal projector onto eigenspace ``g``. Instances are
    immutable; construct them via :func:`spectral_decompose`,
    :func:`from_commuting_pair` or :func:`relabel`.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenbasis: np.ndarray
    eigenspaces: tuple[tuple[int, ...], ...]
    projectors: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = as_matrix(self.matrix)
        evals = np.asarray(self.eigenvalues, dtype=complex).copy()
        u = as_matrix(self.eigenbasis)
        n = m.shape[0]
        if evals.shape != (n,) or u.shape != (n, n):
            raise DimensionMismatch("eigenvalue/eigenbasis shapes do not match matrix")
        groups = tuple(tuple(int(i) for i in g) for g in self.eigenspaces)
        if sorted(i for g in groups for i in g) != list(range(n)):
            raise ValueError("eigenspaces must partition the column indices")

        scale = frobenius_norm(m)
        res_normal = normality_residual(m)
        if res_normal > _NORMALITY_TOL * max(1.0, scale**2):
            raise NotNormal(
                f"matrix is not normal: residual {res_normal:.3e}", residual=res_normal
            )
        res_ortho = frobenius_norm(u.conj().T @ u - np.eye(n))
        if res_ortho > _ORTHONORMALITY_TOL:
            raise ValueError(f"eigenbasis is not orthonormal: residual {res_ortho:.3e}")
        res_rec = frobenius_norm((u * evals) @ u.conj().T - m)
        if res_rec > _RECONSTRUCTION_TOL * max(1.0, scale):
            raise ValueError(f"spectral reconstruction residual too large: {res_rec:.3e}")

        m = m.copy()
        m.setflags(write=False)
        evals.setflags(write=False)
        u = u.copy()
        u.setflags(write=False)
        projectors = []
        for g in groups:
            cols = u[:, list(g)]
            p = cols @ cols.conj().T
            p.setflags(write=False)
            projectors.append(p)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "eigenvalues", evals)
        object.__setattr__(self, "eigenbasis", u)
        object.__setattr__(self, "eigenspaces", groups)
        object.__setattr__(self, "projectors", tuple(projectors))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenspace_values(self) -> tuple[complex, ...]:
        """One eigenvalue per eigenspace, in eigenspace order."""
        return tuple(complex(self.eigenvalues[g[0]]) for g in self.eigenspaces)


def _cluster_tolerance(values: np.ndarray) -> float:
    spread = 0.0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            spread = max(spread, abs(values[i] - values[j]))
    return _CLUSTER_SCALE * (spread + 1.0)


def _single_linkage(values: np.ndarray, tol: float) -> tuple[tuple[int, ...], ...]:
    """Index groups joined by chains of values at most ``tol`` apart.

    These are the connected components of the graph linking every pair of
    values within ``tol``; they are ordered by their smallest index.
    """
    groups = []
    rest = list(range(len(values)))
    while rest:
        component = [rest.pop(0)]
        for k in component:  # the component grows while it is walked
            near = [j for j in rest if abs(values[j] - values[k]) <= tol]
            rest = [j for j in rest if j not in near]
            component += near
        groups.append(tuple(sorted(component)))
    return tuple(groups)


def spectral_decompose(m, tol: float = _NORMALITY_TOL) -> Observable:
    """Decompose a normal matrix into an :class:`Observable`.

    The matrix is split into commuting Hermitian parts (C, D); C is
    diagonalized first, then D is diagonalized inside each (near-)
    degenerate eigenspace of C, which is exactly where C alone leaves the
    basis undetermined. Eigenvalues are the per-column Rayleigh quotients
    c + id, sorted ascending by (real, imaginary). Columns form one
    eigenspace when a chain of eigenvalues, each within the clustering
    tolerance of the next, joins them (single linkage); eigenspaces are
    ordered by their first column.

    Raises NotNormal (reporting the commutation residual) when the input
    fails :func:`check_normal` at ``tol``.
    """
    a = as_matrix(m)
    if not check_normal(a, tol):
        res = normality_residual(a)
        raise NotNormal(
            f"matrix is not normal within {tol:g}: residual {res:.3e}", residual=res
        )
    n = a.shape[0]
    c, d = hermitian_parts(a)
    cvals, u = hermitian_eig(c)
    u = np.array(u, dtype=complex)

    delta = _CLUSTER_SCALE * (float(cvals[-1] - cvals[0]) + 1.0)
    evals = np.zeros(n, dtype=complex)
    i = 0
    while i < n:
        j = i + 1
        while j < n and cvals[j] - cvals[j - 1] < delta:
            j += 1
        if j - i > 1:
            block = u[:, i:j]
            dblock = block.conj().T @ d @ block
            dblock = (dblock + dblock.conj().T) / 2.0
            _, v = hermitian_eig(dblock)
            u[:, i:j] = block @ v
        for k in range(i, j):
            col = u[:, k]
            evals[k] = complex(np.vdot(col, a @ col))
        i = j

    order = np.lexsort((evals.imag, evals.real))
    evals = evals[order]
    u = fix_column_phases(u[:, order])

    groups = _single_linkage(evals, _cluster_tolerance(evals))
    return Observable(matrix=a, eigenvalues=evals, eigenbasis=u, eigenspaces=groups)


def from_commuting_pair(c, d, tol: float = DEFAULT_TOL) -> Observable:
    """Build the observable C + iD from two commuting Hermitian matrices.

    Each joint eigenstate with C-eigenvalue c and D-eigenvalue d carries
    the complex eigenvalue c + id.
    """
    cm = as_matrix(c)
    dm = as_matrix(d)
    if cm.shape != dm.shape:
        raise DimensionMismatch(f"shapes differ: {cm.shape} vs {dm.shape}")
    if not is_hermitian(cm, tol):
        raise NotHermitian("first matrix is not Hermitian within tolerance")
    if not is_hermitian(dm, tol):
        raise NotHermitian("second matrix is not Hermitian within tolerance")
    res = frobenius_norm(commutator(cm, dm))
    bound = tol * max(1.0, frobenius_norm(cm) * frobenius_norm(dm))
    if res > bound:
        raise NotCommuting(f"commutator norm {res:.3e} exceeds {bound:.3e}")
    return spectral_decompose(cm + 1j * dm)


def _amplitudes(psi) -> np.ndarray:
    amps = getattr(psi, "amplitudes", psi)
    return np.asarray(amps, dtype=complex)


def expectation(a: Observable, psi, tol: float = DEFAULT_TOL) -> complex:
    """<psi| A |psi> for a normalized state; complex in general."""
    amps = _amplitudes(psi)
    if amps.shape != (a.dim,):
        raise DimensionMismatch(
            f"state has dimension {amps.shape}, observable is {a.dim}x{a.dim}"
        )
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > tol:
        raise NotNormalized(f"state norm {norm!r} is not 1 within {tol:g}")
    return complex(np.vdot(amps, a.matrix @ amps))


def relabel(a: Observable, labels: Mapping[int, complex]) -> Observable:
    """Replace the eigenvalue of each eigenspace; eigenspaces are untouched.

    ``labels`` maps eigenspace index to the new value and must cover every
    eigenspace. Two eigenspaces mapped to the same value would merge
    outcomes, so that raises DuplicateLabels. The matrix is rebuilt as
    U diag(new) U^dag; probabilities and post-measurement states of the
    result are bit-identical to the original's.
    """
    n_spaces = len(a.eigenspaces)
    missing = [g for g in range(n_spaces) if g not in labels]
    if missing:
        raise ValueError(f"relabeling does not cover eigenspaces {missing}")
    new_per_space = [complex(labels[g]) for g in range(n_spaces)]
    for g in range(n_spaces):
        for h in range(g + 1, n_spaces):
            if new_per_space[g] == new_per_space[h]:
                raise DuplicateLabels(
                    f"eigenspaces {g} and {h} both mapped to {new_per_space[g]}"
                )
    evals = np.array(a.eigenvalues, dtype=complex)
    for g, group in enumerate(a.eigenspaces):
        for k in group:
            evals[k] = new_per_space[g]
    u = a.eigenbasis
    matrix = (u * evals) @ u.conj().T
    return Observable(
        matrix=matrix, eigenvalues=evals, eigenbasis=u, eigenspaces=a.eigenspaces
    )


def scale_phase(a: Observable, phi: float) -> Observable:
    """Multiply the observable by e^{i phi}: a pure relabeling of outcomes."""
    factor = complex(np.exp(1j * phi))
    return relabel(a, {g: factor * v for g, v in enumerate(a.eigenspace_values())})
