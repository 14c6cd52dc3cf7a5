"""Dense complex linear algebra kernel.

Matrices are square numpy arrays of complex128; vectors are 1-d complex128
arrays. All functions are pure and never modify their arguments. The
Hermitian eigensolver is a cyclic Jacobi iteration with complex Givens
rotations, kept in-repo so its behaviour (ordering, phase gauge,
tolerances) is fully pinned down.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian

DEFAULT_TOL = 1e-10

_JACOBI_OFF_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 100
_GAUGE_CUTOFF = 1e-8


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix; reject non-square or non-finite input."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(m).conj().T.copy()


def matmul(m, j) -> np.ndarray:
    """Matrix product; operands must have equal dimension."""
    a = as_matrix(m)
    b = as_matrix(j)
    if a.shape != b.shape:
        raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


def commutator(m, j) -> np.ndarray:
    """MJ - JM."""
    a = as_matrix(m)
    b = as_matrix(j)
    if a.shape != b.shape:
        raise DimensionMismatch(f"cannot commute {a.shape} with {b.shape}")
    return a @ b - b @ a


def frobenius_norm(m) -> float:
    """Square root of the sum of squared entry moduli."""
    return float(np.linalg.norm(np.asarray(m, dtype=complex)))


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    """||M - M^dag||_F <= tol * max(1, ||M||_F)."""
    a = as_matrix(m)
    return frobenius_norm(a - a.conj().T) <= tol * max(1.0, frobenius_norm(a))


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    """||M^dag M - I||_F <= tol * sqrt(n)."""
    a = as_matrix(m)
    n = a.shape[0]
    res = frobenius_norm(a.conj().T @ a - np.eye(n))
    return res <= tol * np.sqrt(n)


def fix_column_phases(u: np.ndarray) -> np.ndarray:
    """Rescale each column so its first non-negligible entry is real positive.

    The pivot entry is the first one whose modulus exceeds 1e-8 times the
    column norm; this makes eigenbases reproducible across runs.
    """
    out = np.array(u, dtype=complex)
    n = out.shape[0]
    for j in range(out.shape[1]):
        col = out[:, j]
        cutoff = _GAUGE_CUTOFF * np.linalg.norm(col)
        for k in range(n):
            mod = abs(col[k])
            if mod > cutoff:
                out[:, j] = col * (np.conj(col[k]) / mod)
                break
    return out


def hermitian_eig(h, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a Hermitian matrix.

    Cyclic Jacobi iteration: each sweep visits every above-diagonal entry
    and annihilates it with a complex Givens rotation; sweeps repeat until
    the off-diagonal Frobenius mass falls below 1e-12 times the input norm
    (at most 100 sweeps). Returns ``(w, u)`` with ``w`` real ascending and
    ``u`` unitary such that ``h = u @ diag(w) @ u^dag``. Ties keep their
    pre-sort order and column phases follow :func:`fix_column_phases`.

    Raises NotHermitian if the input fails :func:`is_hermitian` at ``tol``.
    """
    m = as_matrix(h)
    if not is_hermitian(m, tol):
        raise NotHermitian(
            f"matrix is not Hermitian within {tol:g} relative tolerance"
        )
    n = m.shape[0]
    # iterate on the exactly-Hermitian part so rotations stay consistent
    a = (m + m.conj().T) / 2.0
    u = np.eye(n, dtype=complex)
    threshold = _JACOBI_OFF_TOL * max(frobenius_norm(m), np.finfo(float).tiny)

    def off_mass(x: np.ndarray) -> float:
        return frobenius_norm(x - np.diag(np.diag(x)))

    converged = n == 1
    for _ in range(_JACOBI_MAX_SWEEPS):
        if off_mass(a) <= threshold:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                mod = abs(apq)
                if mod == 0.0:
                    continue
                phase = apq / mod
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mod)
                t = np.copysign(1.0, tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                pc = np.conj(phase)
                ap = a[:, p].copy()
                aq = a[:, q].copy()
                a[:, p] = c * ap - s * pc * aq
                a[:, q] = s * ap + c * pc * aq
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * phase * rq
                a[q, :] = s * rp + c * phase * rq
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                up = u[:, p].copy()
                uq = u[:, q].copy()
                u[:, p] = c * up - s * pc * uq
                u[:, q] = s * up + c * pc * uq
    else:
        converged = off_mass(a) <= threshold
    if not converged:
        raise ConvergenceFailure(
            f"Jacobi iteration did not converge in {_JACOBI_MAX_SWEEPS} sweeps"
        )

    evals = np.diag(a).real.copy()
    order = np.argsort(evals, kind="stable")
    evals = evals[order]
    u = fix_column_phases(u[:, order])
    evals.setflags(write=False)
    u.setflags(write=False)
    return evals, u


def operator_norm(m) -> float:
    """Largest singular value, via the top eigenvalue of M^dag M."""
    a = as_matrix(m)
    evals, _ = hermitian_eig(a.conj().T @ a)
    return float(np.sqrt(max(evals[-1], 0.0)))
