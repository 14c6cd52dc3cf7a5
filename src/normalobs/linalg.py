"""Dense complex linear algebra kernel.

Matrices are square numpy arrays of complex128; vectors are 1-d complex128
arrays. All public functions are pure and never modify their arguments. The
Hermitian eigensolver is a cyclic Jacobi iteration with complex Givens
rotations, kept in-repo so its behaviour (ordering, phase gauge,
tolerances) is fully pinned down.

Its output is pinned to the bit, not only to rounding. The rotation
parameters are Python floats and complexes that round exactly as NumPy's
scalars do, and each column or row is scaled as a scalar times a 1-d
array, because NumPy's SIMD complex-array product rounds differently
from its scalar product. :func:`hermitian_eig` lists the rules; a change
that breaks one changes output bits.
"""

from __future__ import annotations

import math

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
    return _hermitian_within(a, frobenius_norm(a), tol)


def _hermitian_within(a: np.ndarray, norm: float, tol: float) -> bool:
    """The :func:`is_hermitian` test for a checked matrix of Frobenius norm ``norm``."""
    return frobenius_norm(a - a.conj().T) <= tol * max(1.0, norm)


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

    The output bits are pinned, and any edit to the rotation must keep
    these rules (``tests/test_jacobi_oracle.py`` checks them against a
    frozen copy of the earlier NumPy-scalar loop):

    - ``mod = abs(a_pq)`` on a Python complex: ``hypot``, as NumPy's
      scalar ``abs``;
    - ``phase = a_pq / mod`` as NumPy divides a complex by a real: both
      parts times ``1.0 / mod``, plus the zero products by which NumPy
      sets the signs of zero parts;
    - ``tau``, ``t``, ``c`` and ``s`` are Python floats (``math.sqrt`` and
      ``math.copysign`` round as NumPy's do). ``c`` and ``s`` then become
      Python complexes with zero imaginary part, as NumPy promotes a real
      scalar before a complex product, so ``s * conj(phase)`` and
      ``c * conj(phase)`` are Python complex products, which equal
      NumPy's scalar products;
    - every column and row is scaled as one scalar, on the left, times one
      1-d array. NumPy's SIMD complex-array product rounds differently
      from its scalar product, so a coefficient must never be applied as
      an array, nor two columns gathered into one product;
    - the off-diagonal mass is the norm of a copy of ``A`` with its
      diagonal set to zero, the same values and layout as
      ``A - diag(diag(A))``.

    Raises NotHermitian if the input fails :func:`is_hermitian` at ``tol``,
    and ConvergenceFailure if 100 sweeps leave the off-diagonal mass above
    its threshold.
    """
    m = as_matrix(h)
    norm = frobenius_norm(m)
    if not _hermitian_within(m, norm, tol):
        raise NotHermitian(
            f"matrix is not Hermitian within {tol:g} relative tolerance"
        )
    n = m.shape[0]
    # rows :n hold A and rows n: its eigenvector accumulator U, so one
    # column rotation turns both
    au = np.empty((2 * n, n), dtype=complex)
    a = au[:n]
    # iterate on the exactly-Hermitian part so rotations stay consistent
    a[...] = (m + m.conj().T) / 2.0
    au[n:] = np.eye(n)
    columns = [au[:, j] for j in range(n)]
    rows = list(a)
    threshold = _JACOBI_OFF_TOL * max(norm, np.finfo(float).tiny)
    scratch = np.empty((n, n), dtype=complex)

    def off_mass() -> float:
        np.copyto(scratch, a)
        np.fill_diagonal(scratch, 0.0)
        return frobenius_norm(scratch)

    converged = n == 1
    for _ in range(_JACOBI_MAX_SWEEPS):
        if off_mass() <= threshold:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a.item(p, q)
                mod = abs(apq)
                if mod == 0.0:
                    continue
                # NumPy's complex / real; the zero products keep its signed zeros
                scl = 1.0 / mod
                phase = complex(
                    (apq.real + apq.imag * 0.0) * scl, (apq.imag - apq.real * 0.0) * scl
                )
                tau = (a.item(q, q).real - a.item(p, p).real) / (2.0 * mod)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                c, s = complex(c), complex(t * c)
                _rotate(columns[p], columns[q], c, s, phase.conjugate())
                _rotate(rows[p], rows[q], c, s, phase)
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a.item(p, p).real
                a[q, q] = a.item(q, q).real
    else:
        converged = off_mass() <= threshold
    if not converged:
        raise ConvergenceFailure(
            f"Jacobi iteration did not converge in {_JACOBI_MAX_SWEEPS} sweeps"
        )

    evals = np.diag(a).real.copy()
    order = np.argsort(evals, kind="stable")
    evals = evals[order]
    u = fix_column_phases(au[n:, order])
    evals.setflags(write=False)
    u.setflags(write=False)
    return evals, u


def _rotate(x: np.ndarray, y: np.ndarray, c: complex, s: complex, w: complex) -> None:
    """Overwrite x, y with c*x - s*w*y and s*x + c*w*y, in place.

    All four products read the old x and y before either is written.
    """
    cx, swy, sx, cwy = c * x, s * w * y, s * x, c * w * y
    np.subtract(cx, swy, out=x)
    np.add(sx, cwy, out=y)


def operator_norm(m) -> float:
    """Largest singular value, via the top eigenvalue of M^dag M."""
    a = as_matrix(m)
    evals, _ = hermitian_eig(a.conj().T @ a)
    return float(np.sqrt(max(evals[-1], 0.0)))
