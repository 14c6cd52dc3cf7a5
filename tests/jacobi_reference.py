"""Frozen reference for the Jacobi rotation loop of ``linalg.hermitian_eig``.

This is the eigensolver as it stood before its rotations were made
copy-free: NumPy scalars for the rotation parameters and a copy of every
column and row before it is overwritten. It is kept verbatim, for tests
only, as the oracle the current solver must match bit for bit.
"""

from __future__ import annotations

import numpy as np

from normalobs.errors import ConvergenceFailure, NotHermitian
from normalobs.linalg import DEFAULT_TOL, as_matrix, fix_column_phases, frobenius_norm, is_hermitian

_JACOBI_OFF_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 100


def hermitian_eig(h, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
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
