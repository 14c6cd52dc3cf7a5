"""The Jacobi eigensolver against its frozen reference, bit for bit.

``jacobi_reference.hermitian_eig`` is the rotation loop as it stood before
the rotations were made copy-free. Every output bit must be unchanged,
signed zeros included, since printed documents show them.
"""

import numpy as np
import pytest
from conftest import haar_unitary, random_hermitian
from jacobi_reference import hermitian_eig as reference_eig

from normalobs import ConvergenceFailure, chsh, hermitian_eig, linalg
from normalobs.qubit import SIGMA_X
from normalobs.rng import seed_state


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def assert_same_bits(h):
    w_ref, u_ref = reference_eig(h)
    w, u = hermitian_eig(h)
    assert np.array_equal(bits(w), bits(w_ref))
    assert np.array_equal(bits(u), bits(u_ref))
    # later products go through BLAS, whose rounding may follow the layout
    assert (u.flags.c_contiguous, u.flags.f_contiguous) == (
        u_ref.flags.c_contiguous,
        u_ref.flags.f_contiguous,
    )


def planted(rng, spectrum):
    v = haar_unitary(rng, len(spectrum))
    h = v @ np.diag(np.asarray(spectrum, dtype=complex)) @ v.conj().T
    return (h + h.conj().T) / 2.0


@pytest.mark.parametrize("n, count", [(1, 20), (2, 300), (3, 100), (4, 150), (5, 40), (8, 12), (16, 2)])
def test_random_hermitian(n, count):
    rng = np.random.default_rng(100 + n)
    for _ in range(count):
        assert_same_bits(random_hermitian(rng, n))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_real_symmetric(n):
    # zero imaginary parts make signed zeros common
    rng = np.random.default_rng(200 + n)
    for _ in range(30):
        x = rng.normal(size=(n, n))
        assert_same_bits(x + x.T)


def test_diagonal_and_zero_off_diagonal_entries():
    # exercises the skip of rotations whose entry is exactly zero
    rng = np.random.default_rng(301)
    for n in (2, 3, 4, 5, 8):
        assert_same_bits(np.diag(rng.normal(size=n)))
        for _ in range(30):
            h = random_hermitian(rng, n)
            mask = np.triu(rng.random((n, n)) < 0.5, 1)
            h[mask | mask.T] = 0.0
            assert_same_bits(h)


def test_zero_matrix_and_degenerate_spectra():
    rng = np.random.default_rng(302)
    for n in (1, 2, 4):
        assert_same_bits(np.zeros((n, n)))
    for n in (2, 3, 4, 6):
        for _ in range(10):
            lam = rng.normal(size=n)
            lam[1] = lam[0]
            assert_same_bits(planted(rng, lam))
    assert_same_bits(planted(rng, [1.0, 1.0, -2.0, -2.0]))


def test_graded_spectrum():
    rng = np.random.default_rng(303)
    for _ in range(20):
        assert_same_bits(planted(rng, [1.0, 1e-8, 1e-16, -1e-4]))


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_extreme_scales(scale):
    rng = np.random.default_rng(304)
    for n in (2, 3, 4, 6):
        for _ in range(10):
            assert_same_bits(scale * random_hermitian(rng, n))


def test_chsh_random_scenarios():
    state = seed_state(305)
    for k in range(25):
        sc, state = chsh.random_scenario(state, hermitian=k % 2 == 1)
        for obs in sc.observables().values():
            m = obs.matrix
            assert_same_bits((m + m.conj().T) / 2.0)
        z = chsh.z_operator(sc)
        assert_same_bits(z.conj().T @ z)


def test_one_sweep_converges_through_the_final_check(monkeypatch):
    # a 2x2 input needs one rotation; the off-diagonal mass is then tested
    # after the sweep loop ends
    monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 1)
    w, u = hermitian_eig(SIGMA_X)
    assert np.allclose(w, [-1.0, 1.0], atol=1e-15)
    assert np.allclose((u * w) @ u.conj().T, SIGMA_X, atol=1e-15)


def test_one_sweep_fails_to_converge_at_n4(monkeypatch):
    monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 1)
    h = random_hermitian(np.random.default_rng(306), 4)
    with pytest.raises(ConvergenceFailure, match="did not converge in 1 sweeps"):
        hermitian_eig(h)
