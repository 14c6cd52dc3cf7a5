import numpy as np
import pytest
from conftest import haar_unitary, perturbed_non_normal, planted_normal, random_hermitian, random_state

from normalobs import (
    DimensionMismatch,
    DuplicateLabels,
    NotCommuting,
    NotHermitian,
    NotNormal,
    NotNormalized,
    check_normal,
    commutator_of_parts_norm,
    expectation,
    from_commuting_pair,
    frobenius_norm,
    hermitian_eig,
    hermitian_parts,
    relabel,
    scale_phase,
    spectral_decompose,
    spectral_distribution,
)
from normalobs.measurement import StateVector
from normalobs.qubit import KET_DOWN, KET_UP, SIGMA_X, SIGMA_Z

EQUAL_SUPERPOSITION = StateVector((KET_UP + KET_DOWN) / np.sqrt(2))


def test_check_normal_examples():
    assert check_normal(SIGMA_Z)
    assert check_normal(np.diag([1j, -1j]))
    assert not check_normal(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_subset_of_normal():
    rng = np.random.default_rng(30)
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        assert check_normal(random_hermitian(rng, n))


def test_unitary_subset_of_normal():
    # covers unitary observables such as phase factors e^{i phi}
    rng = np.random.default_rng(31)
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        _, u = hermitian_eig(random_hermitian(rng, n))
        assert check_normal(u)


def test_hermitian_parts_examples():
    h = random_hermitian(np.random.default_rng(32), 3)
    c, d = hermitian_parts(h)
    assert np.allclose(c, h, atol=1e-15)
    assert np.allclose(d, 0.0, atol=1e-15)

    c, d = hermitian_parts(1j * h)
    assert np.allclose(c, 0.0, atol=1e-15)
    assert np.allclose(d, h, atol=1e-15)

    c, d = hermitian_parts(SIGMA_Z + 1j * np.eye(2))
    assert np.array_equal(c, SIGMA_Z)
    assert np.array_equal(d, np.eye(2))


def test_hermitian_parts_reassemble_exactly():
    rng = np.random.default_rng(33)
    for _ in range(100):
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        c, d = hermitian_parts(b)
        assert frobenius_norm(c + 1j * d - b) <= 1e-15 * frobenius_norm(b)


def test_normality_equivalent_to_commuting_parts():
    rng = np.random.default_rng(34)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        m, _ = planted_normal(rng, n)
        assert check_normal(m)
        assert commutator_of_parts_norm(m) <= 1e-10 * max(
            1.0, frobenius_norm(m) ** 2
        )
        bad = perturbed_non_normal(rng, n)
        assert not check_normal(bad)
        assert commutator_of_parts_norm(bad) > 1e-10 * max(
            1.0, frobenius_norm(bad) ** 2
        )


def test_spectral_decompose_diag_imaginary():
    obs = spectral_decompose(np.diag([1j, -1j]))
    assert np.allclose(obs.eigenvalues, [-1j, 1j], atol=1e-15)
    assert np.array_equal(np.abs(obs.eigenbasis), [[0, 1], [1, 0]])


def test_spectral_decompose_sigma_z():
    obs = spectral_decompose(SIGMA_Z)
    assert np.allclose(obs.eigenvalues, [-1.0, 1.0], atol=1e-15)
    assert np.allclose(obs.eigenbasis[:, 0], KET_DOWN)
    assert np.allclose(obs.eigenbasis[:, 1], KET_UP)
    assert obs.eigenspaces == ((0,), (1,))


def test_spectral_decompose_recovers_planted_spectrum():
    # oracle: the spectrum was planted by construction
    rng = np.random.default_rng(35)
    m, lam = planted_normal(rng, 5)
    obs = spectral_decompose(m)
    expected = sorted(lam, key=lambda z: (z.real, z.imag))
    assert np.allclose(obs.eigenvalues, expected, atol=1e-8)


def test_spectral_decompose_degenerate_spectrum():
    rng = np.random.default_rng(36)
    m, lam = planted_normal(rng, 4, degenerate=True)
    obs = spectral_decompose(m)
    sizes = sorted(len(g) for g in obs.eigenspaces)
    assert sizes == [1, 1, 2]
    rec = (obs.eigenbasis * obs.eigenvalues) @ obs.eigenbasis.conj().T
    assert frobenius_norm(rec - m) <= 1e-9 * max(1.0, frobenius_norm(m))


def test_spectral_decompose_clusters_by_single_linkage():
    # 1+5i and its near copy sort apart, with 1 between them; they still share
    # one eigenspace, numbered by its first column
    obs = spectral_decompose(np.diag([1 + 5j, 1 + 1e-12, 1 + 2e-12 + (5 + 1e-12) * 1j]))
    assert obs.eigenspaces == ((0, 2), (1,))
    assert obs.eigenspace_values()[0] == pytest.approx(1 + 5j, abs=1e-11)
    assert obs.eigenspace_values()[1] == pytest.approx(1, abs=1e-11)
    assert np.allclose(obs.projectors[0], np.diag([1, 0, 1]), atol=1e-15)
    # the tolerance here is 1e-8 * (3 + 1); neighbours are within it, the ends are not
    step = 3e-8
    chain = spectral_decompose(np.diag([0.0, step, 2 * step, 3.0]))
    assert chain.eigenspaces == ((0, 1, 2), (3,))


def test_spectral_decompose_rejects_non_normal():
    with pytest.raises(NotNormal) as err:
        spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert err.value.residual > 0


def test_eigenvalue_equation_per_column():
    rng = np.random.default_rng(37)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        m, _ = planted_normal(rng, n, degenerate=bool(rng.integers(2)))
        obs = spectral_decompose(m)
        for k in range(n):
            col = obs.eigenbasis[:, k]
            residual = np.linalg.norm(m @ col - obs.eigenvalues[k] * col)
            assert residual <= 1e-8


def test_from_commuting_pair_examples():
    obs = from_commuting_pair(SIGMA_Z, np.eye(2))
    assert np.allclose(sorted(obs.eigenvalues, key=lambda z: z.real), [-1 + 1j, 1 + 1j])

    obs = from_commuting_pair(SIGMA_Z, SIGMA_Z)
    assert np.allclose(sorted(obs.eigenvalues, key=lambda z: z.real), [-1 - 1j, 1 + 1j])

    with pytest.raises(NotCommuting):
        from_commuting_pair(SIGMA_Z, SIGMA_X)

    with pytest.raises(NotHermitian):
        from_commuting_pair(np.diag([1j, 0]), SIGMA_Z)


def test_from_commuting_pair_joint_eigenvalues():
    # joint eigenvalues c + id, planted via a shared eigenbasis
    rng = np.random.default_rng(38)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        v = haar_unitary(rng, n)
        cvals = rng.normal(size=n)
        dvals = rng.normal(size=n)
        c = (v * cvals) @ v.conj().T
        c = (c + c.conj().T) / 2
        d = (v * dvals) @ v.conj().T
        d = (d + d.conj().T) / 2
        obs = from_commuting_pair(c, d)
        expected = sorted(cvals + 1j * dvals, key=lambda z: (z.real, z.imag))
        assert np.allclose(obs.eigenvalues, expected, atol=1e-8)


def test_expectation_examples():
    sz = spectral_decompose(SIGMA_Z)
    assert expectation(sz, EQUAL_SUPERPOSITION) == pytest.approx(0.0, abs=1e-12)
    assert expectation(sz, StateVector(KET_UP)) == pytest.approx(1.0, abs=1e-12)

    # sum lambda_i p_i = ((1+i) + (-1+i)) / 2 = i; cross-check <psi|F|psi>
    f = from_commuting_pair(SIGMA_Z, np.eye(2))
    value = expectation(f, EQUAL_SUPERPOSITION)
    assert value == pytest.approx(1j, abs=1e-12)
    direct = np.vdot(
        EQUAL_SUPERPOSITION.amplitudes, f.matrix @ EQUAL_SUPERPOSITION.amplitudes
    )
    assert value == pytest.approx(direct, abs=1e-14)


def test_expectation_errors():
    sz = spectral_decompose(SIGMA_Z)
    with pytest.raises(DimensionMismatch):
        expectation(sz, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(NotNormalized):
        expectation(sz, np.array([1.0, 1.0]))


def test_expectation_matches_spectral_average():
    rng = np.random.default_rng(39)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        m, _ = planted_normal(rng, n)
        obs = spectral_decompose(m)
        psi = StateVector(random_state(rng, n))
        dist = spectral_distribution(obs, psi)
        weighted = sum(o.eigenvalue * o.probability for o in dist.outcomes)
        assert expectation(obs, psi) == pytest.approx(weighted, abs=1e-10)


def test_hermitian_expectation_is_real():
    rng = np.random.default_rng(40)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        obs = spectral_decompose(random_hermitian(rng, n))
        psi = StateVector(random_state(rng, n))
        assert abs(expectation(obs, psi).imag) <= 1e-12


def test_relabel_examples():
    sz = spectral_decompose(SIGMA_Z)
    # eigenspace 0 holds -1, eigenspace 1 holds +1
    relabeled = relabel(sz, {0: -1j, 1: 1j})
    assert frobenius_norm(relabeled.matrix - 1j * SIGMA_Z) <= 1e-12

    same = relabel(sz, {0: -1.0, 1: 1.0})
    assert frobenius_norm(same.matrix - sz.matrix) <= 1e-12

    with pytest.raises(DuplicateLabels):
        relabel(sz, {0: 5.0, 1: 5.0})

    with pytest.raises(ValueError):
        relabel(sz, {0: 5.0})


def test_relabel_keeps_projectors_bitwise():
    rng = np.random.default_rng(41)
    m, _ = planted_normal(rng, 4, degenerate=True)
    obs = spectral_decompose(m)
    labels = {g: complex(g, g + 1) for g in range(len(obs.eigenspaces))}
    relabeled = relabel(obs, labels)
    assert relabeled.eigenspaces == obs.eigenspaces
    assert np.array_equal(relabeled.eigenbasis, obs.eigenbasis)
    for p, q in zip(relabeled.projectors, obs.projectors):
        assert p.tobytes() == q.tobytes()


def test_scale_phase_is_a_relabeling():
    sz = spectral_decompose(SIGMA_Z)
    scaled = scale_phase(sz, np.pi / 2)
    assert frobenius_norm(scaled.matrix - 1j * SIGMA_Z) <= 1e-12
    assert np.array_equal(scaled.eigenbasis, sz.eigenbasis)
