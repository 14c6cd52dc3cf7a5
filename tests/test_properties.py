"""Property tests of the paper's claims over generated inputs."""

import numpy as np
from conftest import haar_unitary, random_state
from hypothesis import given, settings
from hypothesis import strategies as st

from normalobs import (
    frobenius_norm,
    hermitian_eig,
    relabel,
    sample,
    scale_phase,
    spectral_decompose,
    stationarity_check,
)
from normalobs.measurement import StateVector

# small integer grid so repeated eigenvalues, hence degenerate eigenspaces, are common
eigenvalues = st.builds(complex, st.integers(-2, 2), st.integers(-2, 2))
labels = st.complex_numbers(max_magnitude=100, allow_nan=False, allow_infinity=False)


@settings(max_examples=30, deadline=None)
@given(
    spectrum=st.lists(eigenvalues, min_size=1, max_size=4),
    basis_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**64 - 1),
    shots=st.integers(1, 400),
    rounds=st.integers(1, 5),
    phi=st.floats(-10.0, 10.0),
    data=st.data(),
)
def test_labels_never_change_statistics(spectrum, basis_seed, seed, shots, rounds, phi, data):
    rng = np.random.default_rng(basis_seed)
    n = len(spectrum)
    v = haar_unitary(rng, n)
    obs = spectral_decompose(v @ np.diag(spectrum) @ v.conj().T)
    new_labels = data.draw(
        st.lists(labels, min_size=len(obs.eigenspaces), max_size=len(obs.eigenspaces), unique=True)
    )
    psi = StateVector(random_state(rng, n))

    variants = [obs, relabel(obs, dict(enumerate(new_labels))), scale_phase(obs, phi)]
    counts = [sample(o, psi, shots, seed).counts for o in variants]
    verdicts = [stationarity_check(o, psi, rounds, seed) for o in variants]

    assert counts[1] == counts[0] and counts[2] == counts[0]
    assert sorted(counts[0]) == list(range(len(obs.eigenspaces)))
    assert sum(counts[0].values()) == shots
    assert verdicts == [verdicts[0]] * 3


# graded: magnitudes from 1 down to 1e-16; clustered: up to three values 10^-k apart
# around each of up to two centres
graded = st.lists(
    st.builds(lambda sign, k: sign * 10.0**-k, st.sampled_from([-1.0, 1.0]), st.integers(0, 16)),
    min_size=1,
    max_size=6,
)
clustered = st.builds(
    lambda centres, size, k: [c + j * 10.0**-k for c in centres for j in range(size)],
    st.lists(st.integers(-3, 3), min_size=1, max_size=2),
    st.integers(1, 3),
    st.integers(6, 14),
)


@settings(max_examples=40, deadline=None)
@given(
    spectrum=st.one_of(graded, clustered),
    exponent=st.integers(-100, 100),
    basis_seed=st.integers(0, 2**32 - 1),
)
def test_jacobi_converges_on_graded_and_clustered_spectra(spectrum, exponent, basis_seed):
    n = len(spectrum)
    v = haar_unitary(np.random.default_rng(basis_seed), n)
    h = v @ np.diag(np.asarray(spectrum) * 10.0**exponent) @ v.conj().T
    h = (h + h.conj().T) / 2.0
    scale = frobenius_norm(h)

    w, u = hermitian_eig(h)

    assert np.max(np.abs(w - np.linalg.eigvalsh(h))) <= 1e-10 * scale
    assert frobenius_norm((u * w) @ u.conj().T - h) <= 1e-10 * scale
