import tracemalloc

import numpy as np
import pytest
from conftest import planted_normal, random_state

from normalobs import (
    ChshScenario,
    DimensionMismatch,
    Hamiltonian,
    NotNormalized,
    ZeroProbabilityBranch,
    collapse,
    correlation_matrix,
    evolve,
    heisenberg_rhs,
    joint_distribution,
    optimize_settings,
    quantum_correlation,
    relabel,
    sample,
    spectral_decompose,
    spectral_distribution,
    stationarity_check,
)
from normalobs.measurement import (
    MeasurementOutcome,
    SpectralDistribution,
    StateVector,
    draw_indices,
)
from normalobs.qubit import KET_DOWN, KET_UP, SIGMA_X, SIGMA_Z
from normalobs.rng import next_double, seed_state

SZ = spectral_decompose(SIGMA_Z)


def superposition(alpha: complex, beta: complex) -> StateVector:
    return StateVector(alpha * KET_UP + beta * KET_DOWN)


def test_state_vector_validation():
    with pytest.raises(NotNormalized):
        StateVector(np.array([1.0, 1.0]))
    psi = StateVector.normalized(np.array([3.0, 4.0]))
    assert np.allclose(psi.amplitudes, [0.6, 0.8])
    with pytest.raises(ValueError):
        StateVector.normalized(np.zeros(2))


def test_born_rule_read_off():
    alpha = np.sqrt(1.0 / 3.0)
    beta = np.sqrt(2.0 / 3.0)
    dist = spectral_distribution(SZ, superposition(alpha, beta))
    # canonical order puts eigenvalue -1 (spin down) first
    assert dist.eigenvalues == (-1.0, 1.0)
    assert dist.probabilities[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert dist.probabilities[1] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_eigenstate_distribution_keeps_zero_branch():
    dist = spectral_distribution(SZ, StateVector(KET_UP))
    assert dist.probabilities == (0.0, 1.0)
    assert dist.outcomes[0].post_state is None
    assert np.allclose(dist.outcomes[1].post_state.amplitudes, KET_UP)


def test_complex_labels_share_projectors_with_sigma_z():
    # the projectors of F = sigma_z + iI are those of sigma_z
    from normalobs import from_commuting_pair

    f = from_commuting_pair(SIGMA_Z, np.eye(2))
    psi = superposition(1 / np.sqrt(2), 1 / np.sqrt(2))
    dist = spectral_distribution(f, psi)
    by_value = dict(zip(dist.eigenvalues, dist.probabilities))
    assert by_value[(-1 + 1j)] == pytest.approx(0.5, abs=1e-12)
    assert by_value[(1 + 1j)] == pytest.approx(0.5, abs=1e-12)
    # direct projection oracle
    p_up = np.outer(KET_UP, KET_UP.conj())
    assert np.linalg.norm(p_up @ psi.amplitudes) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_born_probabilities_sum_to_one():
    rng = np.random.default_rng(50)
    for _ in range(1000):
        n = int(rng.choice([2, 3, 4, 8]))
        m, _ = planted_normal(rng, n, degenerate=bool(rng.integers(2)))
        obs = spectral_decompose(m)
        psi = StateVector(random_state(rng, n))
        dist = spectral_distribution(obs, psi)
        assert sum(dist.probabilities) == pytest.approx(1.0, abs=1e-10)
        assert all(p >= 0.0 for p in dist.probabilities)


def test_relabeling_leaves_statistics_bitwise_identical():
    rng = np.random.default_rng(51)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        m, _ = planted_normal(rng, n, degenerate=bool(rng.integers(2)))
        obs = spectral_decompose(m)
        labels = {g: complex(g + 1, -g) for g in range(len(obs.eigenspaces))}
        relabeled = relabel(obs, labels)
        psi = StateVector(random_state(rng, n))
        original = spectral_distribution(obs, psi)
        changed = spectral_distribution(relabeled, psi)
        for a, b in zip(original.outcomes, changed.outcomes):
            assert a.probability == b.probability  # bitwise equal floats
            if a.post_state is None:
                assert b.post_state is None
            else:
                assert (
                    a.post_state.amplitudes.tobytes()
                    == b.post_state.amplitudes.tobytes()
                )


def test_sample_eigenstate_is_deterministic():
    for seed in (0, 1, 123456789):
        record = sample(SZ, StateVector(KET_UP), 500, seed)
        assert record.counts == {0: 0, 1: 500}


def test_sample_binomial_statistics():
    psi = superposition(1 / np.sqrt(2), 1 / np.sqrt(2))
    shots = 100_000
    sigma = np.sqrt(shots * 0.25)
    for seed in (42, 43):
        record = sample(SZ, psi, shots, seed)
        assert sum(record.counts.values()) == shots
        for g in (0, 1):
            assert abs(record.counts[g] - shots / 2) <= 5 * sigma


def test_sample_identical_seeds_identical_counts():
    psi = superposition(0.8, 0.6)
    a = sample(SZ, psi, 2000, 7)
    b = sample(SZ, psi, 2000, 7)
    assert a.counts == b.counts
    c = sample(SZ, psi, 2000, 8)
    assert c.counts != a.counts


def walk_counts(probabilities, shots: int, seed: int) -> dict[int, int]:
    """Reference: one uniform per shot, linear scan for the first cumulative above it."""
    cumulative = np.cumsum(probabilities)
    last_positive = max(g for g, p in enumerate(probabilities) if p > 0.0)
    counts = dict.fromkeys(range(len(probabilities)), 0)
    state = seed_state(seed)
    for _ in range(shots):
        u, state = next_double(state)
        counts[next((g for g, c in enumerate(cumulative) if u < c), last_positive)] += 1
    return counts


def test_sample_counts_match_scalar_inverse_cdf_walk():
    rng = np.random.default_rng(54)
    for trial in range(40):
        n = int(rng.integers(1, 6))
        m, _ = planted_normal(rng, n, degenerate=bool(rng.integers(2)))
        obs = spectral_decompose(m)
        # every fourth state is an eigenvector, so some branches have probability 0
        amps = obs.eigenbasis[:, n - 1] if trial % 4 == 0 else random_state(rng, n)
        psi = StateVector.normalized(amps)
        probabilities = spectral_distribution(obs, psi).probabilities
        shots = int(rng.integers(1, 2000))
        assert sample(obs, psi, shots, trial).counts == walk_counts(probabilities, shots, trial)


# the block size is 2**16 shots: one short of, at and just past one block, and past two
@pytest.mark.parametrize("shots", [(1 << 16) - 1, 1 << 16, (1 << 16) + 1, 2 * (1 << 16) + 3])
def test_sample_counts_match_scalar_walk_across_blocks(shots):
    rng = np.random.default_rng(shots)
    obs = spectral_decompose(planted_normal(rng, 3)[0])
    psi = StateVector.normalized(random_state(rng, 3))
    probabilities = spectral_distribution(obs, psi).probabilities
    assert sample(obs, psi, shots, shots).counts == walk_counts(probabilities, shots, shots)


def test_sample_memory_does_not_grow_with_shots():
    psi = superposition(0.6, 0.8)
    sample(SZ, psi, 10, 1)
    tracemalloc.start()
    try:
        record = sample(SZ, psi, 10**6, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(record.counts.values()) == 10**6
    # one 10**6-shot buffer of float64 alone would take 8 MB
    assert peak < 4_000_000


def test_sample_rejects_zero_shots():
    with pytest.raises(ValueError):
        sample(SZ, StateVector(KET_UP), 0, 1)


def test_collapse_examples():
    psi = superposition(1 / np.sqrt(2), 1 / np.sqrt(2))
    up_branch = collapse(SZ, psi, 1)
    assert np.allclose(up_branch.amplitudes, KET_UP, atol=1e-15)
    with pytest.raises(ZeroProbabilityBranch):
        collapse(SZ, StateVector(KET_UP), 0)


def test_collapse_is_repeatable():
    rng = np.random.default_rng(52)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        m, _ = planted_normal(rng, n, degenerate=bool(rng.integers(2)))
        obs = spectral_decompose(m)
        psi = StateVector(random_state(rng, n))
        dist = spectral_distribution(obs, psi)
        g = int(np.argmax(dist.probabilities))
        collapsed = collapse(obs, psi, g)
        again = spectral_distribution(obs, collapsed)
        assert again.probabilities[g] == pytest.approx(1.0, abs=1e-12)


def test_stationarity_check():
    psi = superposition(1 / np.sqrt(2), 1 / np.sqrt(2))
    assert stationarity_check(SZ, psi, 100, seed=3)
    assert stationarity_check(SZ, StateVector(KET_UP), 100, seed=4)
    assert stationarity_check(SZ, psi, 1, seed=5)


def test_stationarity_check_random_observables():
    rng = np.random.default_rng(53)
    for trial in range(100):
        n = int(rng.integers(2, 5))
        m, _ = planted_normal(rng, n, degenerate=bool(rng.integers(2)))
        obs = spectral_decompose(m)
        psi = StateVector(random_state(rng, n))
        assert stationarity_check(obs, psi, 100, seed=trial)


SX = spectral_decompose(SIGMA_X)
H_Z = Hamiltonian(SIGMA_Z)

# every public entry point that takes a state, with the dimension it expects
STATE_ENTRY_POINTS = {
    "spectral_distribution": (2, lambda psi: spectral_distribution(SZ, psi)),
    "sample": (2, lambda psi: sample(SZ, psi, 10, 0)),
    "collapse": (2, lambda psi: collapse(SZ, psi, 0)),
    "stationarity_check": (2, lambda psi: stationarity_check(SZ, psi, 3, 0)),
    "evolve": (2, lambda psi: evolve(psi, H_Z, 0.5)),
    "heisenberg_rhs": (2, lambda psi: heisenberg_rhs(SX, H_Z, psi)),
    "joint_distribution": (4, lambda psi: joint_distribution(SZ, SX, psi)),
    "quantum_correlation": (4, lambda psi: quantum_correlation(SZ, SX, psi)),
    "correlation_matrix": (4, lambda psi: correlation_matrix(psi)),
    "optimize_settings": (4, lambda psi: optimize_settings(psi, restarts=1)),
    "ChshScenario": (4, lambda psi: ChshScenario(a1=SZ, a2=SX, b1=SZ, b2=SX, psi=psi)),
}


@pytest.mark.parametrize("name", sorted(STATE_ENTRY_POINTS))
def test_state_guard_on_every_entry_point(name):
    dim, call = STATE_ENTRY_POINTS[name]
    wrong = np.zeros(dim + 1, dtype=complex)
    wrong[0] = 1.0
    with pytest.raises(DimensionMismatch, match=f"state has dimension {dim + 1}, expected {dim}"):
        call(StateVector(wrong))
    with pytest.raises(DimensionMismatch):
        call(wrong)
    with pytest.raises(NotNormalized):
        call(np.ones(dim))
    # a correct raw array is accepted
    right = np.zeros(dim, dtype=complex)
    right[-1] = 1.0
    call(right)


def distribution(*probabilities: float) -> SpectralDistribution:
    return SpectralDistribution(
        outcomes=tuple(MeasurementOutcome(complex(g), p, None) for g, p in enumerate(probabilities))
    )


def test_draw_boundary_uniform_goes_right():
    dist = distribution(0.25, 0.5, 0.25)
    assert draw_indices(dist, [0.0, 0.25, 0.5, 0.75, 0.9]).tolist() == [0, 1, 1, 2, 2]
    # a leading zero-probability branch is never drawn, even at u = 0
    assert draw_indices(distribution(0.0, 1.0), [0.0]).tolist() == [1]


def test_draw_past_total_falls_back_to_last_positive_branch():
    # rounding leaves the total 1e-12 short of 1; trailing branches have zero probability
    dist = distribution(0.3, 0.7 - 1e-12, 0.0, 0.0)
    uniforms = [0.29, 0.5, 1.0 - 1e-13, 1.0]
    assert draw_indices(dist, uniforms).tolist() == [0, 1, 1, 1]
