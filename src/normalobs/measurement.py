"""Projective measurement of normal-operator observables.

What an experiment can ever return is the spectral distribution: which
eigenspace fired, with what frequency, and what state is left behind. The
eigenvalue attached to an eigenspace is a label and never enters the
probabilities, so relabeling (real or complex) leaves every function in
this module bit-for-bit unchanged.

Sampling draws its uniforms from the in-repo SplitMix64 generator, one
scalar step at a time, and maps them to outcomes in one inverse-CDF pass
over eigenspace probabilities in canonical eigenvalue order, so identical
(seed, shots, observable, state) give identical counts on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotNormalized, ZeroProbabilityBranch
from .observables import Observable
from .rng import next_double, seed_state

_NORM_TOL = 1e-10
_ZERO_PROB = 1e-12


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state; amplitudes are an immutable complex vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.shape[0] < 1:
            raise DimensionMismatch(f"expected a vector, got shape {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("state contains non-finite amplitudes")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > _NORM_TOL:
            raise NotNormalized(f"state norm {norm!r} differs from 1 by more than {_NORM_TOL:g}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        """Build a state from unnormalized amplitudes by rescaling."""
        amps = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(amps)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(amps / norm)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class MeasurementOutcome:
    """One eigenspace branch: its label, Born probability and post-state.

    ``post_state`` is None when the probability is numerically zero; the
    branch stays listed so the outcome structure of the observable does
    not depend on the state.
    """

    eigenvalue: complex
    probability: float
    post_state: StateVector | None


@dataclass(frozen=True)
class SpectralDistribution:
    """Outcomes of measuring one observable in one state, in eigenspace order."""

    outcomes: tuple[MeasurementOutcome, ...]

    def __post_init__(self):
        total = sum(o.probability for o in self.outcomes)
        if abs(total - 1.0) > _NORM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        if any(o.probability < 0.0 for o in self.outcomes):
            raise ValueError("negative probability")

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(o.probability for o in self.outcomes)

    @property
    def eigenvalues(self) -> tuple[complex, ...]:
        return tuple(o.eigenvalue for o in self.outcomes)


@dataclass(frozen=True)
class MeasurementRecord:
    """Counts of sampled eigenspace indices for one (seed, shots) run."""

    seed: int
    shots: int
    counts: dict[int, int]


def as_state(psi, dim: int) -> StateVector:
    """Coerce ``psi`` to a :class:`StateVector` of dimension ``dim``."""
    if not isinstance(psi, StateVector):
        psi = StateVector(psi)
    if psi.dim != dim:
        raise DimensionMismatch(f"state has dimension {psi.dim}, expected {dim}")
    return psi


def spectral_distribution(a: Observable, psi: StateVector) -> SpectralDistribution:
    """Born-rule outcome distribution of ``a`` in state ``psi``.

    For eigenspace ``g`` with projector ``P``, the probability is
    ``||P psi||^2`` and the post-measurement state is the normalized
    projection ``P psi / ||P psi||`` (undefined for zero-probability
    branches).
    """
    amps = as_state(psi, a.dim).amplitudes
    outcomes = []
    for value, proj in zip(a.eigenspace_values(), a.projectors):
        projected = proj @ amps
        norm = float(np.linalg.norm(projected))
        prob = norm * norm
        if prob > _ZERO_PROB:
            post = StateVector(projected / norm)
        else:
            post = None
        outcomes.append(
            MeasurementOutcome(eigenvalue=value, probability=prob, post_state=post)
        )
    return SpectralDistribution(outcomes=tuple(outcomes))


def draw_indices(dist: SpectralDistribution, uniforms) -> np.ndarray:
    """Eigenspace indices drawn by inverse CDF, one per uniform in [0, 1).

    Index ``g`` is the first eigenspace whose cumulative probability
    exceeds the uniform. A uniform at or beyond the cumulative total,
    which rounding can leave just below 1, goes to the last eigenspace of
    positive probability rather than to a trailing zero-probability one.
    """
    probs = dist.probabilities
    indices = np.searchsorted(np.cumsum(probs), uniforms, side="right")
    # any index below len(probs) already lands on a positive-probability branch
    last_positive = max(g for g, p in enumerate(probs) if p > 0.0)
    return np.minimum(indices, last_positive)


def sample(a: Observable, psi: StateVector, shots: int, seed: int) -> MeasurementRecord:
    """Draw ``shots`` independent outcomes; deterministic in the seed.

    Returns a record whose counts map eigenspace index to frequency and
    always sum to ``shots``.
    """
    if shots < 1:
        raise ValueError(f"shots must be at least 1, got {shots}")
    dist = spectral_distribution(a, psi)
    uniforms = np.empty(shots)
    state = seed_state(seed)
    for k in range(shots):
        uniforms[k], state = next_double(state)
    tally = np.bincount(draw_indices(dist, uniforms), minlength=len(dist.outcomes))
    counts = dict(enumerate(tally.tolist()))
    return MeasurementRecord(seed=seed, shots=shots, counts=counts)


def collapse(a: Observable, psi: StateVector, eigenspace_index: int) -> StateVector:
    """Project onto one eigenspace and renormalize (Lueders rule)."""
    amps = as_state(psi, a.dim).amplitudes
    if not 0 <= eigenspace_index < len(a.projectors):
        raise ValueError(f"no eigenspace with index {eigenspace_index}")
    projected = a.projectors[eigenspace_index] @ amps
    norm = float(np.linalg.norm(projected))
    if norm * norm <= _ZERO_PROB:
        raise ZeroProbabilityBranch(
            f"eigenspace {eigenspace_index} has probability {norm * norm:.3e}"
        )
    return StateVector(projected / norm)


def stationarity_check(
    a: Observable, psi: StateVector, rounds: int, seed: int
) -> bool:
    """Measure, collapse, then re-measure; True iff the outcome never changes.

    Runs ``rounds`` measurements in total, collapsing after each; all
    draws come from one SplitMix64 stream seeded once.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds}")
    current = as_state(psi, a.dim)
    state = seed_state(seed)
    first: int | None = None
    for _ in range(rounds):
        u, state = next_double(state)
        idx = int(draw_indices(spectral_distribution(a, current), [u])[0])
        if first is None:
            first = idx
        elif idx != first:
            return False
        current = collapse(a, current, idx)
    return True
