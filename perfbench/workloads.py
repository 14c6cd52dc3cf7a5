"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in its constructor
(set-up), then serves numbered calls. ``call(i)`` prepares call i and
returns the thunk to time plus the number of work items it completes;
``follow(i, out)`` runs the untimed companions of the call; ``check(i,
out)`` compares the result with an independent reference and returns a
reason when it is wrong; ``finish()`` runs checks deferred until after
the timed loop. Calls are a pure function of (seed, i), so a traced
replay of calls 0..n-1 repeats an untraced one exactly.

The library is always called through module attributes (``no.sample``,
``no.cli.main``), never through names bound here, so the tracer's wrappers
see the top-level calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np

import normalobs as no
import reference
from common import BENCH_DIR, OUT_DIR, ROOT, SRC

MASK64 = (1 << 64) - 1


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed & MASK64, sum(map(ord, workload))])


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(x)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    return x / np.linalg.norm(x)


def _close(a, b, tol: float) -> bool:
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0) <= tol)


class Workload:
    name = ""
    # calls replayed in a traced run; fixed so span counts repeat exactly
    trace_calls = 0

    def call(self, i: int):
        raise NotImplementedError

    def follow(self, i: int, out):
        return out

    def check(self, i: int, out) -> str | None:
        raise NotImplementedError

    def finish(self) -> list[str]:
        return []


class Audit(Workload):
    """Repeated Tsirelson audits: many 2x2 and 4x4 eigenproblems per call."""

    name = "audit"
    trials = 16
    # every fourth call draws Hermitian (+1/-1) settings, which run about
    # 2.5x faster; at one in four both percentiles stay inside the
    # unitary-label calls instead of on the edge between the two
    hermitian_every = 4
    trace_calls = 40

    def __init__(self, seed: int):
        self.base = int(_rng(seed, self.name).integers(1 << 62))

    def _args(self, i: int) -> tuple[int, bool]:
        return self.base + i, i % self.hermitian_every == self.hermitian_every - 1

    def call(self, i):
        seed, hermitian = self._args(i)
        return (lambda: no.audit_tsirelson(self.trials, seed, hermitian=hermitian)), self.trials

    def check(self, i, out):
        seed, hermitian = self._args(i)
        if out.trials != self.trials or not out.passed:
            return f"audit reported {out}"
        expected = reference.audit_max_norm(seed, self.trials, hermitian)
        if abs(out.max_norm - expected) > 1e-12:
            return f"max_norm {out.max_norm!r} but eigvalsh gives {expected!r}"
        return None


class _Case:
    """A planted observable V diag(labels) V^dag, its state and reference data."""

    def __init__(self, basis: np.ndarray, labels, psi: np.ndarray):
        labels = np.asarray(labels, dtype=complex)
        self.observable = no.spectral_decompose((basis * labels) @ basis.conj().T)
        self.state = no.StateVector(psi)
        self.values = sorted(set(labels.tolist()), key=lambda z: (z.real, z.imag))
        self.projectors = []
        for value in self.values:
            cols = basis[:, labels == value]
            self.projectors.append(cols @ cols.conj().T)
        self.probabilities = [float(np.linalg.norm(p @ psi) ** 2) for p in self.projectors]


class Sampling(Workload):
    """Large-shot sampling of small observables decomposed once at set-up."""

    name = "sampling"
    shots = 20_000
    rounds = 4
    trace_calls = 12

    def __init__(self, seed: int):
        rng = _rng(seed, self.name)
        eye = np.eye(2, dtype=complex)
        paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

        def bloch_basis():
            v = rng.normal(size=3)
            _, basis = np.linalg.eigh(np.tensordot(v / np.linalg.norm(v), paulis, axes=1))
            return basis

        singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0)
        self.cases = [
            # sigma_z
            _Case(eye, [1, -1], _random_state(rng, 2)),
            # F = sigma_z + i, complex labels
            _Case(eye, [1 + 1j, -1 + 1j], _random_state(rng, 2)),
            # degenerate 4x4 with complex labels
            _Case(_haar_unitary(rng, 4), [1 + 1j, 1 + 1j, -1, 2j], _random_state(rng, 4)),
            # (a.sigma) x (b.sigma) on the singlet
            _Case(np.kron(bloch_basis(), bloch_basis()), [1, -1, -1, 1], singlet),
        ]
        self.base = int(rng.integers(1 << 62))

    def _case(self, i: int) -> tuple[_Case, int]:
        return self.cases[i % len(self.cases)], self.base + i

    def call(self, i):
        case, seed = self._case(i)
        return (lambda: no.sample(case.observable, case.state, self.shots, seed)), self.shots

    def follow(self, i, record):
        case, seed = self._case(i)
        dist = no.spectral_distribution(case.observable, case.state)
        branch = int(np.argmax(dist.probabilities))
        post = no.collapse(case.observable, case.state, branch)
        stationary = no.stationarity_check(case.observable, case.state, self.rounds, seed)
        return record, dist, branch, post, stationary

    def check(self, i, out):
        record, dist, branch, post, stationary = out
        case, seed = self._case(i)
        if sum(record.counts.values()) != self.shots:
            return f"counts sum to {sum(record.counts.values())}, not {self.shots}"
        expected = reference.inverse_cdf_counts(case.probabilities, self.shots, seed)
        if sorted(record.counts) != list(range(len(expected))):
            return f"outcomes {sorted(record.counts)}, expected {len(expected)}"
        counts = [record.counts[g] for g in range(len(expected))]
        if counts != expected:
            return f"counts {counts}, reference {expected}"
        if not _close(dist.probabilities, case.probabilities, 1e-12):
            return f"probabilities {dist.probabilities}, reference {case.probabilities}"
        if not _close(dist.eigenvalues, case.values, 1e-9):
            return f"labels {dist.eigenvalues}, planted {case.values}"
        projected = case.projectors[branch] @ case.state.amplitudes
        if not _close(post.amplitudes, projected / np.linalg.norm(projected), 1e-9):
            return "collapsed state differs from the normalized projection"
        if not stationary:
            return "repeated measurement changed outcome"
        return None


def _planted_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Q diag(v) Q^dag with degenerate and clustered complex eigenvalues.

    Real parts sit on a jittered grid at least 0.8/(n/2) apart, each level
    doubly degenerate. One level is split into two values sharing a real
    part (so C is degenerate where D is not) and one into a cluster 1e-12
    apart, below the clustering tolerance.
    """
    levels = n // 2
    re = -1.0 + 2.0 * (np.arange(levels) + 0.5 + 0.6 * (rng.uniform(size=levels) - 0.5)) / levels
    im = rng.uniform(-1.0, 1.0, size=levels)
    values = np.repeat(re + 1j * im, 2)
    values[1] += 0.5j
    values[3] += 1e-12 * (1 + 1j)
    values = values[rng.permutation(n)]
    q = _haar_unitary(rng, n)
    return (q * values) @ q.conj().T


class Spectral(Workload):
    """Few large inputs: planted normal matrices and non-Hermitian dynamics."""

    name = "spectral"
    sizes = (8, 16, 32, 64)
    dynamics_dim = 16
    t_grid = (0.0, 0.4, 0.8, 1.2)
    # One cycle of ten timed calls. The medians of the kinds are spread
    # over four orders of magnitude, so the mix fixes which kind each
    # percentile reads: p50 falls in the middle of the n=8 decompositions
    # (ranks 5-6 of 10), p90 in the middle of the n=64 ones (ranks 9-10).
    # Matrices of one size differ in cost by up to 30 %, so each size has a
    # pool of 24 that the cycles walk through, about one run's worth of
    # n=8 and n=64 calls: a percentile then reads the middle of many
    # matrices' costs, not whichever few a seed happened to draw.
    cycle = ("evolve", "evolve", "ehrenfest", "ehrenfest", 8, 8, 16, 32, 64, 64)
    pool = 24
    trace_calls = 20

    def __init__(self, seed: int):
        rng = _rng(seed, self.name)
        self.matrices = {
            n: [_planted_normal(rng, n) for _ in range(self.pool)] for n in self.sizes
        }
        d = self.dynamics_dim
        self.hamiltonians = []
        for _ in range(2):
            q = _haar_unitary(rng, d)
            self.hamiltonians.append((q * rng.uniform(-1.0, 1.0, size=d)) @ q.conj().T)
        # the non-Hermitian observable A is decomposed once, at set-up
        self.a = no.spectral_decompose(_planted_normal(rng, d))
        self.psi = no.StateVector(_random_state(rng, d))
        self.times = rng.uniform(0.1, 2.0, size=len(self.cycle))
        self.h = None
        # evolve results wait for finish(): importing scipy for expm inside
        # the loop would add to peak RSS
        self.evolved: list[tuple[int, np.ndarray]] = []

    def _matrix(self, i: int) -> np.ndarray:
        cycle, pos = divmod(i, len(self.cycle))
        n = self.cycle[pos]
        use = cycle * self.cycle.count(n) + self.cycle[:pos].count(n)
        return self.matrices[n][use % self.pool]

    def call(self, i):
        cycle, pos = divmod(i, len(self.cycle))
        kind = self.cycle[pos]
        items = 0
        if pos == 0:
            # each cycle builds its Hamiltonian: one more matrix decomposed
            self.h = no.Hamiltonian(self.hamiltonians[cycle % 2])
            items = 1
        h, t = self.h, float(self.times[pos])
        if kind == "evolve":
            return (lambda: no.evolve(self.psi, h, t)), items
        if kind == "ehrenfest":
            grid = [t + s for s in self.t_grid]
            return (lambda: no.ehrenfest_check(self.a, h, self.psi, grid)), items
        m = self._matrix(i)
        return (lambda: no.spectral_decompose(m)), items + 1

    def check(self, i, out):
        cycle, pos = divmod(i, len(self.cycle))
        kind = self.cycle[pos]
        if kind == "ehrenfest":
            return None if out <= 1e-6 else f"Ehrenfest deviation {out:.3e} exceeds 1e-6"
        if kind == "evolve":
            self.evolved.append((i, out.amplitudes))
            return None
        m = self._matrix(i)
        scale = max(1.0, float(np.linalg.norm(m)))
        evals, u = out.eigenvalues, out.eigenbasis
        c, d = (m + m.conj().T) / 2.0, (m - m.conj().T) / 2.0j
        if not _close(np.sort(evals.real), np.linalg.eigvalsh(c), 1e-9 * scale):
            return "real parts differ from eigh of the Hermitian part"
        if not _close(np.sort(evals.imag), np.linalg.eigvalsh(d), 1e-9 * scale):
            return "imaginary parts differ from eigh of the anti-Hermitian part"
        if np.linalg.norm(u.conj().T @ u - np.eye(len(m))) > 1e-9:
            return "eigenbasis is not orthonormal"
        if np.linalg.norm((u * evals) @ u.conj().T - m) > 1e-9 * scale:
            return "U diag(evals) U^dag does not reconstruct the matrix"
        return None

    def finish(self):
        from scipy.linalg import expm

        failures = []
        for i, amplitudes in self.evolved:
            cycle, pos = divmod(i, len(self.cycle))
            h = self.hamiltonians[cycle % 2]
            expected = expm(-1j * h * float(self.times[pos])) @ self.psi.amplitudes
            if not _close(amplitudes, expected, 1e-9):
                failures.append(f"call {i}: evolve differs from expm")
        self.evolved.clear()
        return failures


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

_MATRICES = ("sigma_x", "sigma_y", "sigma_z", "f_sigma_z_plus_i")
_STATES = ("ket_up", "equal_superposition")


def _fx(name: str) -> str:
    return f"fixtures/{name}.json"


# Every command a cli run may issue, by kind. The workload seed only picks
# the order in which each kind walks its pool, so every stdout has a
# golden in goldens.json (see capture_goldens.py).
CLI_POOLS = {
    "check-normal": [["check-normal", _fx(m)] for m in _MATRICES],
    "decompose": [["decompose", _fx(m)] for m in _MATRICES],
    "measure": [
        ["measure", _fx(o), _fx(s), "--shots", "1000", "--seed", seed]
        for o in ("sigma_z", "sigma_x", "f_sigma_z_plus_i")
        for s in _STATES
        for seed in ("1", "42")
    ],
    "expect": [["expect", _fx(o), _fx(s)] for o in _MATRICES for s in _STATES],
    "evolve": [
        ["evolve", _fx(s), _fx(h), "--t", t, "--ehrenfest", _fx(a)]
        for s in ("equal_superposition", "ket_up")
        for h in ("sigma_z", "sigma_x")
        for t in ("0.5", "1.25")
        for a in ("sigma_x", "f_sigma_z_plus_i")
    ],
    "lhv": [
        ["chsh", "lhv", "--alphabet-a", a, "--alphabet-b", b]
        for a, b in (("1,-1", "i,-i"), ("1,-1", "1,-1"), ("i,-i", "i,-i"), ("1,i", "i,-1"))
    ],
    "quantum": [
        ["chsh", "quantum", _fx(s)]
        for s in ("chsh_optimal", "chsh_optimal_ibob", "chsh_product_state")
    ],
    "optimize": [
        ["chsh", "optimize", _fx(s), "--restarts", "4", "--seed", seed]
        for s in ("singlet", "phi_plus")
        for seed in ("0", "1", "2", "3")
    ],
    "audit": [
        ["chsh", "audit", "--trials", "8", "--seed", seed, *flag]
        for seed in ("0", "1", "2", "3")
        for flag in ((), ("--hermitian",))
    ],
}

# One cycle of thirteen commands. Optimize is the slowest kind and three
# in thirteen (23 %), so p90 falls inside it; the nine short commands hold p50.
CLI_CYCLE = (
    "check-normal", "decompose", "measure", "expect", "evolve", "lhv",
    "quantum", "quantum", "quantum", "audit", "optimize", "optimize", "optimize",
)

# Small in-process commands run at the end of every traced pass, so that
# every layer, the CLI and documents included, has spans in every workload.
CLI_TAIL = [
    ["check-normal", _fx("sigma_z")],
    ["decompose", _fx("f_sigma_z_plus_i")],
    ["measure", _fx("sigma_z"), _fx("equal_superposition"), "--shots", "100", "--seed", "1"],
    ["expect", _fx("sigma_z"), _fx("ket_up")],
    ["evolve", _fx("equal_superposition"), _fx("sigma_z"), "--t", "0.5", "--ehrenfest", _fx("sigma_x")],
    ["chsh", "lhv", "--alphabet-a", "1,-1", "--alphabet-b", "i,-i"],
    ["chsh", "quantum", _fx("chsh_optimal")],
    ["chsh", "optimize", _fx("singlet"), "--restarts", "1", "--seed", "0"],
    ["chsh", "audit", "--trials", "2", "--seed", "0"],
]

GOLDENS_PATH = BENCH_DIR / "goldens.json"


def golden_key(argv) -> str:
    return " ".join(argv)


SCENARIO_OUT = OUT_DIR / "tmp" / "best.json"


def full_argv(argv) -> list[str]:
    """The command as issued: JSON output, and optimize writes its scenario."""
    extra = ["--json"]
    if argv[:2] == ["chsh", "optimize"]:
        extra += ["--out", str(SCENARIO_OUT)]
    return [*argv, *extra]


def run_cli_subprocess(argv) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "normalobs.cli", *full_argv(argv)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE, timeout=120,
    )
    return proc.returncode, proc.stdout


def run_cli_in_process(argv) -> tuple[int, bytes]:
    import normalobs.cli  # noqa: F401  (binds no.cli)

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = no.cli.main(full_argv(argv))
    return code, buf.getvalue().encode()


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as f:
        return json.load(f)


def check_cli_output(goldens: dict, argv, out) -> str | None:
    code, stdout = out
    golden = goldens.get(golden_key(argv))
    if golden is None:
        return f"no golden for {golden_key(argv)!r}"
    if code != golden["code"]:
        return f"exit code {code}, golden {golden['code']}"
    if stdout != golden["stdout"].encode():
        return "stdout differs from the golden"
    return None


class Cli(Workload):
    """README commands, each a fresh interpreter (or cli.main when traced)."""

    name = "cli"
    trace_calls = 2 * len(CLI_CYCLE)

    def __init__(self, seed: int, in_process: bool = False):
        import normalobs.cli  # noqa: F401  (import cost belongs to set-up)

        rng = _rng(seed, self.name)
        self.order = {kind: rng.permutation(len(pool)) for kind, pool in CLI_POOLS.items()}
        self.goldens = load_goldens()
        self.run = run_cli_in_process if in_process else run_cli_subprocess
        SCENARIO_OUT.parent.mkdir(parents=True, exist_ok=True)

    def argv(self, i: int) -> list[str]:
        cycle, pos = divmod(i, len(CLI_CYCLE))
        kind = CLI_CYCLE[pos]
        use = cycle * CLI_CYCLE.count(kind) + CLI_CYCLE[:pos].count(kind)
        order = self.order[kind]
        return CLI_POOLS[kind][order[use % len(order)]]

    def call(self, i):
        argv = self.argv(i)
        return (lambda: self.run(argv)), 1

    def check(self, i, out):
        return check_cli_output(self.goldens, self.argv(i), out)


def coverage_tail(goldens: dict) -> list[str]:
    """Run the traced-pass tail; return a reason for each wrong output."""
    SCENARIO_OUT.parent.mkdir(parents=True, exist_ok=True)
    failures = []
    for argv in CLI_TAIL:
        reason = check_cli_output(goldens, argv, run_cli_in_process(argv))
        if reason:
            failures.append(f"tail {golden_key(argv)}: {reason}")
    sz = no.spectral_decompose(np.diag([1.0, -1.0]).astype(complex))
    psi = no.StateVector(np.array([0.6, 0.8j]))
    if not no.stationarity_check(sz, psi, 4, 0):
        failures.append("tail stationarity_check: repeated measurement changed outcome")
    return failures


def make(name: str, seed: int, in_process_cli: bool = False) -> Workload:
    if name == "cli":
        return Cli(seed, in_process=in_process_cli)
    return {"audit": Audit, "sampling": Sampling, "spectral": Spectral}[name](seed)
