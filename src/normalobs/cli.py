"""Command-line interface.

Exit codes: 0 success, 2 input or validation error, 3 negative domain
verdict (e.g. the matrix is not normal), 4 internal-invariant violation
(never expected). With ``--json`` every command emits one deterministic
JSON object on stdout.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from . import chsh as chshmod
from . import documents as docs
from .dynamics import Hamiltonian, evolve, heisenberg_comparison
from .errors import (
    DocumentError,
    InternalInvariantViolation,
    NormalObsError,
    NotNormal,
)
from .linalg import frobenius_norm, operator_norm
from .measurement import sample, spectral_distribution
from .observables import (
    check_normal,
    commutator_of_parts_norm,
    expectation,
    normality_residual,
    spectral_decompose,
)
from .qubit import bloch_components

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERDICT = 3
EXIT_INVARIANT = 4


def _fmt_complex(z: complex, digits: int = 12) -> str:
    re_part = z.real + 0.0
    im_part = z.imag + 0.0
    return f"{re_part:.{digits}g}{im_part:+.{digits}g}i"


def parse_complex_label(text: str) -> complex:
    """Parse labels like '1', '-1', 'i', '-i', '0.5+0.866i'."""
    t = text.strip().replace(" ", "").replace("i", "j")
    if t in ("j", "+j"):
        t = "1j"
    elif t == "-j":
        t = "-1j"
    else:
        t = re.sub(r"(?<![0-9.])j", "1j", t)
    try:
        z = complex(t)
    except ValueError as exc:
        raise DocumentError(f"cannot parse complex label {text!r}") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DocumentError(f"label {text!r} is not finite")
    return z


def _parse_alphabet(text: str, name: str) -> chshmod.OutcomeAlphabet:
    parts = text.split(",")
    if len(parts) != 2:
        raise DocumentError(f"{name}: expected two comma-separated labels, got {text!r}")
    labels = tuple(parse_complex_label(p) for p in parts)
    try:
        return chshmod.OutcomeAlphabet(labels=labels)
    except (NormalObsError, ValueError) as exc:
        raise DocumentError(f"{name}: {exc}") from exc


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if args.json:
        print(docs.to_json(payload))
    else:
        for line in human_lines:
            print(line)


def cmd_check_normal(args) -> int:
    matrix = docs.load_matrix(args.matrix)
    residual = normality_residual(matrix)
    parts_comm = commutator_of_parts_norm(matrix)
    verdict = check_normal(matrix, args.tol)
    _emit(
        args,
        {
            "normal": verdict,
            "residual": residual,
            "hermitian_parts_commutator_norm": parts_comm,
            "tol": args.tol,
        },
        [
            f"normal: {'true' if verdict else 'false'}",
            f"residual ||M^dag M - M M^dag||_F: {residual:.6e}",
            f"hermitian parts commutator norm ||[C,D]||_F: {parts_comm:.6e}",
        ],
    )
    return EXIT_OK if verdict else EXIT_VERDICT


def cmd_decompose(args) -> int:
    matrix = docs.load_matrix(args.matrix)
    try:
        obs = spectral_decompose(matrix)
    except NotNormal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    reconstruction = (obs.eigenbasis * obs.eigenvalues) @ obs.eigenbasis.conj().T
    residual = frobenius_norm(reconstruction - matrix)
    human = ["eigenvalues:"]
    human += [f"  {_fmt_complex(z)}" for z in obs.eigenvalues]
    human.append("eigenbasis columns (one eigenvector per line):")
    for j in range(obs.dim):
        entries = ", ".join(_fmt_complex(obs.eigenbasis[k, j]) for k in range(obs.dim))
        human.append(f"  [{entries}]")
    human.append(f"eigenspaces: {[list(g) for g in obs.eigenspaces]}")
    human.append(f"reconstruction residual: {residual:.6e}")
    _emit(
        args,
        {
            "eigenvalues": [docs.pair(z) for z in obs.eigenvalues],
            "eigenbasis": [
                [docs.pair(obs.eigenbasis[k, j]) for k in range(obs.dim)]
                for j in range(obs.dim)
            ],
            "eigenspaces": [list(g) for g in obs.eigenspaces],
            "reconstruction_residual": residual,
        },
        human,
    )
    return EXIT_OK


def cmd_measure(args) -> int:
    if args.shots < 0:
        raise DocumentError(f"--shots must be >= 0, got {args.shots}")
    obs = spectral_decompose(docs.load_matrix(args.observable))
    psi = docs.load_state(args.state)
    dist = spectral_distribution(obs, psi)
    payload: dict = {
        "outcomes": [
            {"eigenvalue": docs.pair(o.eigenvalue), "probability": o.probability}
            for o in dist.outcomes
        ]
    }
    human = ["outcome  eigenvalue        probability"]
    for g, o in enumerate(dist.outcomes):
        human.append(f"{g:>7}  {_fmt_complex(o.eigenvalue):<16}  {o.probability:.12g}")
    if args.shots > 0:
        record = sample(obs, psi, args.shots, args.seed)
        payload["shots"] = args.shots
        payload["seed"] = args.seed
        payload["counts"] = {str(k): v for k, v in record.counts.items()}
        human.append(f"counts over {args.shots} shots (seed {args.seed}):")
        for g in range(len(dist.outcomes)):
            human.append(f"{g:>7}  {record.counts[g]}")
    _emit(args, payload, human)
    return EXIT_OK


def cmd_expect(args) -> int:
    obs = spectral_decompose(docs.load_matrix(args.observable))
    psi = docs.load_state(args.state)
    value = expectation(obs, psi)
    _emit(args, {"expectation": docs.pair(value)}, [f"expectation: {_fmt_complex(value)}"])
    return EXIT_OK


def cmd_evolve(args) -> int:
    psi = docs.load_state(args.state)
    ham = Hamiltonian(docs.load_matrix(args.hamiltonian))
    evolved = evolve(psi, ham, args.t)
    payload: dict = {
        "t": args.t,
        "state": [docs.pair(z) for z in evolved.amplitudes],
    }
    human = [f"state at t={args.t:g}:"]
    human += [f"  {_fmt_complex(z)}" for z in evolved.amplitudes]
    if args.ehrenfest is not None:
        obs = spectral_decompose(docs.load_matrix(args.ehrenfest))
        lhs, rhs = heisenberg_comparison(obs, ham, psi, args.t)
        deviation = abs(lhs - rhs)
        payload["ehrenfest"] = {
            "derivative": docs.pair(lhs),
            "commutator_side": docs.pair(rhs),
            "deviation": deviation,
        }
        human.append(f"d<A>/dt (central difference): {_fmt_complex(lhs)}")
        human.append(f"(1/i)<[A,H]>:                 {_fmt_complex(rhs)}")
        human.append(f"deviation: {deviation:.6e}")
    _emit(args, payload, human)
    return EXIT_OK


def cmd_chsh_lhv(args) -> int:
    alphabet_a = _parse_alphabet(args.alphabet_a, "--alphabet-a")
    alphabet_b = _parse_alphabet(args.alphabet_b, "--alphabet-b")
    strategies = chshmod.enumerate_strategies(alphabet_a, alphabet_b)
    rows = []
    best = 0.0
    for s in strategies:
        value = chshmod.lhv_value(s)
        best = max(best, abs(value))
        rows.append((s, value))
    human = ["a1          a2          b1          b2          S               |S|"]
    for s, value in rows:
        human.append(
            f"{_fmt_complex(s.a1, 6):<11} {_fmt_complex(s.a2, 6):<11} "
            f"{_fmt_complex(s.b1, 6):<11} {_fmt_complex(s.b2, 6):<11} "
            f"{_fmt_complex(value, 6):<15} {abs(value):.12g}"
        )
    human.append(f"max |S|: {best:.12g}")
    _emit(
        args,
        {
            "strategies": [
                {
                    "a1": docs.pair(s.a1),
                    "a2": docs.pair(s.a2),
                    "b1": docs.pair(s.b1),
                    "b2": docs.pair(s.b2),
                    "S": docs.pair(value),
                    "abs_S": abs(value),
                }
                for s, value in rows
            ],
            "max_abs_S": best,
        },
        human,
    )
    return EXIT_OK


def cmd_chsh_quantum(args) -> int:
    sc = docs.load_scenario(args.scenario)
    correlations = {
        "C(A1,B1)": chshmod.quantum_correlation(sc.a1, sc.b1, sc.psi),
        "C(A1,B2)": chshmod.quantum_correlation(sc.a1, sc.b2, sc.psi),
        "C(A2,B1)": chshmod.quantum_correlation(sc.a2, sc.b1, sc.psi),
        "C(A2,B2)": chshmod.quantum_correlation(sc.a2, sc.b2, sc.psi),
    }
    value = chshmod.chsh_value(sc)
    z = chshmod.z_operator(sc)
    z_norm = operator_norm(z)
    expansion_residual = chshmod.zdagz_expansion_residual(sc)
    result = chshmod.tsirelson_check(sc)
    human = [f"{name}: {_fmt_complex(c)}" for name, c in correlations.items()]
    human.append(f"chsh value S: {_fmt_complex(value)}")
    human.append(f"|S|: {abs(value):.12g}")
    human.append(f"operator norm ||Z||: {z_norm:.12g}")
    human.append(f"Z^dag Z expansion residual: {expansion_residual:.6e}")
    human.append(
        f"tsirelson bound 2*sqrt(2): {'satisfied' if result.satisfied else 'VIOLATED'}"
    )
    _emit(
        args,
        {
            "correlations": {k: docs.pair(v) for k, v in correlations.items()},
            "chsh_value": docs.pair(value),
            "abs_chsh_value": abs(value),
            "z_operator_norm": z_norm,
            "zdagz_expansion_residual": expansion_residual,
            "tsirelson_satisfied": result.satisfied,
        },
        human,
    )
    return EXIT_OK if result.satisfied else EXIT_INVARIANT


def cmd_chsh_optimize(args) -> int:
    if args.restarts < 1:
        raise DocumentError(f"--restarts must be >= 1, got {args.restarts}")
    psi = docs.load_state(args.state)
    if psi.dim != 4:
        raise DocumentError(f"state.dim: expected 4, got {psi.dim}")
    sc = chshmod.optimize_settings(psi, restarts=args.restarts, seed=args.seed)
    value = chshmod.chsh_value(sc)
    settings = {}
    human = []
    for name, obs in sc.observables().items():
        nx, ny, nz = bloch_components(obs.matrix)
        theta = math.atan2(math.hypot(nx, ny), nz)
        phi = math.atan2(ny, nx)
        settings[name] = {"theta": theta, "phi": phi, "bloch": [nx, ny, nz]}
        human.append(
            f"{name}: theta={theta:.12g} phi={phi:.12g} n=({nx:.12g}, {ny:.12g}, {nz:.12g})"
        )
    human.append(f"chsh value S: {_fmt_complex(value)}")
    human.append(f"|S|: {abs(value):.12g}")
    if args.out is not None:
        docs.save_scenario(args.out, sc)
        human.append(f"scenario written to {args.out}")
    _emit(
        args,
        {
            "settings": settings,
            "chsh_value": docs.pair(value),
            "abs_chsh_value": abs(value),
            "restarts": args.restarts,
            "seed": args.seed,
        },
        human,
    )
    return EXIT_OK


def cmd_chsh_audit(args) -> int:
    if args.trials < 1:
        raise DocumentError(f"--trials must be >= 1, got {args.trials}")
    result = chshmod.audit_tsirelson(args.trials, args.seed, hermitian=args.hermitian)
    bound = chshmod.TSIRELSON_BOUND
    human = [
        f"trials: {result.trials}",
        f"max ||Z||: {result.max_norm:.12g}",
        f"bound 2*sqrt(2) + 1e-9: {bound + 1e-9:.12g}",
        f"verdict: {'pass' if result.passed else 'FAIL'}",
    ]
    _emit(
        args,
        {
            "trials": result.trials,
            "seed": args.seed,
            "hermitian": args.hermitian,
            "max_norm": result.max_norm,
            "bound": bound,
            "pass": result.passed,
        },
        human,
    )
    return EXIT_OK if result.passed else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normalobs",
        description="Normal-operator observables, measurement, and the CHSH suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit one JSON object")

    p = sub.add_parser("check-normal", help="test whether a matrix is normal")
    p.add_argument("matrix", help="matrix document path")
    p.add_argument("--tol", type=float, default=1e-10)
    add_json(p)
    p.set_defaults(func=cmd_check_normal)

    p = sub.add_parser("decompose", help="spectral decomposition of a normal matrix")
    p.add_argument("matrix")
    add_json(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("measure", help="Born distribution and sampled counts")
    p.add_argument("observable")
    p.add_argument("state")
    p.add_argument("--shots", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    add_json(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("expect", help="expectation value of an observable")
    p.add_argument("observable")
    p.add_argument("state")
    add_json(p)
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("evolve", help="evolve a state under a Hamiltonian")
    p.add_argument("state")
    p.add_argument("hamiltonian")
    p.add_argument("--t", type=float, required=True)
    p.add_argument(
        "--ehrenfest",
        metavar="OBSERVABLE",
        help="also compare d<A>/dt with (1/i)<[A,H]> at t",
    )
    add_json(p)
    p.set_defaults(func=cmd_evolve)

    chsh_parser = sub.add_parser("chsh", help="CHSH inequality suite")
    chsh_sub = chsh_parser.add_subparsers(dest="chsh_command", required=True)

    p = chsh_sub.add_parser("lhv", help="enumerate deterministic local strategies")
    p.add_argument("--alphabet-a", default="1,-1")
    p.add_argument("--alphabet-b", default="i,-i")
    add_json(p)
    p.set_defaults(func=cmd_chsh_lhv)

    p = chsh_sub.add_parser("quantum", help="correlations and bounds for a scenario")
    p.add_argument("scenario")
    add_json(p)
    p.set_defaults(func=cmd_chsh_quantum)

    p = chsh_sub.add_parser("optimize", help="search settings maximizing |S|")
    p.add_argument("state")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the best scenario document here")
    add_json(p)
    p.set_defaults(func=cmd_chsh_optimize)

    p = chsh_sub.add_parser("audit", help="random-scenario Tsirelson bound audit")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hermitian", action="store_true", help="draw Hermitian settings")
    add_json(p)
    p.set_defaults(func=cmd_chsh_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalInvariantViolation as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except NormalObsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
