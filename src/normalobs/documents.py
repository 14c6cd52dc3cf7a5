"""File formats for matrices, states and CHSH scenarios.

Documents are JSON with every complex number written as an explicit
[re, im] pair, so there is no complex-literal parsing ambiguity and a
written file reloads to bit-identical doubles. Serialization goes through
:func:`to_json`, which prints floats with 17 significant digits and fixed
key order, making output byte-deterministic.

Matrix document:   {"n": 2, "entries": [[re, im], ...]}        (row-major, n^2 pairs)
State document:    {"dim": 4, "amplitudes": [[re, im], ...]}
Scenario document: {"A1": <matrix>, "A2": <matrix>, "B1": <matrix>,
                    "B2": <matrix>, "state": <state>}
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .chsh import ChshScenario
from .errors import DocumentError, NormalObsError
from .measurement import StateVector
from .observables import spectral_decompose

_STATE_NORM_STRICT = 1e-8
_STATE_NORM_REJECT = 1e-3


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise DocumentError(f"cannot serialize non-finite number {x!r}")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def to_json(value, indent: int = 0) -> str:
    """Serialize dicts/lists/numbers/strings deterministically.

    Floats carry 17 significant digits so they round-trip losslessly; dict
    keys keep insertion order.
    """
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  "{k}": {to_json(v, indent + 2).lstrip()}'
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        flat = all(isinstance(v, (int, float, bool)) for v in value)
        parts = [to_json(v, indent + 2) for v in value]
        if flat and sum(len(p) for p in parts) < 60:
            return "[" + ", ".join(parts) + "]"
        return (
            "[\n"
            + ",\n".join(pad + "  " + p for p in parts)
            + "\n"
            + pad
            + "]"
        )
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise DocumentError(f"cannot serialize value of type {type(value).__name__}")


def pair(z: complex) -> list[float]:
    """A complex number as its [re, im] document pair."""
    return [float(z.real), float(z.imag)]


def _read_pair(item, where: str) -> complex:
    if (
        not isinstance(item, (list, tuple))
        or len(item) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in item)
    ):
        raise DocumentError(f"{where}: expected a [re, im] number pair, got {item!r}")
    re, im = float(item[0]), float(item[1])
    if not (math.isfinite(re) and math.isfinite(im)):
        raise DocumentError(f"{where}: non-finite number")
    return complex(re, im)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: top level must be an object")
    return doc


def matrix_to_doc(matrix) -> dict:
    a = np.asarray(matrix, dtype=complex)
    return {
        "n": int(a.shape[0]),
        "entries": [pair(z) for z in a.reshape(-1)],
    }


def matrix_from_doc(doc: dict, where: str = "matrix") -> np.ndarray:
    if "n" not in doc:
        raise DocumentError(f"{where}: missing field 'n'")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DocumentError(f"{where}.n: expected a positive integer, got {n!r}")
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise DocumentError(f"{where}.entries: missing or not a list")
    if len(entries) != n * n:
        raise DocumentError(
            f"{where}.entries: expected {n * n} pairs for n={n}, got {len(entries)}"
        )
    flat = [_read_pair(item, f"{where}.entries[{k}]") for k, item in enumerate(entries)]
    return np.array(flat, dtype=complex).reshape(n, n)


def load_matrix(path: str) -> np.ndarray:
    return matrix_from_doc(_load_json(path), where="matrix")


def save_matrix(path: str, matrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(matrix_to_doc(matrix)) + "\n")


def state_to_doc(psi: StateVector) -> dict:
    return {
        "dim": int(psi.dim),
        "amplitudes": [pair(z) for z in psi.amplitudes],
    }


def state_from_doc(doc: dict, where: str = "state") -> StateVector:
    if "dim" not in doc:
        raise DocumentError(f"{where}: missing field 'dim'")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise DocumentError(f"{where}.dim: expected a positive integer, got {dim!r}")
    amplitudes = doc.get("amplitudes")
    if not isinstance(amplitudes, list):
        raise DocumentError(f"{where}.amplitudes: missing or not a list")
    if len(amplitudes) != dim:
        raise DocumentError(
            f"{where}.amplitudes: expected {dim} pairs, got {len(amplitudes)}"
        )
    amps = np.array(
        [_read_pair(item, f"{where}.amplitudes[{k}]") for k, item in enumerate(amplitudes)],
        dtype=complex,
    )
    norm = float(np.linalg.norm(amps))
    deviation = abs(norm - 1.0)
    if deviation > _STATE_NORM_REJECT:
        raise DocumentError(
            f"{where}.amplitudes: norm {norm!r} deviates from 1 by {deviation:.3e}"
        )
    if deviation > _STATE_NORM_STRICT:
        print(
            f"warning: {where} norm {norm!r} off by {deviation:.3e}; renormalizing",
            file=sys.stderr,
        )
    if deviation <= 1e-10:
        # already inside the internal tolerance; keep the bytes untouched
        return StateVector(amps)
    return StateVector(amps / norm)


def load_state(path: str) -> StateVector:
    return state_from_doc(_load_json(path), where="state")


def save_state(path: str, psi: StateVector) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(state_to_doc(psi)) + "\n")


def scenario_to_doc(sc: ChshScenario) -> dict:
    return {
        "A1": matrix_to_doc(sc.a1.matrix),
        "A2": matrix_to_doc(sc.a2.matrix),
        "B1": matrix_to_doc(sc.b1.matrix),
        "B2": matrix_to_doc(sc.b2.matrix),
        "state": state_to_doc(sc.psi),
    }


def scenario_from_doc(doc: dict) -> ChshScenario:
    observables = {}
    for name in ("A1", "A2", "B1", "B2"):
        sub = doc.get(name)
        if not isinstance(sub, dict):
            raise DocumentError(f"{name}: missing or not an object")
        matrix = matrix_from_doc(sub, where=name)
        if matrix.shape != (2, 2):
            raise DocumentError(f"{name}: expected a 2x2 matrix, got n={matrix.shape[0]}")
        try:
            observables[name] = spectral_decompose(matrix)
        except NormalObsError as exc:
            raise DocumentError(f"{name}: {exc}") from exc
    sub = doc.get("state")
    if not isinstance(sub, dict):
        raise DocumentError("state: missing or not an object")
    psi = state_from_doc(sub, where="state")
    if psi.dim != 4:
        raise DocumentError(f"state.dim: expected 4, got {psi.dim}")
    try:
        return ChshScenario(
            a1=observables["A1"],
            a2=observables["A2"],
            b1=observables["B1"],
            b2=observables["B2"],
            psi=psi,
        )
    except NormalObsError as exc:
        raise DocumentError(f"scenario: {exc}") from exc


def load_scenario(path: str) -> ChshScenario:
    return scenario_from_doc(_load_json(path))


def save_scenario(path: str, sc: ChshScenario) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(scenario_to_doc(sc)) + "\n")
