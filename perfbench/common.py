"""Paths, metric names and the percentile rule shared by the benchmark files."""

from __future__ import annotations

import re
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("audit", "sampling", "spectral", "cli")

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

# (name, unit, better) of each metric a timed run reports
END_TO_END = (
    ("items_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

LAYERS = ("rng", "linalg", "observables", "measurement", "dynamics", "chsh", "documents", "cli")

JACOBI_SIZES = (2, 4, 8, 16, 32, 64)

# metric prefix -> traced span name, for the functions reported one by one
FUNCTIONS = {
    "linalg.operator_norm": "linalg.operator_norm",
    "observables.spectral_decompose": "observables.spectral_decompose",
    "observables.post_init": "observables.Observable.__post_init__",
    "measurement.sample": "measurement.sample",
    "measurement.spectral_distribution": "measurement.spectral_distribution",
    "measurement.stationarity_check": "measurement.stationarity_check",
    "dynamics.evolve": "dynamics.evolve",
    "dynamics.hamiltonian_init": "dynamics.Hamiltonian.__post_init__",
    "chsh.random_scenario": "chsh.random_scenario",
    "chsh.tsirelson_check": "chsh.tsirelson_check",
    "chsh.optimize_settings": "chsh.optimize_settings",
}


def per_layer_metrics() -> tuple[tuple[str, str, str], ...]:
    """(name, unit, better) of each metric a traced run reports."""
    specs = []
    for layer in LAYERS:
        specs += [
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.share", "ratio", "lower"),
        ]
    specs += [
        ("linalg.hermitian_eig.calls", "count", "lower"),
        ("linalg.hermitian_eig.self_s", "s", "lower"),
    ]
    specs += [(f"linalg.hermitian_eig.n{n}_us", "us", "lower") for n in JACOBI_SIZES]
    specs += [(f"{prefix}.self_s", "s", "lower") for prefix in FUNCTIONS]
    specs += [
        ("cli.interpreter_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return tuple(specs)


PER_LAYER = per_layer_metrics()


# Timed metrics are rescaled to the CPU speed at which one run of the
# calibration kernel (child.calibrate) takes this long.
REFERENCE_CALIBRATION_S = 1e-3
# calibrations on each side of a call that its speed estimate uses
CALIBRATION_HALF_WINDOW = 2


def speed_factors(calibrations) -> list[float]:
    """Per call, reference over measured calibration time (< 1 when slow).

    A call's calibration time is the median of the calibrations run just
    before it and the two before and after that, which damps the kernel's
    own jitter while following the host's changes of speed.
    """
    h = CALIBRATION_HALF_WINDOW
    factors = []
    for i in range(len(calibrations)):
        window = sorted(calibrations[max(0, i - h): i + h + 1])
        factors.append(REFERENCE_CALIBRATION_S / window[len(window) // 2])
    return factors


def _rank(q: int, n: int) -> int:
    # ceil(q * n / 100) in integers, so 90 % of 100 is exactly rank 90
    return max(1, -(-q * n // 100))


def percentile(samples, q: int) -> float:
    """Nearest-rank percentile: the smallest sample with at least q % at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    return ordered[_rank(q, len(ordered)) - 1]


def samples_beyond(n: int, q: int) -> int:
    """How many of n samples rank above the q-th nearest-rank percentile."""
    return n - _rank(q, n)


def min_calls(q: int, beyond: int = 10) -> int:
    """Fewest samples of which at least ``beyond`` rank above the q-th percentile."""
    n = 1
    while samples_beyond(n, q) < beyond:
        n += 1
    return n
