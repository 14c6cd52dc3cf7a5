"""One workload process: set up, then time the workload or trace it.

Started by run.py as

    python3 perfbench/child.py --workload W --seed N --seconds S \\
        --mode setup|timed|trace --spawned-at T

where T is the parent's CLOCK_MONOTONIC reading just before the spawn, so
set-up time covers interpreter start, ``import normalobs``, input
generation and one-off decompositions. The last stdout line is one JSON
object for the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from time import perf_counter

from common import FUNCTIONS, JACOBI_SIZES, LAYERS, OUT_DIR, SRC, min_calls

# a timed run goes on past --seconds until p90 has ten samples beyond it,
# but never past this
HARD_LIMIT_S = 120.0
# matrix products per run of the calibration kernel
CALIBRATION_STEPS = 200
SETUP_CALIBRATIONS = 5
MIN_CALLS = min_calls(90)
PROBE_RUNS = 5
# hermitian_eig calls per size in the Jacobi-by-size sweep
SWEEP_CALLS = {2: 200, 4: 60, 8: 12, 16: 4, 32: 2, 64: 1}


class Pass:
    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.busy = 0.0
        # per call: items completed, busy time, calibration time just before
        self.items_each: list[int] = []
        self.busy_each: list[float] = []
        self.calibrations: list[float] = []


def calibrate() -> float:
    """Seconds one run of a fixed numpy kernel takes, which tracks CPU speed.

    On a shared host the CPU's speed changes from one few-second window to
    the next; this kernel (small complex matrix products, as the package's
    own code does) slows down with it, so timings can be rescaled to a
    reference speed. It uses numpy only, so no change to normalobs moves it.
    """
    import numpy as np

    a = np.eye(4, dtype=complex) + 0.1j
    x = a
    t0 = perf_counter()
    for _ in range(CALIBRATION_STEPS):
        x = (x @ a) / np.linalg.norm(x)
    return perf_counter() - t0


def make_call(workload, i: int, result: Pass):
    """Prepare, make and follow call i; return its output or exception.

    ``busy`` grows by the time spent preparing, making and following it.
    """
    t0 = perf_counter()
    fn, items = workload.call(i)
    start = perf_counter()
    latency = None
    try:
        out = fn()
        latency = perf_counter() - start
        out = workload.follow(i, out)
    except Exception as exc:  # a call that raises is a failed call; keep measuring
        if latency is None:
            latency = perf_counter() - start
        out, items = exc, 0
    busy = perf_counter() - t0
    result.latencies.append(latency)
    result.busy += busy
    result.items_each.append(items)
    result.busy_each.append(busy)
    return out


def check_into(result: Pass, workload, i: int, out) -> None:
    """Record why call i failed: it raised, or its output fails its check."""
    if isinstance(out, Exception):
        result.failures.append(f"call {i} raised {type(out).__name__}: {out}")
        return
    try:
        reason = workload.check(i, out)
    except Exception as exc:  # a malformed output can break its check
        reason = f"check raised {type(exc).__name__}: {exc}"
    if reason:
        result.failures.append(f"call {i}: {reason}")


def run_calls(workload, seconds: float, min_count: int) -> Pass:
    """Issue calls 0, 1, ... one at a time until both limits are met.

    Each call is preceded by one run of the calibration kernel. Each
    output is checked as soon as its call returns. Both happen outside
    ``busy``, and outputs are then dropped, so neither shows in the metrics.
    """
    result = Pass()
    t_start = perf_counter()
    i = 0
    while True:
        if (i >= min_count and result.busy >= seconds) or perf_counter() - t_start >= HARD_LIMIT_S:
            break
        result.calibrations.append(calibrate())
        check_into(result, workload, i, make_call(workload, i, result))
        i += 1
    return result


def peak_rss_kb() -> int:
    """Peak RSS of this process or of the largest child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children)


def timed(workload, seconds: float) -> dict:
    result = run_calls(workload, seconds, MIN_CALLS)
    peak = peak_rss_kb()
    failures = result.failures + workload.finish()
    return {
        "latencies": result.latencies,
        "items_each": result.items_each,
        "busy_each": result.busy_each,
        "calibrations": result.calibrations,
        "peak_rss_kb": peak,
        "attempted": len(result.latencies),
        "failed": len(failures),
        "failures": failures[:5],
    }


def _median_run(argv) -> float:
    times = []
    for _ in range(PROBE_RUNS):
        t0 = perf_counter()
        subprocess.run(argv, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def jacobi_by_size(seed: int) -> dict[int, float]:
    """Mean microseconds per untraced hermitian_eig call at each size."""
    import numpy as np

    import normalobs.linalg

    rng = np.random.default_rng([seed & ((1 << 64) - 1), 2])
    means = {}
    for n in JACOBI_SIZES:
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (x + x.conj().T) / 2.0
        t0 = perf_counter()
        for _ in range(SWEEP_CALLS[n]):
            normalobs.linalg.hermitian_eig(h)
        means[n] = (perf_counter() - t0) / SWEEP_CALLS[n] * 1e6
    return means


def traced(workload, seed: int) -> dict:
    """The same calls untraced and traced, then the per-layer metrics."""
    import normalobs.cli  # noqa: F401  (loaded before wrapping, so it is traced)
    import tracing
    from workloads import CLI_TAIL, coverage_tail, load_goldens

    goldens = load_goldens()
    tracer = tracing.Tracer()
    plain, spans_pass = Pass(), Pass()

    def traced_call(i: int) -> None:
        tracer.install()
        try:
            out = make_call(workload, i, spans_pass)
        finally:
            tracer.uninstall()
        check_into(spans_pass, workload, i, out)

    def plain_call(i: int) -> None:
        check_into(plain, workload, i, make_call(workload, i, plain))

    # each call runs untraced and traced back to back, in alternating
    # order, so both passes see the same drift in machine speed
    n = workload.trace_calls
    for i in range(n):
        first, second = (traced_call, plain_call) if i % 2 else (plain_call, traced_call)
        first(i)
        second(i)
    t0 = perf_counter()
    failures = coverage_tail(goldens)
    untraced_s = plain.busy + perf_counter() - t0
    tracer.install()
    try:
        t0 = perf_counter()
        failures += coverage_tail(goldens)
        traced_s = spans_pass.busy + perf_counter() - t0
    finally:
        tracer.uninstall()
    failures += plain.failures + spans_pass.failures + workload.finish()
    names = tracer.names
    totals = tracing.totals_by_name(names, *tracer.arrays())
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{workload.name}-{seed}.npz")

    metrics = {}
    for layer in LAYERS:
        calls = sum(c for name, (c, _) in totals.items() if name.split(".")[0] == layer)
        self_s = sum(s for name, (_, s) in totals.items() if name.split(".")[0] == layer)
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.share"] = self_s / traced_s
    eig_calls, eig_self = totals.get("linalg.hermitian_eig", (0, 0.0))
    metrics["linalg.hermitian_eig.calls"] = eig_calls
    metrics["linalg.hermitian_eig.self_s"] = eig_self
    for size, mean_us in jacobi_by_size(seed).items():
        metrics[f"linalg.hermitian_eig.n{size}_us"] = mean_us
    for prefix, span in FUNCTIONS.items():
        metrics[f"{prefix}.self_s"] = totals.get(span, (0, 0.0))[1]
    interpreter = _median_run([sys.executable, "-c", "pass"])
    metrics["cli.interpreter_s"] = interpreter
    metrics["cli.import_s"] = _median_run([sys.executable, "-c", "import normalobs.cli"]) - interpreter
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    return {
        "metrics": metrics,
        "spans": len(tracer.start),
        # each pass: n calls, the tail's commands and its stationarity check
        "attempted": 2 * (n + len(CLI_TAIL) + 1),
        "failed": len(failures),
        "failures": failures[:5],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    import normalobs
    import workloads

    if not normalobs.__file__.startswith(str(SRC)):
        print(f"normalobs imported from {normalobs.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed, in_process_cli=args.mode == "trace")
    report = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at}
    report["setup_calibration"] = statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))
    if args.mode == "timed":
        report.update(timed(workload, args.seconds))
    elif args.mode == "trace":
        report.update(traced(workload, args.seed))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
