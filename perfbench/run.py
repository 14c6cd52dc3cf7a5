"""Layered benchmark of normalobs.

    python3 perfbench/run.py --workload audit|sampling|spectral|cli|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src/``. With ``--trace 0`` the workload runs in a fresh process for S
seconds (longer if needed for p90 to have ten samples beyond it) with one
call in flight, six more processes (three before, three after) only set
up, and the end-to-end metrics are printed. With ``--trace 1`` one
process runs a fixed number of calls, each untraced and traced back to
back, and prints the per-layer metrics. All processes run pinned to one
CPU, and timings are rescaled to a reference CPU speed measured by an
interleaved calibration kernel. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Full results with run metadata go to ``.perfbench/results/``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

from common import (
    BENCH_DIR, END_TO_END, OUT_DIR, PER_LAYER, REFERENCE_CALIBRATION_S, ROOT, SRC,
    WORKLOADS, percentile, samples_beyond, speed_factors,
)

# set-up-only processes before and after the timed one, so the set-up
# median spans the run instead of one moment of a shared machine
SETUP_RUNS_AROUND = 3
CHILD_TIMEOUT_S = 160
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # one BLAS thread: the matrices are at most 64x64 and the machine is shared
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    return env


def run_child(workload: str, seed: int, seconds: float, mode: str) -> dict:
    """Start one workload process, wait for it, return its JSON report."""
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    argv = [
        sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
        "--spawned-at", repr(spawned_at),
    ]
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{workload} {mode} process timed out") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} {mode} process exited with {proc.returncode}")
    lines = stdout.decode().strip().splitlines()
    if not lines:
        raise ChildFailed(f"{workload} {mode} process printed nothing")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    """Timed run: (child report, end-to-end metric values, detail)."""
    def setup_only():
        return run_child(workload, seed, seconds, "setup")

    reports = [setup_only() for _ in range(SETUP_RUNS_AROUND)]
    report = run_child(workload, seed, seconds, "timed")
    reports += [report] + [setup_only() for _ in range(SETUP_RUNS_AROUND)]
    setups = [r["setup_s"] for r in reports]
    scaled_setups = [
        r["setup_s"] * REFERENCE_CALIBRATION_S / r["setup_calibration"] for r in reports
    ]
    factors = speed_factors(report["calibrations"])
    wall = report["latencies"]
    latencies = [t * f for t, f in zip(wall, factors)]
    busy = sum(b * f for b, f in zip(report["busy_each"], factors))
    items = sum(report["items_each"])
    values = {
        "items_per_s": items / busy,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "setup_s": statistics.median(scaled_setups),
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
    }
    wall_values = {
        "items_per_s": items / sum(report["busy_each"]),
        "latency_p50_ms": percentile(wall, 50) * 1e3,
        "latency_p90_ms": percentile(wall, 90) * 1e3,
        "setup_s": statistics.median(setups),
    }
    detail = {
        "calls": len(wall),
        "samples_beyond_p90": samples_beyond(len(wall), 90),
        "items": items,
        "wall": wall_values,
        "speed_factor_median": statistics.median(factors),
        "setup_runs_s": setups,
        "setup_calibrations_s": [r["setup_calibration"] for r in reports],
        "latencies_ms": [t * 1e3 for t in wall],
        "calibrations_ms": [c * 1e3 for c in report["calibrations"]],
        "error_ratio": report["failed"] / report["attempted"],
    }
    return report, values, detail


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() or None


def run_metadata(seed: int, env: dict[str, str]) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
        "blas_threads": {var: env.get(var) for var in BLAS_THREAD_VARS},
        "src_lines": src_line_count(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; print its metrics; return its result object."""
    if trace:
        report = run_child(workload, seed, seconds, "trace")
        specs, values, detail = PER_LAYER, report["metrics"], {"spans": report["spans"]}
    else:
        report, values, detail = measure(workload, seed, seconds)
        specs = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in specs}
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    shown = {name: metric["value"] for name, metric in metrics.items()}
    shown["error_ratio"] = report["failed"] / report["attempted"]
    units = {name: metric["unit"] for name, metric in metrics.items()}
    units["error_ratio"] = "ratio"
    if not trace:
        # the same timings unscaled, and the scale applied, for reference
        for name, value in detail["wall"].items():
            shown[f"wall.{name}"] = value
            units[f"wall.{name}"] = units[name]
        shown["speed_factor"] = detail["speed_factor_median"]
        units["speed_factor"] = "ratio"
    for name, value in shown.items():
        text = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"{workload:<9} {name:<40} {text} {units[name]}")
    for reason in report["failures"]:
        print(f"{workload:<9} FAILED {reason}", file=sys.stderr)

    (OUT_DIR / "results").mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    record = {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "meta": run_metadata(seed, child_env()),
        "result": result,
        "failures": report["failures"],
        "detail": detail,
    }
    path.write_text(json.dumps(record, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "normalobs" / "__init__.py").is_file():
        print(f"error: no normalobs package under {SRC}", file=sys.stderr)
        return 2
    # Every benchmark process inherits this one-CPU affinity, so the
    # calibration kernel runs on the same CPU as the calls it rescales,
    # CLI subprocesses included.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": metric
                for w, r in results.items() for name, metric in r["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
