"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/selftest.py

Not named test_*.py, so the repository's own test run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from common import BENCH_DIR, END_TO_END, METRIC_NAME, PER_LAYER, ROOT, SRC, WORKLOADS

sys.path.insert(0, str(SRC))

import child  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from common import (  # noqa: E402
    REFERENCE_CALIBRATION_S, min_calls, percentile, samples_beyond, speed_factors,
)


def test_self_time_on_hand_built_span_tree():
    # 0 [0,10] -> 1 [1,4] -> 3 [2,3]; 0 -> 2 [5,9]; 4 [11,12] top level
    parent = np.array([-1, 0, 0, 1, -1])
    start = np.array([0.0, 1.0, 5.0, 2.0, 11.0])
    end = np.array([10.0, 4.0, 9.0, 3.0, 12.0])
    assert tracing.self_times(parent, start, end).tolist() == [3.0, 2.0, 4.0, 1.0, 1.0]
    names = ["a", "b"]
    name_of = np.array([0, 1, 1, 0, 0])
    assert tracing.totals_by_name(names, name_of, parent, start, end) == {
        "a": (3, 5.0), "b": (2, 6.0)
    }


def test_tracer_wraps_every_binding_and_restores_them():
    import normalobs
    import normalobs.linalg
    import normalobs.measurement
    import normalobs.observables

    original = normalobs.linalg.hermitian_eig
    normalized = vars(normalobs.StateVector)["normalized"]
    tracer = tracing.Tracer()
    for _ in range(2):  # a second install reuses the wrappers
        tracer.install()
        try:
            assert normalobs.observables.hermitian_eig is normalobs.linalg.hermitian_eig
            assert normalobs.hermitian_eig is normalobs.linalg.hermitian_eig
            assert normalobs.linalg.hermitian_eig is not original
            assert vars(normalobs.StateVector)["normalized"] is not normalized
            normalobs.spectral_decompose(np.diag([1.0, -1.0]))
        finally:
            tracer.uninstall()
        assert normalobs.linalg.hermitian_eig is original
        assert normalobs.observables.hermitian_eig is original
        assert vars(normalobs.StateVector)["normalized"] is normalized
    assert len(tracer.names) == len(set(tracer.names))
    name_of, parent, start, end = tracer.arrays()
    names = [tracer.names[i] for i in name_of]
    assert names[0] == "observables.spectral_decompose" and parent[0] == -1
    assert "observables.Observable.__post_init__" in names
    eig = names.index("linalg.hermitian_eig")
    assert names[parent[eig]] == "observables.spectral_decompose"
    assert np.all(end >= start)


def test_percentile_rule_leaves_ten_samples_beyond_p90():
    assert min_calls(90) == 100
    assert samples_beyond(100, 90) == 10 and samples_beyond(99, 90) == 9
    assert percentile(range(1, 101), 90) == 90
    assert percentile(range(1, 101), 50) == 50
    assert percentile([5.0], 90) == 5.0

    class Instant(workloads.Workload):
        def call(self, i):
            return (lambda: i), 1

    result = child.run_calls(Instant(), 0.0, child.MIN_CALLS)
    assert samples_beyond(len(result.latencies), 90) >= 10


def test_speed_factors_follow_the_calibration_median():
    ref = REFERENCE_CALIBRATION_S
    # a host twice as slow for the last four calls; one jittery calibration
    calibrations = [ref, ref, 5 * ref, ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    factors = speed_factors(calibrations)
    assert factors[:4] == [1.0, 1.0, 1.0, 1.0]
    assert factors[-3:] == [0.5, 0.5, 0.5]
    assert len(factors) == len(calibrations)


def test_calibration_kernel_runs():
    assert 0.0 < child.calibrate() < 1.0


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert declared == list(END_TO_END)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == list(PER_LAYER)
    names = [m[0] for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in spec["workloads"]]:
        assert METRIC_NAME.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_flipped_sample_count_is_a_failed_call():
    w = workloads.Sampling(seed=7)
    assert child.run_calls(w, 0.0, 4).failures == []

    class Flipped(workloads.Sampling):
        def follow(self, i, record):
            if i == 2:
                record.counts[0] += 1
                record.counts[1] -= 1
            return super().follow(i, record)

    result = child.run_calls(Flipped(seed=7), 0.0, 4)
    assert len(result.latencies) == 4
    assert len(result.failures) == 1 and result.failures[0].startswith("call 2: counts")


def test_raising_call_is_a_failed_call():
    class Broken(workloads.Workload):
        def call(self, i):
            return (lambda: 1 / 0), 1

        def check(self, i, out):
            return None

    result = child.run_calls(Broken(), 0.0, 3)
    assert len(result.latencies) == 3 and sum(result.items_each) == 0
    assert len(result.failures) == 3 and "ZeroDivisionError" in result.failures[0]


def test_vectorised_splitmix64_matches_scalar_reference():
    for seed in (0, 1, 2**64 - 1, 123456789):
        assert reference.splitmix64_words(seed, 50).tolist() == reference.splitmix64_scalar(seed, 50)


@pytest.mark.parametrize(
    "name, calls",
    [("audit", 4), ("sampling", 4), ("spectral", len(workloads.Spectral.cycle)), ("cli", 3)],
)
def test_smoke_run_of_each_workload(name, calls):
    w = workloads.make(name, seed=5)
    result = child.run_calls(w, 0.0, calls)
    assert len(result.latencies) == calls
    assert result.failures + w.finish() == []


def test_smoke_traced_run():
    w = workloads.make("sampling", seed=5)
    w.trace_calls = 2
    report = child.traced(w, seed=5)
    assert report["failed"] == 0, report["failures"]
    assert set(report["metrics"]) == {m[0] for m in PER_LAYER}
    for name, value in report["metrics"].items():
        assert value > 0, name


def test_runner_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
