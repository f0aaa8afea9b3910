"""Smoke tests for the benchmark itself, in its tiny size.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
from spans import Tracer, covered, interval_union, overlap  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = result_of(run_bench(workload, 0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = result_of(run_bench("cold_converge", 1))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    # The planner asks for the pseudo count of every replica of every
    # unindexed block, and replication is 3.
    assert metrics["registry.pseudo_count.calls"] == 3 * metrics["execution.full_scan.tasks"]
    assert metrics["indexer.written"] == metrics["indexer.build_index.calls"]
    assert metrics["trace.overhead_ratio"] > 0


def test_traced_lazy_run_rewrites_partial_replicas():
    metrics = result_of(run_bench("lazy_uservisits", 1))["metrics"]
    assert metrics["lazy.append_aligned_columns.calls"]["value"] > 0
    assert metrics["lazy.bytes_rewritten"]["value"] > 0


def test_fails_without_the_engine_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("cold_converge", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_layer_map_covers_every_per_layer_metric():
    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    assert set(layer_map) == {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]} | {"job_fail_ratio"}
    for name, entry in layer_map.items():
        assert entry["moves"] in e2e, name
        assert set(entry["on"]) | set(entry["flat_on"]) <= set(WORKLOADS), name


def test_uninstall_restores_every_wrapped_function():
    import adaptidx.cluster as cluster
    import adaptidx.runner as runner
    from adaptidx.registry import ReplicaRegistry

    before = (runner.plan_job, cluster.record_reader_scan, vars(ReplicaRegistry)["find_index"])
    tracer = Tracer()
    tracer.install()
    assert runner.plan_job is not before[0]
    tracer.uninstall()
    after = (runner.plan_job, cluster.record_reader_scan, vars(ReplicaRegistry)["find_index"])
    assert after == before


def test_busy_and_self_time_are_interval_unions():
    assert interval_union([(3, 4), (0, 2), (1, 3)]) == [(0, 4)]
    assert covered([(0, 1), (2, 4)]) == 3
    assert overlap([(0, 4)], [(1, 2), (3, 6)]) == 2
    tracer = Tracer()
    # A parent span [0, 10] with two overlapping children on other threads.
    tracer.spans = [
        (1, None, "p", 0.0, 10.0, "j", 1, 0),
        (2, 1, "c", 2.0, 5.0, "j", 2, 0),
        (3, 1, "c", 4.0, 6.0, "j", 3, 0),
    ]
    summary = tracer.summary()
    assert summary["p"]["self_s"] == 6.0
    assert summary["c"]["busy_s"] == 4.0 and summary["c"]["thread_s"] == 5.0



def test_gauge_factors_rescale_to_the_reference_host(tmp_path):
    from gauge import SINGLE_REFERENCE_S, THREADED_REFERENCE_S, Gauge

    gauge = Gauge(tmp_path)
    gauge.sample(3)
    assert len(gauge.single) == len(gauge.threaded) == 3
    assert min(gauge.single + gauge.threaded) > 0
    # A host on which single-threaded work is half as fast as the reference
    # and threaded work a quarter.
    gauge.single = [2 * SINGLE_REFERENCE_S] * 3
    gauge.threaded = [4 * THREADED_REFERENCE_S] * 3
    assert gauge.single_factor() == 0.5
    assert gauge.job_factor() == pytest.approx(0.5**1.5)
