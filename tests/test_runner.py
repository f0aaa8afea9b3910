import math
import os
import time

import pytest

import adaptidx.lazy as lazy
from adaptidx.execution import JobSpec, Predicate
from adaptidx.indexer import EAGER, OFFER_RATE, SELECTIVITY, OfferPolicy
from adaptidx.registry import ReplicaKind
from adaptidx.policy import Calibration
from adaptidx.runner import CALIBRATION_FILE, CSV_COLUMNS, WorkloadRunner, write_reports
from adaptidx.workloads import gen_synthetic

from conftest import make_cluster


def seq_job(j, rho, attr="b", proj=("a", "b"), collect=False, mode=OFFER_RATE):
    lo = 0.01 * j
    return JobSpec(
        job_id=f"job{j}",
        predicate=Predicate(attr, lo, lo + 0.005),
        projection=proj,
        policy=OfferPolicy(mode=mode, rho=rho),
        collect_output=collect,
    )


@pytest.mark.parametrize("rho,expected_jobs", [(0.25, 4), (0.5, 2), (1.0, 1)])
def test_constant_rate_convergence_count(tmp_path, rho, expected_jobs):
    cluster = make_cluster(tmp_path / "c", nodes=4, slots=1, replication=2, block_records=500)
    cluster.upload_dataset(gen_synthetic(10_000, seed=13))  # 20 blocks
    runner = WorkloadRunner(cluster)
    converged_at = None
    for j in range(1, 8):
        metrics = runner.run_job(seq_job(j, rho)).metrics
        assert not metrics.failed, metrics.error
        expected_indexed = min(math.ceil(rho * 20) * j, 20)
        assert metrics.blocks_indexed_after == expected_indexed
        if metrics.blocks_indexed_after == 20 and converged_at is None:
            converged_at = j
    assert converged_at == expected_jobs == math.ceil(1 / rho)
    cluster.close()


def test_prediction_tracks_simulation(tmp_path):
    cluster = make_cluster(
        tmp_path / "c", nodes=5, slots=2, replication=2, block_records=500,
        per_byte_cost=1e-6, per_block_index_cost=0.01,
    )
    cluster.upload_dataset(gen_synthetic(20_000, seed=17))  # 40 blocks, 10 slots
    runner = WorkloadRunner(cluster)
    for j in range(1, 6):
        metrics = runner.run_job(seq_job(j, 0.25, proj=cluster.registry.schema.names)).metrics
        assert not metrics.failed
        assert metrics.predicted_seconds is not None
        tolerance = runner.calibration.t_idx_overhead or 0.01
        assert abs(metrics.predicted_seconds - metrics.simulated_seconds) <= tolerance + 1e-9
    cluster.close()


def test_eager_first_job_uses_initial_rate_and_sets_target(tmp_path):
    cluster = make_cluster(tmp_path / "c", nodes=4, slots=1, replication=2, block_records=500)
    cluster.upload_dataset(gen_synthetic(8_000, seed=19))  # 16 blocks
    runner = WorkloadRunner(cluster)
    metrics = runner.run_job(seq_job(1, 0.25, mode=EAGER)).metrics
    assert metrics.mode == EAGER
    assert metrics.rho_used == 0.25
    assert runner.calibration.t_target == pytest.approx(metrics.simulated_seconds)
    assert runner.calibration.usable
    metrics2 = runner.run_job(seq_job(2, 0.25, mode=EAGER)).metrics
    assert metrics2.rho_used >= 0.25  # savings reinvested
    cluster.close()


def test_eager_fallback_warns_without_calibration(tmp_path):
    cluster = make_cluster(tmp_path / "c", nodes=2, slots=1, replication=1, block_records=500)
    cluster.upload_dataset(gen_synthetic(2_000, seed=23))
    runner = WorkloadRunner(cluster)
    # rho=0 on the first job: nothing indexed, so t_idx_overhead never calibrates
    first = runner.run_job(seq_job(1, 0.0, mode=EAGER)).metrics
    assert first.rho_used == 0.0 and not first.warnings
    second = runner.run_job(seq_job(2, 0.0, mode=EAGER)).metrics
    assert second.warnings and "calibration" in second.warnings[0]
    cluster.close()


def test_user_overrides_feed_the_model(tmp_path):
    cluster = make_cluster(tmp_path / "c", nodes=2, slots=1, replication=1, block_records=500)
    cluster.upload_dataset(gen_synthetic(2_000, seed=29))
    runner = WorkloadRunner(cluster)
    runner.apply_policy_overrides(t_fsw=1.0, t_idx_overhead=0.5, target_seconds=3.0)
    assert runner.calibration.usable
    metrics = runner.run_job(seq_job(1, 0.1, mode=EAGER)).metrics
    # model-driven from the very first job: budget = 3 - T_is - 2*1.0
    assert metrics.rho_used == pytest.approx(
        min(max((3.0 - metrics.t_is_seconds - 2.0) / (0.5 * 2), 0.0), 1.0)
    )
    cluster.close()


def test_fully_indexed_dataset_offers_nothing(tmp_path):
    cluster = make_cluster(tmp_path / "c", nodes=3, slots=1, replication=2, block_records=500)
    cluster.upload_dataset(gen_synthetic(3_000, seed=31), ["b"])
    runner = WorkloadRunner(cluster)
    metrics = runner.run_job(seq_job(1, 1.0)).metrics
    assert metrics.full_scan_tasks == 0
    assert metrics.blocks_offered == 0
    assert metrics.blocks_indexed_before == metrics.blocks_total
    cluster.close()


def test_selectivity_sequence_indexes_matching_blocks_only(tmp_path):
    cluster = make_cluster(tmp_path / "c", nodes=3, slots=1, replication=2, block_records=500)
    cluster.upload_dataset(gen_synthetic(6_000, seed=37))
    runner = WorkloadRunner(cluster)
    # value 10 covers ~90% of rows -> above the 0.8 threshold everywhere
    job = JobSpec(
        "hi",
        Predicate("a", 10, 10),
        ("a",),
        policy=OfferPolicy(mode=SELECTIVITY, selectivity_threshold=0.8),
    )
    metrics = runner.run_job(job).metrics
    assert metrics.mode == SELECTIVITY
    assert metrics.rho_used is None
    assert metrics.blocks_offered == metrics.blocks_total
    assert metrics.blocks_indexed_after == metrics.blocks_total

    cluster2 = make_cluster(tmp_path / "c2", nodes=3, slots=1, replication=2, block_records=500)
    cluster2.upload_dataset(gen_synthetic(6_000, seed=37))
    runner2 = WorkloadRunner(cluster2)
    # ~10% qualify -> rejected by selectivity everywhere
    job2 = JobSpec(
        "lo",
        Predicate("a", 1, 9),
        ("a",),
        policy=OfferPolicy(mode=SELECTIVITY, selectivity_threshold=0.8),
    )
    metrics2 = runner2.run_job(job2).metrics
    assert metrics2.blocks_offered == 0
    assert metrics2.blocks_indexed_after == 0
    cluster.close()
    cluster2.close()


def test_report_files_round_trip(tmp_path):
    cluster = make_cluster(tmp_path / "c", nodes=2, slots=1, replication=1, block_records=500)
    cluster.upload_dataset(gen_synthetic(2_000, seed=41))
    runner = WorkloadRunner(cluster)
    rows = [runner.run_job(seq_job(j, 0.5)).metrics for j in (1, 2)]
    csv_path, json_path = write_reports(rows, tmp_path / "out" / "report")
    text = csv_path.read_text().splitlines()
    assert text[0] == ",".join(CSV_COLUMNS)
    assert len(text) == 3
    import json as json_mod

    data = json_mod.loads(json_path.read_text())
    assert [r["job_id"] for r in data["jobs"]] == ["job1", "job2"]
    cluster.close()


def test_a_job_whose_index_scan_fails_lands_its_hand_offs_before_returning(
    tmp_path, monkeypatch
):
    # Job 2's index scans hand lazy completions to the indexers until a split
    # fails on a deleted replica. The next job plans from the registry, so
    # run_job must wait for those completions on the failure path too.
    cluster = make_cluster(
        tmp_path / "c", nodes=3, slots=1, replication=2, block_records=500,
        projection_mode="lazy",
    )
    cluster.upload_dataset(gen_synthetic(6000, seed=3))
    runner = WorkloadRunner(cluster)
    job1 = JobSpec("j1", Predicate("b", 0.2, 0.6), ("b",), policy=OfferPolicy(rho=1.0))
    assert not runner.run_job(job1).metrics.failed

    last_node = max(cluster.node_ids())
    victim = min(
        info.path
        for _, info in cluster.registry.iter_replicas()
        if info.kind == ReplicaKind.PARTIAL_PSEUDO and info.node_id == last_node
    )
    os.unlink(victim)
    landed = []
    original = lazy.append_aligned_columns

    def slowed(*args):
        time.sleep(0.05)
        landed.append(original(*args))
        return landed[-1]

    monkeypatch.setattr(lazy, "append_aligned_columns", slowed)
    before = sum(indexer.stats.enqueued for indexer in cluster.indexers.values())
    job2 = JobSpec("j2", Predicate("b", 0.2, 0.6), ("b", "c"), policy=OfferPolicy(rho=1.0))
    metrics = runner.run_job(job2).metrics
    handed = sum(indexer.stats.enqueued for indexer in cluster.indexers.values()) - before
    try:
        assert metrics.failed
        assert handed > 0
        assert len(landed) == handed and all(landed)
    finally:
        cluster.close()


def _count_calibration_saves(monkeypatch) -> list:
    saved = []
    original = Calibration.save

    def counting(self, path):
        saved.append((self.t_fsw, self.t_idx_overhead, self.t_target))
        original(self, path)

    monkeypatch.setattr(Calibration, "save", counting)
    return saved


def test_calibration_is_written_only_when_it_changes(tmp_path, monkeypatch):
    saved = _count_calibration_saves(monkeypatch)
    cluster = make_cluster(tmp_path / "c", nodes=4, slots=1, replication=2, block_records=500)
    cluster.upload_dataset(gen_synthetic(8_000, seed=19))  # 16 blocks
    runner = WorkloadRunner(cluster)
    for j in range(1, 4):
        assert not runner.run_job(seq_job(j, 0.25)).metrics.failed
    assert runner.calibration.usable
    assert len(saved) == 1  # the first job fills every field; later jobs change none

    # A reopened runner starts from the file and writes nothing new.
    again = WorkloadRunner(cluster)
    assert again.calibration == runner.calibration
    assert not again.run_job(seq_job(4, 0.25)).metrics.failed
    assert len(saved) == 1
    cluster.close()


def test_policy_overrides_are_still_persisted(tmp_path, monkeypatch):
    saved = _count_calibration_saves(monkeypatch)
    cluster = make_cluster(tmp_path / "c", nodes=4, slots=1, replication=2, block_records=500)
    cluster.upload_dataset(gen_synthetic(8_000, seed=19))
    runner = WorkloadRunner(cluster)
    assert not runner.run_job(seq_job(1, 0.25)).metrics.failed
    runner.apply_policy_overrides(t_fsw=1.0, t_idx_overhead=0.5, target_seconds=3.0)
    assert not runner.run_job(seq_job(2, 0.25)).metrics.failed
    assert not runner.run_job(seq_job(3, 0.25)).metrics.failed
    assert saved[1:] == [(1.0, 0.5, 3.0)]
    on_disk = Calibration.load(tmp_path / "c" / CALIBRATION_FILE)
    assert (on_disk.t_fsw, on_disk.t_idx_overhead, on_disk.t_target) == (1.0, 0.5, 3.0)
    cluster.close()
