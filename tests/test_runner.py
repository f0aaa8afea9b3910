import json
import math
import os
import re
import time

import pytest

import adaptidx.lazy as lazy
import adaptidx.runner as runner_module
from adaptidx.blockfile import read_header
from adaptidx.cluster import Cluster
from adaptidx.errors import AdaptidxError, ConfigError
from adaptidx.execution import JobSpec, Predicate
from adaptidx.indexer import EAGER, OFFER_RATE, SELECTIVITY, OfferPolicy
from adaptidx.registry import ReplicaKind
from adaptidx.policy import Calibration
from adaptidx.runner import CALIBRATION_FILE, CSV_COLUMNS, JobMetrics, WorkloadRunner, write_reports
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


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(t_fsw=math.inf), "policy 't_fsw' must be finite, got inf"),
        (dict(t_fsw=True), "policy 't_fsw' must be non-negative, got True"),
        (dict(t_idx_overhead=math.inf), "policy 't_idx_overhead' must be finite, got inf"),
        (dict(target_seconds=False), "policy 'target_seconds' must be non-negative, got False"),
        (dict(t_fsw=1.0, t_idx_overhead="0.5"),
         "policy 't_idx_overhead' must be non-negative, got '0.5'"),
    ],
)
def test_an_override_calibration_json_would_refuse_is_refused(tmp_path, overrides, message):
    # An infinite t_fsw was once saved as Infinity before the job raised, and
    # a bool as true; either way no later runner could read calibration.json.
    cluster = make_cluster(tmp_path / "c", nodes=3, replication=2, block_records=500)
    cluster.upload_dataset(gen_synthetic(4000, seed=5))
    runner = WorkloadRunner(cluster)
    with pytest.raises(ConfigError, match=re.escape(message)):
        runner.apply_policy_overrides(**overrides)
    assert runner.calibration == Calibration()
    assert not runner.run_job(seq_job(1, 0.5)).metrics.failed
    assert Calibration.load(tmp_path / "c" / CALIBRATION_FILE) == runner.calibration
    assert WorkloadRunner(cluster).calibration == runner.calibration
    cluster.close()


def test_calibration_divides_the_scan_time_by_the_full_scan_waves(tmp_path):
    cluster = make_cluster(tmp_path / "c", nodes=3, slots=2, replication=2, block_records=500)
    cluster.upload_dataset(gen_synthetic(8_000, seed=23))  # 16 blocks
    assert not WorkloadRunner(cluster).run_job(seq_job(1, 0.5)).metrics.failed
    (tmp_path / "c" / CALIBRATION_FILE).unlink()  # calibrate again, on a partly indexed dataset
    runner = WorkloadRunner(cluster)
    m = runner.run_job(seq_job(2, 0.25)).metrics
    assert not m.failed and m.index_scan_tasks > 0
    assert m.full_scan_tasks == m.blocks_total - m.blocks_indexed_before == 8
    config = cluster.config
    t_overhead = m.blocks_offered * config.per_block_index_cost / config.n_slots
    t_scan = m.simulated_seconds - m.t_is_seconds - t_overhead
    assert runner.calibration.t_fsw == pytest.approx(
        t_scan / math.ceil(m.full_scan_tasks / config.n_slots)  # 2 waves of 6 slots
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


def test_a_dotted_report_prefix_is_kept_whole(tmp_path):
    # r.2 once wrote r.csv and r.json, over the reports of r.1.
    rows = [JobMetrics("job1", "b", OFFER_RATE)]
    for prefix in ("r.1", "r.2"):
        paths = write_reports(rows, tmp_path / prefix)
        assert [p.name for p in paths] == [f"{prefix}.csv", f"{prefix}.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "r.1.csv", "r.1.json", "r.2.csv", "r.2.json",
    ]


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


def test_a_job_plans_only_when_the_registry_has_changed(tmp_path, monkeypatch):
    plans = []
    original = runner_module.plan_job

    def counting(job, registry, **kwargs):
        plans.append(job.job_id)
        return original(job, registry, **kwargs)

    monkeypatch.setattr(runner_module, "plan_job", counting)
    cluster = make_cluster(tmp_path / "c", nodes=4, slots=1, replication=2, block_records=500)
    cluster.upload_dataset(gen_synthetic(8_000, seed=43), ["b"])  # 16 blocks, indexed on b
    registry = cluster.registry
    runner = WorkloadRunner(cluster)
    warm = [runner.run_job(seq_job(j, 0.5)).metrics for j in range(1, 6)]
    assert plans == ["job1"]
    assert all(m.index_scan_tasks and not m.full_scan_tasks and not m.failed for m in warm)
    # A reused plan reports what a freshly made one does.
    fresh = WorkloadRunner(cluster).run_job(seq_job(5, 0.5)).metrics
    assert plans == ["job1", "job5"] and fresh.row() == warm[-1].row()

    runner.run_job(seq_job(6, 0.0, attr="c"))  # another attribute
    runner.run_job(seq_job(7, 0.0, attr="c"))  # nothing changed since job6
    assert plans[2:] == ["job6"]
    version = registry.version
    indexing = runner.run_job(seq_job(8, 0.5, attr="c")).metrics
    assert plans[2:] == ["job6"] and indexing.blocks_indexed_after == 8
    assert registry.version == version + 8  # one per replica the drain registered
    runner.run_job(seq_job(9, 0.0, attr="c"))
    assert plans[2:] == ["job6", "job9"]

    # Registering a replica again without widening it changes nothing.
    block_id, info = next((b, r) for b, r in registry.iter_replicas() if r.indexed_attribute == "c")
    registry.register_index(block_id, info)
    assert registry.version == version + 8
    runner.run_job(seq_job(10, 0.0, attr="c"))
    assert plans[2:] == ["job6", "job9"]
    cluster.close()

    reopened = Cluster.open(tmp_path / "c")
    assert not WorkloadRunner(reopened).run_job(seq_job(11, 0.0, attr="c")).metrics.failed
    assert plans[2:] == ["job6", "job9", "job11"]
    reopened.close()


def test_a_job_whose_index_scan_fails_still_reports_its_indexed_blocks_and_index_scan_time(
    tmp_path,
):
    cluster = make_cluster(tmp_path / "c", nodes=3, replication=2, block_records=500, page_size=64)
    cluster.upload_dataset(gen_synthetic(4000, seed=5), ["b"])
    info = cluster.registry.find_index(3, "b")
    with open(info.path, "rb", buffering=0) as f:
        header = read_header(f)
    os.truncate(info.path, header.column_offsets["c"] + 8)  # inside column c
    runner = WorkloadRunner(cluster)
    job = JobSpec("cut", Predicate("b", 0.0, 1.0), ("c",), policy=OfferPolicy(rho=1.0))
    outcome = runner.run_job(job)
    metrics = outcome.metrics
    try:
        assert metrics.failed and "truncated block file" in metrics.error
        assert metrics.full_scan_tasks == 0 and metrics.blocks_offered == 0
        assert metrics.blocks_indexed_after == cluster.registry.indexed_block_count("b") == 8
        assert metrics.t_is_seconds > 0
        assert metrics.simulated_seconds == metrics.t_is_seconds
        assert metrics.bytes_read == sum(r.bytes_read for r in outcome.results) > 0
        assert metrics.predicted_seconds is None
        assert not (tmp_path / "c" / CALIBRATION_FILE).exists()  # a failed job does not calibrate
    finally:
        cluster.close()


def test_a_subnormal_rate_calibrates_from_the_block_it_offered(tmp_path):
    # ceil(1e-320 * 40) offers one block; the model's rate is 1/40, not 1e-320,
    # whose wave count would divide the overhead into inf.
    cluster = make_cluster(tmp_path / "c", nodes=3, replication=2, block_records=100)
    cluster.upload_dataset(gen_synthetic(4000, seed=5))  # 40 blocks
    runner = WorkloadRunner(cluster)
    for j, rho in [(1, 1e-320), (2, 0.3)]:
        metrics = runner.run_job(seq_job(j, rho)).metrics
        assert not metrics.failed, metrics.error
    cluster.close()
    saved = json.loads((tmp_path / "c" / CALIBRATION_FILE).read_text())
    assert all(math.isfinite(value) for value in saved.values())
    reopened = Cluster.open(tmp_path / "c")
    try:
        assert WorkloadRunner(reopened).calibration.usable
    finally:
        reopened.close()


def test_a_rate_rounded_up_to_a_block_calibrates_the_configured_index_cost(tmp_path):
    # rho 0.001 offers ceil(0.4) = 1 of 400 blocks: 1/20 of a wave on 20 slots,
    # which the model counts as 0.001 * 20 = 0.02 waves at that rate.
    cluster = make_cluster(tmp_path / "c", nodes=20, slots=1, replication=1, block_records=100)
    cluster.upload_dataset(gen_synthetic(40_000, seed=5))  # 400 blocks
    runner, every = WorkloadRunner(cluster), cluster.registry.schema.names
    first = runner.run_job(seq_job(1, 0.001, proj=every)).metrics
    assert not first.failed and first.blocks_offered == 1
    assert runner.calibration.t_idx_overhead == pytest.approx(0.05)
    second = runner.run_job(seq_job(2, 0.3, proj=every)).metrics
    assert not second.failed and second.blocks_offered == 120
    assert second.predicted_seconds == pytest.approx(second.simulated_seconds)
    cluster.close()


def test_an_overhead_that_overflows_stays_unset_and_the_job_returns(tmp_path):
    cluster = make_cluster(tmp_path / "c", nodes=1, slots=1, replication=1, block_records=500,
                           per_block_index_cost=1e308)
    cluster.upload_dataset(gen_synthetic(4000, seed=5))  # 8 blocks
    runner = WorkloadRunner(cluster)
    metrics = runner.run_job(seq_job(1, 0.5)).metrics
    assert not metrics.failed and metrics.blocks_offered == 4
    assert metrics.simulated_seconds == math.inf and metrics.predicted_seconds is None
    cal = runner.calibration
    assert cal.t_fsw > 0 and cal.t_idx_overhead is None and cal.t_target is None
    assert Calibration.load(tmp_path / "c" / CALIBRATION_FILE) == cal
    cluster.close()

    reopened = Cluster.open(tmp_path / "c")
    try:
        again = WorkloadRunner(reopened)
        assert again.calibration == cal
        assert not again.run_job(seq_job(2, 0.5)).metrics.failed
    finally:
        reopened.close()


def test_a_selectivity_job_calibrates_at_the_fraction_it_offered(tmp_path):
    # Both jobs offer all 12 blocks, so they cost the same and measure the
    # same per-wave indexing overhead; selectivity mode has no rate of its
    # own, and its policy's rho (0.1 by default) must not enter the model.
    metrics, overheads = [], []
    for name, policy in [
        ("selectivity", OfferPolicy(mode=SELECTIVITY, selectivity_threshold=0.5)),
        ("constant", OfferPolicy(rho=1.0)),
    ]:
        cluster = make_cluster(tmp_path / name, nodes=3, slots=1, replication=2,
                               block_records=500, per_block_index_cost=0.05)
        cluster.upload_dataset(gen_synthetic(6_000, seed=37))  # 12 blocks
        runner = WorkloadRunner(cluster)
        job = JobSpec(name, Predicate("a", 10, 10), ("a",), policy=policy)
        metrics.append(runner.run_job(job).metrics)
        overheads.append(Calibration.load(tmp_path / name / CALIBRATION_FILE).t_idx_overhead)
        cluster.close()
    selective, constant = metrics
    assert not selective.failed and not constant.failed
    assert selective.blocks_offered == constant.blocks_offered == selective.blocks_total == 12
    assert selective.rho_used is None and constant.rho_used == 1.0
    assert overheads[0] == overheads[1] == pytest.approx(12 * 0.05 / 3 / 4)
    assert selective.predicted_seconds == pytest.approx(constant.predicted_seconds)


def test_a_runner_needs_an_uploaded_dataset(tmp_path):
    cluster = make_cluster(tmp_path / "c")
    with pytest.raises(AdaptidxError, match="cluster has no dataset; upload one first"):
        WorkloadRunner(cluster)
    cluster.close()
