import pytest

from adaptidx.cluster import Cluster, ClusterConfig
from adaptidx.errors import ConfigError
from adaptidx.execution import JobSpec, Predicate, ScanKind
from adaptidx.indexer import OfferPolicy
from adaptidx.registry import ReplicaKind
from adaptidx.scheduler import plan_job
from adaptidx.workloads import gen_synthetic

from conftest import make_cluster


def test_replication_needs_enough_nodes():
    with pytest.raises(ConfigError):
        ClusterConfig(node_count=2, replication_factor=3)


def test_upload_places_replicas_on_distinct_nodes(tmp_path):
    cluster = make_cluster(tmp_path / "c", nodes=4, replication=3, block_records=1000)
    registry = cluster.upload_dataset(gen_synthetic(10_000, seed=1))
    assert registry.block_count == 10
    normal_total = 0
    for block_id in registry.block_ids:
        normals = registry.normal_replicas(block_id)
        assert len(normals) == 3
        assert len({r.node_id for r in normals}) == 3
        normal_total += len(normals)
    assert normal_total == 30
    cluster.close()


def test_upload_time_indexes_cover_every_block(tmp_path):
    cluster = make_cluster(tmp_path / "c", nodes=4, replication=3, block_records=1000)
    registry = cluster.upload_dataset(gen_synthetic(5_000, seed=2), ["a", "b", "c"])
    for block_id in registry.block_ids:
        for attr in ("a", "b", "c"):
            hit = registry.find_index(block_id, attr)
            assert hit is not None and hit.kind == ReplicaKind.NORMAL
        assert registry.find_index(block_id, "d") is None
    cluster.close()


def test_upload_without_index_attributes(tmp_path):
    cluster = make_cluster(tmp_path / "c", nodes=3, replication=2, block_records=1000)
    registry = cluster.upload_dataset(gen_synthetic(3_000, seed=3))
    for block_id in registry.block_ids:
        for attr in registry.schema.names:
            assert registry.find_index(block_id, attr) is None
    cluster.close()


def test_upload_rejects_too_many_index_attributes(tmp_path):
    cluster = make_cluster(tmp_path / "c", nodes=3, replication=2)
    with pytest.raises(ConfigError):
        cluster.upload_dataset(gen_synthetic(1_000, seed=1), ["a", "b", "c"])
    cluster.close()


def test_block_bytes_budget_overrides_record_count(tmp_path):
    cluster = make_cluster(tmp_path / "c", nodes=2, replication=1, block_bytes=4800)
    registry = cluster.upload_dataset(gen_synthetic(1_000, seed=4))
    # 4800 bytes / 48-byte rows = 100 records per block
    assert registry.block_count == 10
    assert registry.record_count(0) == 100
    cluster.close()


def test_wave_counting_balanced_tasks(tmp_path):
    # 100 single-block tasks over 10 slots -> 10 waves
    cluster = make_cluster(
        tmp_path / "c", nodes=5, slots=2, replication=2, block_records=100
    )
    cluster.upload_dataset(gen_synthetic(10_000, seed=5))
    job = JobSpec("w", Predicate("a", 1, 10), ("a",), policy=OfferPolicy(rho=0.0))
    assignments = plan_job(job, cluster.registry)
    assert len(assignments) == 100
    results = cluster.run_wave(assignments, job)
    assert len({r.wave_index for r in results}) == 10
    cluster.close()


def test_wave_zero_tasks(small_cluster):
    job = JobSpec("w", Predicate("a", 1, 10), ("a",), policy=OfferPolicy(rho=0.0))
    assert small_cluster.run_wave([], job) == []


def test_mixed_phase_wave_counts_recomputable(tmp_path):
    import math

    from adaptidx.runner import WorkloadRunner

    cluster = make_cluster(tmp_path / "c", nodes=5, slots=2, replication=2, block_records=500)
    cluster.upload_dataset(gen_synthetic(20_000, seed=9))  # 40 blocks, 10 slots
    runner = WorkloadRunner(cluster)
    warm = JobSpec("w", Predicate("b", 0.0, 0.01), ("b",), policy=OfferPolicy(rho=0.5))
    runner.run_job(warm)

    job = JobSpec("m", Predicate("b", 0.5, 0.52), ("b",), policy=OfferPolicy(rho=0.0))
    assignments = plan_job(job, cluster.registry)
    index_assignments = [a for a in assignments if a.split.scan_kind == ScanKind.INDEX_SCAN]
    full_assignments = [a for a in assignments if a.split.scan_kind == ScanKind.FULL_SCAN]
    assert index_assignments and full_assignments

    n_slots = cluster.config.n_slots
    index_results = cluster.run_wave(index_assignments, job)
    full_results = cluster.run_wave(full_assignments, job)
    assert len({r.wave_index for r in index_results}) == math.ceil(
        len(index_assignments) / n_slots
    )
    assert len({r.wave_index for r in full_results}) == math.ceil(
        len(full_assignments) / n_slots
    )
    cluster.close()


def test_full_scan_conservation(small_cluster):
    job = JobSpec("w", Predicate("a", 3, 9), ("a",), policy=OfferPolicy(rho=0.0))
    assignments = plan_job(job, small_cluster.registry)
    results = small_cluster.run_wave(assignments, job)
    full = [r for r in results if r.scan_kind == ScanKind.FULL_SCAN]
    assert sum(r.records_read for r in full) == small_cluster.registry.total_records


def test_task_failure_is_reported_not_raised(tmp_path):
    cluster = make_cluster(tmp_path / "c", nodes=2, replication=1, block_records=1000)
    cluster.upload_dataset(gen_synthetic(2_000, seed=6))
    job = JobSpec("f", Predicate("a", 1, 10), ("a",), policy=OfferPolicy(rho=0.0))
    assignments = plan_job(job, cluster.registry)
    victim = assignments[0].split.blocks[0].replica
    import os

    os.unlink(victim.path)
    results = cluster.run_wave(assignments, job)
    failed = [r for r in results if r.failed]
    assert len(failed) == 1
    assert "FileNotFoundError" in failed[0].error
    cluster.close()


def test_reopen_cluster_replays_registry(tmp_path):
    root = tmp_path / "c"
    cluster = make_cluster(root, nodes=3, replication=2, block_records=1000)
    cluster.upload_dataset(gen_synthetic(4_000, seed=7), ["a"])
    ids = cluster.registry.block_ids
    cluster.close()

    again = Cluster.open(root)
    assert again.registry is not None
    assert again.registry.block_ids == ids
    assert again.registry.find_index(0, "a") is not None
    assert again.config.node_count == 3
    again.close()


def test_pseudo_counts_match_indexed_blocks(tmp_path):
    cluster = make_cluster(tmp_path / "c", nodes=3, replication=2, block_records=1000)
    cluster.upload_dataset(gen_synthetic(3_000, seed=8))
    from adaptidx.runner import WorkloadRunner

    runner = WorkloadRunner(cluster)
    job = JobSpec("n", Predicate("b", 0.0, 0.1), ("b",), policy=OfferPolicy(rho=1.0))
    outcome = runner.run_job(job)
    registry = cluster.registry
    for node in cluster.node_ids():
        on_node = [
            r for _, r in registry.iter_replicas()
            if r.node_id == node and r.kind != ReplicaKind.NORMAL and r.indexed_attribute == "b"
        ]
        assert len(on_node) == registry.pseudo_count(node, "b")
    total = sum(registry.pseudo_count(node, "b") for node in cluster.node_ids())
    assert total == outcome.metrics.blocks_indexed_after == registry.block_count
    cluster.close()
