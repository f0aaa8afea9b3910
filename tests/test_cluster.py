import json
import os
import threading
import time
from dataclasses import replace

import pytest

from adaptidx.blockfile import read_header
from adaptidx.cluster import CLUSTER_CONFIG, REGISTRY_JOURNAL, Cluster, ClusterConfig
import adaptidx.indexer as indexer_module
from adaptidx.errors import ConfigError, RegistryError
from adaptidx.execution import JobSpec, Predicate, ScanKind
from adaptidx.indexer import OfferPolicy
from adaptidx.registry import ReplicaKind, ReplicaRegistry
from adaptidx.runner import WorkloadRunner
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


def test_run_wave_runs_every_task_on_the_calling_thread(tmp_path):
    cluster = make_cluster(tmp_path / "c", nodes=5, slots=2, replication=2, block_records=100)
    cluster.upload_dataset(gen_synthetic(2_500, seed=5))
    seen_threads, seen_counts = set(), set()

    def map_fn(record):
        seen_threads.add(threading.get_ident())
        seen_counts.add(threading.active_count())
        return record

    job = JobSpec("t", Predicate("a", 10, 10), ("a",), map_fn=map_fn,
                  policy=OfferPolicy(rho=0.0), collect_output=False)
    assignments = plan_job(job, cluster.registry)
    before = threading.active_count()
    results = cluster.run_wave(assignments, job)
    assert not any(r.failed for r in results)
    assert seen_threads == {threading.get_ident()}
    assert seen_counts == {before} and threading.active_count() == before
    cluster.close()


def test_wave_index_is_plan_position_over_slots(tmp_path):
    cluster = make_cluster(tmp_path / "c", nodes=5, slots=2, replication=2, block_records=100)
    cluster.upload_dataset(gen_synthetic(2_500, seed=5))  # 25 blocks, 10 slots
    job = JobSpec("w", Predicate("a", 1, 10), ("a",), policy=OfferPolicy(rho=0.0))
    assignments = plan_job(job, cluster.registry)
    assert len(assignments) == 25
    results = cluster.run_wave(assignments, job)
    assert [r.wave_index for r in results] == [0] * 10 + [1] * 10 + [2] * 5
    assert [r.block_ids for r in results] == [
        tuple(ref.block_id for ref in a.split.blocks) for a in assignments
    ]
    cluster.close()


def test_full_queues_and_a_slow_writer_do_not_deadlock_the_map_thread(tmp_path, monkeypatch):
    # A one-slot queue and a slowed write step: every offer waits for space
    # that only the node's indexer thread can free.
    original = indexer_module.write_pseudo_replica

    def slowed(*args):
        time.sleep(0.005)
        return original(*args)

    monkeypatch.setattr(indexer_module, "write_pseudo_replica", slowed)
    monkeypatch.setattr(indexer_module, "QUEUE_CAPACITY", 1)
    cluster = make_cluster(tmp_path / "c", nodes=3, slots=2, replication=2, block_records=100)
    cluster.upload_dataset(gen_synthetic(4_000, seed=12))  # 40 blocks
    job = JobSpec("d", Predicate("b", 0.0, 0.1), ("b",), policy=OfferPolicy(rho=1.0))
    outcome = []
    worker = threading.Thread(target=lambda: outcome.append(WorkloadRunner(cluster).run_job(job)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "run_job did not finish: hand-off deadlocked"
    metrics = outcome[0].metrics
    assert not metrics.failed
    assert metrics.blocks_offered == metrics.blocks_enqueued == 40
    assert metrics.blocks_indexed_after == 40 == cluster.registry.indexed_block_count("b")
    stats = [ix.stats for ix in cluster.indexers.values()]
    assert sum(s.rejected_full for s in stats) == 0
    assert sum(s.written for s in stats) == 40
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

    # A fresh Cluster on the same root refuses a second dataset.
    journal = (root / REGISTRY_JOURNAL).read_bytes()
    fresh = make_cluster(root, nodes=3, replication=2, block_records=1000)
    with pytest.raises(RegistryError, match="already holds a dataset"):
        fresh.upload_dataset(gen_synthetic(4_000, seed=7))
    fresh.close()
    assert (root / REGISTRY_JOURNAL).read_bytes() == journal


def test_pseudo_counts_match_indexed_blocks(tmp_path):
    cluster = make_cluster(tmp_path / "c", nodes=3, replication=2, block_records=1000)
    cluster.upload_dataset(gen_synthetic(3_000, seed=8))
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


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "cluster.json"
    path.write_text(json.dumps({"nodes": 3, "slots_per_nod": 3}))
    with pytest.raises(ConfigError, match="slots_per_nod"):
        ClusterConfig.from_file(path)


def test_retired_config_key_still_opens(tmp_path):
    root = tmp_path / "c"
    make_cluster(root, nodes=3, slots=2, replication=2).close()
    raw = json.loads((root / CLUSTER_CONFIG).read_text())
    capacities = {"build_queue_capacity": 4, "write_queue_capacity": 4}
    assert not capacities.keys() & raw.keys()
    for retired in ({"balance_total_index_counts": True}, capacities):
        (root / CLUSTER_CONFIG).write_text(json.dumps({**raw, **retired}))
        again = Cluster.open(root)
        assert again.config.node_count == 3 and again.config.slots_per_node == 2
        again.close()
        assert json.loads((root / CLUSTER_CONFIG).read_text()) == raw  # rewritten without them


def test_open_leaves_a_canonical_config_untouched(tmp_path):
    root = tmp_path / "c"
    make_cluster(root, nodes=3, slots=2, replication=2).close()
    path = root / CLUSTER_CONFIG
    os.utime(path, ns=(1_000_000_000, 1_000_000_000))  # any rewrite moves it
    before = path.read_bytes()
    Cluster.open(root).close()
    assert path.read_bytes() == before
    assert path.stat().st_mtime_ns == 1_000_000_000


def test_config_save_failure_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / CLUSTER_CONFIG
    ClusterConfig(node_count=3).save(path)
    before = path.read_bytes()

    def torn_dump(obj, f, **kwargs):
        f.write('{"node_count": 5')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", torn_dump)
    with pytest.raises(OSError):
        ClusterConfig(node_count=5).save(path)
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [CLUSTER_CONFIG]


def _counts(registry, nodes):
    pseudo = {n: registry.pseudo_count(n, "b") for n in nodes}
    return pseudo, registry.indexed_block_count("b")


def test_torn_journal_tail_is_dropped_on_open(tmp_path):
    root = tmp_path / "c"
    cluster = make_cluster(root, nodes=3, replication=2, block_records=1000)
    cluster.upload_dataset(gen_synthetic(4_000, seed=9))
    cluster.close()
    # A crash mid-append leaves half a register record with no newline.
    journal = root / REGISTRY_JOURNAL
    info = replace(cluster.registry.normal_replicas(0)[0], kind=ReplicaKind.PSEUDO,
                   indexed_attribute="b")
    record = {"event": "register", "block_id": 0, "replica": info.to_json()}
    with open(journal, "a") as f:
        f.write(json.dumps(record)[:50])

    cluster = Cluster.open(root)
    job = JobSpec("t", Predicate("b", 0.0, 0.1), ("b",), policy=OfferPolicy(rho=0.5))
    assert not WorkloadRunner(cluster).run_job(job).metrics.failed
    nodes = cluster.node_ids()
    live = _counts(cluster.registry, nodes)
    cluster.close()

    assert live[1] == 2  # half of the four blocks
    reopened = Cluster.open(root)
    assert _counts(reopened.registry, nodes) == live
    reopened.close()
    assert _counts(ReplicaRegistry.load(journal), nodes) == live
    assert journal.read_bytes().endswith(b"\n")


def _recount(root, nodes, attribute):
    """Adaptive replicas on `attribute` per node, counted from the files."""
    pattern = f"blk_*/{attribute}"
    return {n: len(list((root / f"node_{n}" / "pseudo").glob(pattern))) for n in nodes}


def _crash_before_journal(tmp_path, monkeypatch, mode, first, crashing):
    """Run `first` and then `crashing` on a new cluster in tmp_path/a and cut
    the journal back to its length before `crashing`: its replica files are
    on disk, their journal lines lost. Returns the cluster reopened from
    tmp_path/b. Replication 1, so every block's map task, and so every
    rebuild of its replicas, stays on one node."""
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    monkeypatch.chdir(tmp_path / "a")
    cluster = make_cluster(
        "cl", nodes=3, slots=1, replication=1, block_records=500, projection_mode=mode
    )
    cluster.upload_dataset(gen_synthetic(3_000, seed=5))
    runner = WorkloadRunner(cluster)
    for job in first:
        assert not runner.run_job(job).metrics.failed
    journal = tmp_path / "a" / "cl" / REGISTRY_JOURNAL
    before = journal.stat().st_size
    assert not runner.run_job(crashing).metrics.failed
    cluster.close()
    os.truncate(journal, before)
    monkeypatch.chdir(tmp_path / "b")
    return Cluster.open("../a/cl")


def _header(path):
    with open(path, "rb") as f:
        return read_header(f)


def _assert_registry_matches_files(cluster):
    registry = cluster.registry
    root = cluster.root
    nodes = cluster.node_ids()
    recount = _recount(root, nodes, "b")
    assert {n: registry.pseudo_count(n, "b") for n in nodes} == recount
    assert sum(recount.values()) == registry.indexed_block_count("b") == registry.block_count
    for _, info in registry.iter_replicas():
        if info.kind != ReplicaKind.NORMAL:
            assert info.available_attributes == set(_header(info.path).schema.names)
    replayed = ReplicaRegistry.load(root / REGISTRY_JOURNAL)
    assert {n: replayed.pseudo_count(n, "b") for n in nodes} == recount


def test_a_crash_between_publish_and_journal_line_is_repaired_by_adoption(
    tmp_path, monkeypatch
):
    # Without adoption every later publish of an orphan would lose and its
    # block would never be indexed.
    job = JobSpec("j1", Predicate("b", 0.2, 0.6), ("b",), policy=OfferPolicy(rho=1.0))
    cluster = _crash_before_journal(tmp_path, monkeypatch, "invisible", [], job)
    assert cluster.registry.indexed_block_count("b") == 0
    blocks = cluster.registry.block_count
    assert sum(_recount(cluster.root, cluster.node_ids(), "b").values()) == blocks

    again = JobSpec("j2", Predicate("b", 0.2, 0.6), ("b",), policy=OfferPolicy(rho=1.0))
    assert not WorkloadRunner(cluster).run_job(again).metrics.failed
    stats = [indexer.stats for indexer in cluster.indexers.values()]
    cluster.close()
    assert sum(s.lost_races for s in stats) == blocks
    assert sum(s.written + s.failures for s in stats) == 0
    _assert_registry_matches_files(cluster)


@pytest.mark.parametrize("last", [False, True])
def test_a_crash_between_completion_rename_and_journal_line_is_repaired_on_open(
    tmp_path, monkeypatch, last
):
    # The files are wider than their entries until Cluster.open registers
    # what they hold. When the lost completion was the last one, no later
    # job hands a completion off, so nothing else would widen the entries.
    def job(job_id, projection):
        return JobSpec(job_id, Predicate("b", 0.2, 0.6), projection, policy=OfferPolicy(rho=1.0))

    names = ("a", "b", "c", "d", "e", "f")
    crashing = job("j2", names if last else ("b", "c"))
    cluster = _crash_before_journal(tmp_path, monkeypatch, "lazy", [job("j1", ("b",))], crashing)
    registry = cluster.registry
    assert registry.schema.names == names
    adaptive = [info for _, info in registry.iter_replicas() if info.kind != ReplicaKind.NORMAL]
    assert len(adaptive) == registry.block_count
    assert {_header(info.path).schema.names for info in adaptive} == {crashing.projection}
    assert {info.kind for info in adaptive} == {
        ReplicaKind.PSEUDO if last else ReplicaKind.PARTIAL_PSEUDO
    }
    _assert_registry_matches_files(cluster)

    assert not WorkloadRunner(cluster).run_job(job("j3", names)).metrics.failed
    stats = [indexer.stats for indexer in cluster.indexers.values()]
    cluster.close()
    assert sum(s.completed for s in stats) == (0 if last else registry.block_count)
    assert sum(s.failures for s in stats) == 0
    for _, info in registry.iter_replicas():
        if info.kind != ReplicaKind.NORMAL:
            assert info.kind == ReplicaKind.PSEUDO
    _assert_registry_matches_files(cluster)
