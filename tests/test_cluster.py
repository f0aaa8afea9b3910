import gc
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from adaptidx.blocks import DataBlock
from adaptidx.blockfile import check_block_file, read_block, read_header, write_block
from adaptidx.cluster import CLUSTER_CONFIG, REGISTRY_JOURNAL, Cluster, ClusterConfig
import adaptidx.cluster as cluster_module
import adaptidx.indexer as indexer_module
from adaptidx.errors import AdaptidxError, BlockFormatError, ConfigError, RegistryError
from adaptidx.execution import JobSpec, Predicate, ScanKind
from adaptidx.indexer import OfferPolicy, build_index
from adaptidx.registry import ReplicaKind, ReplicaRegistry
from adaptidx.runner import WorkloadRunner
from adaptidx.scheduler import plan_job
from adaptidx.workloads import gen_synthetic

from conftest import make_cluster


def test_replication_needs_enough_nodes():
    with pytest.raises(ConfigError):
        ClusterConfig(node_count=2, replication_factor=3)


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(node_count=True), "node_count must be int, got True"),
        (dict(node_count=3, block_records=2.5), "block_records must be int, got 2.5"),
        (dict(node_count=3, slots_per_node=1.5), "slots_per_node must be int, got 1.5"),
        (dict(node_count=0), "need at least one node"),
        (dict(node_count=3, slots_per_node=0), "need at least one map slot per node"),
        (dict(node_count=3, projection_mode="eager"), "unknown projection mode 'eager'"),
    ],
)
def test_a_config_value_its_cluster_json_would_refuse_is_refused(tmp_path, kw, message):
    # The first three were once taken, written into a cluster.json that
    # Cluster.open then refused, so the directory never reopened.
    with pytest.raises(ConfigError, match=re.escape(message)):
        Cluster(ClusterConfig(replication_factor=1, **kw), tmp_path / "c")
    assert not (tmp_path / "c").exists()


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
    for block_id in registry.block_ids:
        for info in registry.replicas(block_id):
            with open(info.path, "rb", buffering=0) as f:
                assert read_header(f).record_count == 100
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


def test_run_wave_runs_every_task_on_the_calling_thread(tmp_path, monkeypatch):
    cluster = make_cluster(tmp_path / "c", nodes=5, slots=2, replication=2, block_records=100)
    cluster.upload_dataset(gen_synthetic(2_500, seed=5))
    seen_threads, seen_counts = set(), set()
    scan = cluster_module.record_reader_scan

    def probed_scan(split, job, ctx):
        seen_threads.add(threading.get_ident())
        seen_counts.add(threading.active_count())
        return scan(split, job, ctx)

    monkeypatch.setattr(cluster_module, "record_reader_scan", probed_scan)
    job = JobSpec("t", Predicate("a", 10, 10), ("a",),
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
    # One slot per pool thread and a slowed write step: every offer waits
    # for a slot that only the pool can free.
    original, calls = indexer_module.publish_block_once, []

    def slowed(*args):
        calls.append(args[0].block_id)
        time.sleep(0.005)
        return original(*args)

    monkeypatch.setattr(indexer_module, "publish_block_once", slowed)
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
    assert metrics.blocks_offered == 40
    assert metrics.blocks_indexed_after == 40 == cluster.registry.indexed_block_count("b")
    stats = [ix.stats for ix in cluster.indexers.values()]
    assert sum(s.written for s in stats) == 40
    assert sorted(calls) == list(range(40))  # every unit ran the slowed step
    cluster.close()


def test_ten_nodes_index_on_as_many_threads_as_the_host_has_cores(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    before = set(threading.enumerate())
    cluster = make_cluster(tmp_path / "c", nodes=10, slots=1, replication=2, block_records=100)
    cluster.upload_dataset(gen_synthetic(4_000, seed=13))  # 40 blocks
    job = JobSpec("all", Predicate("b", 0.0, 0.5), ("b",), policy=OfferPolicy(rho=1.0))
    metrics = WorkloadRunner(cluster).run_job(job).metrics
    started = set(threading.enumerate()) - before
    stats = [ix.stats for ix in cluster.indexers.values()]
    cluster.close()
    assert not metrics.failed and 1 <= len(started) <= 2
    assert metrics.blocks_indexed_after == 40 == sum(s.written for s in stats)
    assert all(s.enqueued for s in stats)  # every node handed work off
    assert not any(t.is_alive() for t in started)


def test_a_dropped_cluster_finishes_its_units_and_stops_its_threads(tmp_path, monkeypatch):
    # The last reference goes while every unit of a wave is in flight, so
    # the units keep the pool alive until they finish; then its threads exit.
    # What they published is registered by the next open.
    gate = threading.Event()
    original, calls = indexer_module.publish_block_once, []

    def stalled(*args):
        calls.append(args[0].block_id)
        gate.wait(timeout=10)
        return original(*args)

    monkeypatch.setattr(indexer_module, "publish_block_once", stalled)
    root = tmp_path / "c"
    before = set(threading.enumerate())
    cluster = make_cluster(root, nodes=3, slots=1, replication=2, block_records=100)
    cluster.upload_dataset(gen_synthetic(1_000, seed=14))  # 10 blocks
    job = JobSpec("drop", Predicate("b", 0.0, 0.5), ("b",), policy=OfferPolicy(rho=1.0))
    assignments = plan_job(job, cluster.registry)
    results = cluster.run_wave(assignments, job, frozenset(range(10)))  # no drain
    assert sum(r.blocks_offered for r in results) == 10
    threads = set(threading.enumerate()) - before
    del cluster, results
    gc.collect()
    assert threads and all(t.is_alive() for t in threads)
    gate.set()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert sorted(calls) == list(range(10))  # every unit ran the stalled step
    assert len(list(root.glob("node_*/pseudo/blk_*/b"))) == 10
    reopened = Cluster.open(root)
    assert reopened.registry.indexed_block_count("b") == 10
    reopened.close()


def test_a_second_owner_is_refused_while_publishes_are_in_flight(tmp_path, monkeypatch):
    # Owner A's publishes stop with their header written and their columns
    # not. An open of the same root by B would repair the directory and
    # delete A's half-written files, so it must be refused while A holds it.
    gate, paused = threading.Event(), []
    writev = os.writev

    def paused_writev(fd, buffers):
        written = writev(fd, buffers[:1])
        paused.append(fd)
        gate.wait(timeout=10)
        return written  # a short write: write_block resumes with the rest

    root = tmp_path / "c"
    owner = make_cluster(root, nodes=3, slots=1, replication=2, block_records=100)
    owner.upload_dataset(gen_synthetic(3_000, seed=15))  # 30 blocks
    monkeypatch.setattr(os, "writev", paused_writev)
    job = JobSpec("a", Predicate("b", 0.0, 0.5), ("b",), policy=OfferPolicy(rho=1.0))
    outcome = []
    runner = threading.Thread(target=lambda: outcome.append(WorkloadRunner(owner).run_job(job)))
    runner.start()
    try:
        deadline = time.monotonic() + 10
        while not paused and time.monotonic() < deadline:
            time.sleep(0.01)
        halves = {p: p.read_bytes() for p in root.glob("node_*/pseudo/blk_*/b")}
        assert halves
        for path in halves:
            with pytest.raises(BlockFormatError):
                check_block_file(path)
        with pytest.raises(RegistryError, match=str(root)):
            Cluster.open(root)
        assert {p: p.read_bytes() for p in halves} == halves
    finally:
        gate.set()
        runner.join(timeout=30)
    metrics = outcome[0].metrics
    stats = [ix.stats for ix in owner.indexers.values()]
    owner.close()
    assert not metrics.failed and metrics.blocks_indexed_after == 30
    assert sum(s.lost_races + s.failures for s in stats) == 0
    assert not list(root.rglob(".*"))
    Cluster.open(root).close()  # once A has closed, B may open


def _tree(root: Path) -> dict:
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_a_closed_cluster_uploads_nothing_into_the_next_owners_root(tmp_path):
    # The stale cluster's upload used to fail on its shut-down pool, and its
    # cleanup then deleted every block file of the next owner's dataset.
    root = tmp_path / "c"
    stale = make_cluster(root, nodes=2, replication=2, block_records=500)
    stale.close()
    owner = Cluster.open(root)
    owner.upload_dataset(gen_synthetic(2_000, seed=3))
    files = _tree(root)
    with pytest.raises(AdaptidxError, match=re.escape(f"cluster {root} is closed")):
        stale.upload_dataset(gen_synthetic(2_000, seed=3))
    assert _tree(root) == files
    owner.close()
    reopened = Cluster.open(root)
    assert all(Path(info.path).is_file() for _, info in reopened.registry.iter_replicas())
    reopened.close()


def test_a_closed_cluster_runs_no_job_in_the_next_owners_root(tmp_path):
    # The stale cluster's jobs used to run, with every offer refused, and
    # write calibration.json into the root the next owner held.
    root = tmp_path / "c"
    stale = make_cluster(root, nodes=2, replication=2, block_records=500)
    stale.upload_dataset(gen_synthetic(2_000, seed=3))
    runner = WorkloadRunner(stale)
    stale.close()
    owner = Cluster.open(root)
    files = _tree(root)
    job = JobSpec("j", Predicate("b", 0.0, 0.5), ("b",), policy=OfferPolicy(rho=1.0))
    with pytest.raises(AdaptidxError, match=re.escape(f"cluster {root} is closed")):
        runner.run_job(job)
    assert not (root / "calibration.json").exists()
    assert _tree(root) == files  # registry.journal included
    plan = plan_job(job, stale.registry)
    with pytest.raises(AdaptidxError, match=re.escape(str(root))):
        stale.run_wave(plan, job, frozenset(range(4)))
    assert _tree(root) == files
    metrics = WorkloadRunner(owner).run_job(job).metrics
    owner.close()
    assert not metrics.failed and metrics.blocks_indexed_after == 4


def test_a_second_close_is_a_no_op(tmp_path):
    root = tmp_path / "c"
    cluster = make_cluster(root, nodes=2, replication=2, block_records=500)
    cluster.upload_dataset(gen_synthetic(2_000, seed=3))
    cluster.close()
    owner = Cluster.open(root)
    cluster.close()  # releases nothing the next owner holds
    with pytest.raises(RegistryError, match="already open elsewhere"):
        Cluster.open(root)
    owner.close()


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

    # A fresh Cluster on the same root and config opens the dataset and
    # refuses a second one.
    journal = (root / REGISTRY_JOURNAL).read_bytes()
    fresh = make_cluster(root, nodes=3, replication=2, block_records=1000)
    assert fresh.registry.block_ids == ids
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


@pytest.mark.parametrize(
    "key", ["balance_total_index_counts", "build_queue_capacity", "write_queue_capacity"]
)
def test_a_retired_config_key_is_an_unknown_key(tmp_path, key):
    # Engines before the cluster-wide indexing slots wrote these keys.
    root = tmp_path / "c"
    make_cluster(root, nodes=3, slots=2, replication=2).close()
    path = root / CLUSTER_CONFIG
    path.write_text(json.dumps({**json.loads(path.read_text()), key: 4}))
    before = path.read_bytes()
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        ClusterConfig.from_file(path)
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        Cluster.open(root)
    assert path.read_bytes() == before


def _every_byte(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_constructing_over_a_dataset_with_another_config_is_refused_and_frees_the_root(tmp_path):
    # Planned on 4 nodes, the blocks on nodes 2 and 3 would have no indexer
    # under a 2-node config, and jobs would stop short of convergence.
    root = tmp_path / "c"
    cluster = make_cluster(root, nodes=4, slots=1, replication=1, block_records=500)
    cluster.upload_dataset(gen_synthetic(4_000, seed=7))
    cluster.close()
    before = _every_byte(root)
    with pytest.raises(ConfigError) as refused:
        make_cluster(root, nodes=2, slots=1, replication=1, block_records=500)
    assert str(refused.value).startswith(f"cluster {root} holds a dataset under another config")
    assert _every_byte(root) == before

    # The refused cluster released the lock, though `refused` keeps its frame.
    cluster = Cluster.open(root)
    runner = WorkloadRunner(cluster)
    for n in range(4):
        assert not runner.run_job(_b_job(f"j{n}")).metrics.failed
    assert cluster.registry.indexed_block_count("b") == cluster.registry.block_count == 8
    cluster.close()

    # The config is compared as parsed: a hand-written one with aliases opens.
    raw = json.loads((root / CLUSTER_CONFIG).read_text())
    raw["nodes"], raw["replication"] = raw.pop("node_count"), raw.pop("replication_factor")
    (root / CLUSTER_CONFIG).write_text(json.dumps(raw))
    again = make_cluster(root, nodes=4, slots=1, replication=1, block_records=500)
    assert again.registry.block_count == 8
    again.close()


def test_a_failed_open_frees_the_root(tmp_path):
    root = tmp_path / "c"
    cluster = make_cluster(root, nodes=3, replication=2)
    cluster.upload_dataset(gen_synthetic(3_000, seed=8))
    cluster.close()
    journal = root / REGISTRY_JOURNAL
    good = journal.read_bytes()
    head, rest = good.split(b"\n", 1)
    journal.write_bytes(head + b"\n{not json\n" + rest)
    with pytest.raises(RegistryError, match=re.escape(f"journal {journal} line 2 is corrupt")) as failed:
        Cluster.open(root)
    journal.write_bytes(good)
    again = Cluster.open(root)  # not "already open elsewhere", though `failed` lives
    assert again.registry.block_count == 3
    again.close()
    assert failed.value is not None


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


def test_a_crash_between_publish_and_journal_line_is_repaired_on_open(tmp_path, monkeypatch):
    # Unrepaired, every later publish of an orphan would lose and its block
    # would never be indexed.
    job = JobSpec("j1", Predicate("b", 0.2, 0.6), ("b",), policy=OfferPolicy(rho=1.0))
    cluster = _crash_before_journal(tmp_path, monkeypatch, "invisible", [], job)
    _assert_registry_matches_files(cluster)

    again = JobSpec("j2", Predicate("b", 0.2, 0.6), ("b",), policy=OfferPolicy(rho=1.0))
    assert not WorkloadRunner(cluster).run_job(again).metrics.failed
    stats = [indexer.stats for indexer in cluster.indexers.values()]
    cluster.close()
    assert sum(s.written + s.lost_races + s.failures for s in stats) == 0
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


def _b_job(job_id, projection=("b",), rho=1.0):
    return JobSpec(job_id, Predicate("b", 0.2, 0.6), projection, policy=OfferPolicy(rho=rho))


def _orphan(kind, block, path):
    """Leave at `path` what a crash before the journal line might have left
    of `block`'s replica sorted on b."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if kind == "garbage":
        path.write_bytes(b"not a block file")
        return
    if kind == "other_block":
        block = DataBlock(3, block.schema, block.columns)
    write_block(build_index(block, "a" if kind == "other_attribute" else "b", 128)[0], path)
    if kind == "truncated":
        os.truncate(path, path.stat().st_size - 1)


@pytest.mark.parametrize("kind", ["valid", "garbage", "other_block", "other_attribute", "truncated"])
def test_open_registers_only_a_valid_orphan(tmp_path, kind):
    root = tmp_path / "c"
    cluster = make_cluster(root, nodes=2, replication=1, block_records=500)
    cluster.upload_dataset(gen_synthetic(500, seed=4))  # one block, on node 0
    cluster.close()
    final = cluster.node_root(0) / "pseudo" / "blk_0" / "b"
    _orphan(kind, read_block(cluster.registry.normal_replicas(0)[0].path), final)
    journal = (root / REGISTRY_JOURNAL).read_bytes()

    cluster = Cluster.open(root)
    info = cluster.registry.find_index(0, "b")
    if kind == "valid":
        assert (info.node_id, info.kind, info.path) == (0, ReplicaKind.PSEUDO, str(final))
    else:
        assert info is None and not final.exists()
        assert (root / REGISTRY_JOURNAL).read_bytes() == journal
    assert not WorkloadRunner(cluster).run_job(_b_job("j")).metrics.failed
    stats = cluster.indexers[0].stats
    cluster.close()
    assert (stats.written, stats.lost_races, stats.failures) == (int(kind != "valid"), 0, 0)
    _assert_registry_matches_files(cluster)


def test_open_deletes_an_orphan_when_another_node_holds_the_entry(tmp_path):
    # Only one adaptive entry per (block, attribute) is kept, so a copy on
    # another node can never be registered: it is deleted, valid or not.
    root = tmp_path / "c"
    cluster = make_cluster(root, nodes=2, replication=2, block_records=500)
    cluster.upload_dataset(gen_synthetic(500, seed=4))
    assert not WorkloadRunner(cluster).run_job(_b_job("j")).metrics.failed
    cluster.close()
    info = cluster.registry.find_index(0, "b")
    orphan = cluster.node_root(1 - info.node_id) / "pseudo" / "blk_0" / "b"
    orphan.parent.mkdir(parents=True)
    orphan.write_bytes(Path(info.path).read_bytes())
    journal = (root / REGISTRY_JOURNAL).read_bytes()
    entries = list(cluster.registry.iter_replicas())

    reopened = Cluster.open(root)
    reopened.close()
    assert not orphan.exists() and Path(info.path).exists()
    assert list(reopened.registry.iter_replicas()) == entries
    assert (root / REGISTRY_JOURNAL).read_bytes() == journal


def _tree(root):
    """The journal's bytes and every file under the nodes' pseudo directories."""
    files = sorted(str(p.relative_to(root)) for p in root.glob("node_*/pseudo/*/*"))
    return (root / REGISTRY_JOURNAL).read_bytes(), files


def test_open_registers_the_first_of_two_orphan_copies(tmp_path):
    # Nodes are visited in order: node 0's copy is registered, and node 1's
    # then has its entry on another node.
    root = tmp_path / "c"
    cluster = make_cluster(root, nodes=2, replication=2, block_records=500)
    cluster.upload_dataset(gen_synthetic(500, seed=4))
    cluster.close()
    block = read_block(cluster.registry.normal_replicas(0)[0].path)
    copies = [cluster.node_root(n) / "pseudo" / "blk_0" / "b" for n in (0, 1)]
    for path in copies:
        _orphan("valid", block, path)

    Cluster.open(root).close()
    repaired = _tree(root)
    reopened = Cluster.open(root)
    reopened.close()
    info = reopened.registry.find_index(0, "b")
    assert (info.node_id, info.path) == (0, str(copies[0]))
    assert copies[0].exists() and not copies[1].exists()
    assert _tree(root) == repaired


def test_open_leaves_an_uncrashed_lazy_cluster_unchanged(tmp_path):
    root = tmp_path / "c"
    cluster = make_cluster(
        root, nodes=3, slots=1, replication=2, block_records=500, projection_mode="lazy"
    )
    cluster.upload_dataset(gen_synthetic(3_000, seed=5))
    runner = WorkloadRunner(cluster)
    for job in (_b_job("j1", rho=0.5), _b_job("j2", ("b", "c"), rho=0.5)):
        assert not runner.run_job(job).metrics.failed
    cluster.close()
    kinds = {info.kind for _, info in cluster.registry.iter_replicas()}
    assert ReplicaKind.PARTIAL_PSEUDO in kinds
    before = _tree(root)
    Cluster.open(root).close()
    assert _tree(root) == before


@pytest.fixture(scope="module")
def crash_bases(tmp_path_factory):
    """Per projection mode, a cluster directory after an upload and two
    jobs, and the length of its journal after the upload."""
    bases = {}
    for mode in ("invisible", "lazy"):
        root = tmp_path_factory.mktemp(mode) / "cl"
        cluster = make_cluster(
            root, nodes=3, slots=1, replication=2, block_records=500, projection_mode=mode
        )
        cluster.upload_dataset(gen_synthetic(3_000, seed=5))
        uploaded = (root / REGISTRY_JOURNAL).stat().st_size
        runner = WorkloadRunner(cluster)
        for job in (_b_job("j1", rho=0.5), _b_job("j2", ("b", "c"))):
            assert not runner.run_job(job).metrics.failed
        cluster.close()
        bases[mode] = root, uploaded
    return bases


@settings(max_examples=15, deadline=None)
@given(mode=st.sampled_from(["invisible", "lazy"]), data=st.data())
def test_repair_after_any_crash_is_idempotent_deterministic_and_converges(
    crash_bases, mode, data
):
    # Cutting the journal after any of the jobs' lines loses the lines of
    # every later publish and lazy completion, whose files stay; cutting
    # inside a line tears the tail.
    base, uploaded = crash_bases[mode]
    journal = (base / REGISTRY_JOURNAL).read_bytes()
    lines = journal[uploaded:].splitlines(keepends=True)
    kept = data.draw(st.integers(0, len(lines)), label="job lines kept")
    torn = lines[kept][: data.draw(st.integers(1, 60))] if kept < len(lines) else b""
    temp = data.draw(st.none() | st.tuples(st.integers(0, 2), st.integers(0, 5)), label="temp")

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        crashed, copy = work / "a" / "cl", work / "copy"
        shutil.copytree(base, crashed)
        (crashed / REGISTRY_JOURNAL).write_bytes(
            journal[: uploaded + sum(map(len, lines[:kept]))] + torn
        )
        if temp is not None:
            path = crashed / f"node_{temp[0]}" / "pseudo" / f"blk_{temp[1]}" / ".b.tmp"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(b"half a replica")
        shutil.copytree(crashed, copy)
        (work / "b").mkdir()
        cwd = os.getcwd()
        os.chdir(work / "b")
        try:
            Cluster.open("../a/cl").close()
            repaired = _tree(crashed)
            Cluster.open("../a/cl").close()
            assert _tree(crashed) == repaired
            Cluster.open(copy).close()
            assert _tree(copy)[0] == repaired[0]

            cluster = Cluster.open("../a/cl")
            runner = WorkloadRunner(cluster)
            for n in range(3):
                if cluster.registry.indexed_block_count("b") == cluster.registry.block_count:
                    break
                assert not runner.run_job(_b_job(f"r{n}")).metrics.failed
            stats = [indexer.stats for indexer in cluster.indexers.values()]
            cluster.close()
            assert sum(s.lost_races + s.failures for s in stats) == 0
            _assert_registry_matches_files(cluster)
            assert not list(crashed.rglob(".*"))
        finally:
            os.chdir(cwd)


# Opens the cluster at argv[1] and runs argv[3] on it: one job projecting
# its comma-separated attributes, or with "upload" the dataset's upload. Dies
# with os._exit(17) at the argv[2]-th mutating call (never when 0), as a
# crash would: an os.open for writing, an os.writev (which first writes half
# its bytes), an os.replace, an os.unlink, a journal line (of which half is
# written), or the open and the one write of a JSON file that `save_json`
# replaces (which also writes half). Prints the number of mutating calls made.
_CRASHING_JOB = """
import builtins, itertools, os, sys
from adaptidx import policy, registry
from adaptidx.cluster import Cluster
from adaptidx.execution import JobSpec, Predicate
from adaptidx.indexer import OfferPolicy
from adaptidx.runner import WorkloadRunner
from adaptidx.workloads import gen_synthetic

root, crash_at, action = sys.argv[1], int(sys.argv[2]), sys.argv[3]
calls = itertools.count(1)  # next() on it is atomic: units run on the pool's threads

def crashes():
    return next(calls) == crash_at

real_open, real_writev = os.open, os.writev
real_replace, real_unlink = os.replace, os.unlink
WRITING = os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_TRUNC | os.O_APPEND

def open_(path, flags, *args, **kwargs):
    if flags & WRITING and crashes():
        os._exit(17)
    return real_open(path, flags, *args, **kwargs)

def writev(fd, buffers):
    if crashes():
        data = b"".join(bytes(b) for b in buffers)
        real_writev(fd, [data[: len(data) // 2]])
        os._exit(17)
    return real_writev(fd, buffers)

def replace(*args, **kwargs):
    if crashes():
        os._exit(17)
    return real_replace(*args, **kwargs)

def unlink(*args, **kwargs):
    if crashes():
        os._exit(17)
    return real_unlink(*args, **kwargs)

class Journal:
    def __init__(self, f):
        self.f = f

    def write(self, line):
        if crashes():
            self.f.write(line[: len(line) // 2])
            self.f.flush()
            os._exit(17)
        return self.f.write(line)

    def __getattr__(self, name):
        return getattr(self.f, name)

class Whole:
    # A small file written through a buffer reaches the OS in one write, at close.
    def __init__(self, f):
        self.f, self.parts = f, []

    def write(self, text):
        self.parts.append(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        text = "".join(self.parts)
        if exc[0] is None and crashes():
            self.f.write(text[: len(text) // 2])
            self.f.flush()
            os._exit(17)
        self.f.write(text)
        self.f.close()

def text_open(path, mode="r", *args, **kwargs):
    if mode == "w" and crashes():
        os._exit(17)
    f = builtins.open(path, mode, *args, **kwargs)
    return Journal(f) if mode == "a" else Whole(f) if mode == "w" else f

os.open, os.writev, os.replace, os.unlink = open_, writev, replace, unlink
registry.open = policy.open = text_open  # the journal's appends, and save_json's writes
cluster = Cluster.open(root)
if action == "upload":
    cluster.upload_dataset(gen_synthetic(2_000, seed=5))
else:
    projection = tuple(action.split(","))
    job = JobSpec("crash", Predicate("b", 0.2, 0.6), projection, policy=OfferPolicy(rho=1.0))
    assert not WorkloadRunner(cluster).run_job(job).metrics.failed
cluster.close()
print(next(calls) - 1)
"""


def _run_crashing_job(root, crash_at, action):
    """Run `_CRASHING_JOB` on `root`; `action` is "upload" or a job's projection."""
    src = str(Path(indexer_module.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    action = action if action == "upload" else ",".join(action)
    args = [sys.executable, "-c", _CRASHING_JOB, str(root), str(crash_at), action]
    return subprocess.run(args, env=env, capture_output=True, text=True)


def _assert_jobs_converge(root, projection):
    """Jobs on b, at most three, leave every block indexed on b with
    `projection` held, and lose no race and fail no build."""
    cluster = Cluster.open(root)
    runner = WorkloadRunner(cluster)
    replicas = cluster.registry.best_replicas
    for n in range(4):
        if len(replicas("b")) == cluster.registry.block_count and all(
            set(projection) <= info.available_attributes for info in replicas("b").values()
        ):
            break
        assert n < 3, "no convergence"
        assert not runner.run_job(_b_job(f"r{n}", projection)).metrics.failed
    stats = [indexer.stats for indexer in cluster.indexers.values()]
    cluster.close()
    assert sum(s.lost_races + s.failures for s in stats) == 0
    _assert_registry_matches_files(cluster)


@pytest.mark.parametrize("mode", ["invisible", "lazy", "repair"])
def test_a_crash_at_any_write_of_an_adaptive_job_is_repaired(tmp_path, monkeypatch, mode):
    # invisible: a job publishes a full pseudo replica of each of 4 blocks.
    # lazy: after a job made partial replicas on b, a job projecting c
    # completes each of them. Every node holds every block, so each
    # completion is local. repair: the open before the job repairs what a
    # crash left (3 unjournaled replicas, a short one and a temp file), and
    # the job then publishes the block whose replica was short.
    base = tmp_path / "base"
    cluster = make_cluster(
        base, nodes=2, slots=1, replication=2, block_records=500,
        projection_mode="lazy" if mode == "lazy" else "invisible",
    )
    cluster.upload_dataset(gen_synthetic(2_000, seed=5))
    uploaded = (base / REGISTRY_JOURNAL).stat().st_size
    projection = ("b",)
    if mode in ("lazy", "repair"):
        assert not WorkloadRunner(cluster).run_job(_b_job("first")).metrics.failed
        projection = ("b", "c") if mode == "lazy" else projection
    cluster.close()
    canonical = (base / CLUSTER_CONFIG).read_bytes()
    if mode == "repair":
        os.truncate(base / REGISTRY_JOURNAL, uploaded)
        (short,) = base.glob("node_*/pseudo/blk_0/b")
        os.truncate(short, short.stat().st_size // 2)
        short.with_name(".b.tmp").write_bytes(b"half a replica")

    dry = _run_crashing_job(shutil.copytree(base, tmp_path / "dry"), 0, projection)
    assert dry.returncode == 0, dry.stderr
    calls = int(dry.stdout)
    assert calls >= 8  # the three modes make 19, 16 and 8

    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    for crash_at in range(1, calls + 1):
        crashed = shutil.copytree(base, tmp_path / f"crash{crash_at}")
        died = _run_crashing_job(crashed, crash_at, projection)
        assert died.returncode == 17, (crash_at, died.stderr)
        relative = os.path.relpath(crashed)

        Cluster.open(relative).close()
        repaired = _every_byte(crashed)
        reopened = Cluster.open(relative)
        reopened.close()
        assert _every_byte(crashed) == repaired, crash_at
        for _, info in reopened.registry.iter_replicas():
            check_block_file(info.path)
        assert not list(crashed.rglob(".*")), crash_at
        assert (crashed / CLUSTER_CONFIG).read_bytes() == canonical, crash_at
        _assert_jobs_converge(relative, projection)
        shutil.rmtree(crashed)


def test_a_crash_at_any_write_of_an_upload_leaves_no_dataset_and_a_retry_converges(
    tmp_path, monkeypatch
):
    # The upload's every mutating call comes before the rename that moves its
    # journal into place, the last one, so a crash at any of them, the rename
    # included, leaves a cluster that reopens with no dataset, and the open
    # alone deletes the temp journal and every replica file the crash left.
    # Reopened from another working directory, a retried upload leaves the
    # same bytes as an upload that never crashed, and jobs then converge.
    base = tmp_path / "base"
    make_cluster(base, nodes=2, slots=1, replication=2, block_records=500).close()
    whole = shutil.copytree(base, tmp_path / "whole")
    dry = _run_crashing_job(whole, 0, "upload")
    assert dry.returncode == 0, dry.stderr
    calls = int(dry.stdout)
    assert calls >= 20  # 27: an open and a writev per replica file, journal lines, the rename
    uploaded = _every_byte(whole)

    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    for crash_at in range(1, calls + 1):
        crashed = shutil.copytree(base, tmp_path / f"crash{crash_at}")
        died = _run_crashing_job(crashed, crash_at, "upload")
        assert died.returncode == 17, (crash_at, died.stderr)
        relative = os.path.relpath(crashed)

        cluster = Cluster.open(relative)
        assert cluster.registry is None, crash_at
        assert not list(crashed.rglob(".*")), crash_at
        assert not list(crashed.glob("node_*/blocks/blk_*")), crash_at
        assert not list(crashed.glob("node_*/pseudo")), crash_at
        cluster.upload_dataset(gen_synthetic(2_000, seed=5))
        cluster.close()
        assert not list(crashed.rglob(".*")), crash_at
        assert _every_byte(crashed) == uploaded, crash_at
        _assert_jobs_converge(relative, ("b",))
        shutil.rmtree(crashed)
