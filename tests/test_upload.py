"""Upload on the cluster's thread pool: bytes, pacing, failures and stats.

The pool the cluster shares with its node indexers, as wide as the host has
cores, writes, and where asked sorts and indexes, every normal replica; the
uploading thread registers them in block order once every write is done,
and only then starts the node indexers. So the uploaded tree must not depend
on thread pacing or on the pool's width.
"""

import dataclasses
import importlib.util
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import adaptidx.blockfile as blockfile
import adaptidx.cluster as cluster_module
import adaptidx.indexer as indexer_module
from adaptidx.blocks import DataBlock
from adaptidx.cli import main
from adaptidx.cluster import REGISTRY_JOURNAL, Cluster
from adaptidx.execution import JobSpec, Predicate
from adaptidx.indexer import IndexerStats, OfferPolicy, build_index
from adaptidx.registry import BlockReplicaInfo, ReplicaKind, ReplicaRegistry
from adaptidx.runner import WorkloadRunner
from adaptidx.workloads import gen_synthetic

from conftest import make_cluster, track_journal_handles

NODES, REPLICATION, BLOCK_RECORDS, PAGE = 3, 2, 250, 64
UPLOAD_INDEXES = ["b"]


def upload(root, dataset) -> Cluster:
    cluster = make_cluster(
        root, nodes=NODES, replication=REPLICATION, block_records=BLOCK_RECORDS, page_size=PAGE
    )
    cluster.upload_dataset(dataset, UPLOAD_INDEXES)
    return cluster


def uploaded_tree(root: Path) -> dict[str, bytes]:
    """The journal and every normal replica, by path under `root`."""
    files = [root / REGISTRY_JOURNAL, *root.glob("node_*/blocks/*")]
    return {str(p.relative_to(root)): p.read_bytes() for p in files}


def serial_upload(dataset, root: Path) -> None:
    """The reference: place, index, write and register every replica in
    order on the calling thread."""
    registry = ReplicaRegistry(dataset.schema, REPLICATION, journal_path=root / REGISTRY_JOURNAL)
    names = frozenset(dataset.schema.names)
    for block_id, start in enumerate(range(0, dataset.row_count, BLOCK_RECORDS)):
        base = DataBlock(
            block_id,
            dataset.schema,
            {n: c[start:start + BLOCK_RECORDS] for n, c in dataset.columns.items()},
        )
        infos = []
        for k in range(REPLICATION):
            attr = UPLOAD_INDEXES[k] if k < len(UPLOAD_INDEXES) else None
            replica = base if attr is None else build_index(base, attr, PAGE)[0]
            node = (block_id + k) % NODES
            path = root / f"node_{node}" / "blocks" / f"blk_{block_id}_r{k}"
            path.parent.mkdir(parents=True, exist_ok=True)
            blockfile.write_block(replica, path)
            infos.append(BlockReplicaInfo(node, ReplicaKind.NORMAL, attr, names, str(path)))
        registry.add_block(block_id, base.record_count, infos)


def replica_lists(registry) -> list:
    return [
        [(r.node_id, r.kind, r.indexed_attribute, Path(r.path).name) for r in registry.replicas(b)]
        for b in registry.block_ids
    ]


def test_uploaded_tree_does_not_depend_on_pacing_or_working_directory(tmp_path, monkeypatch):
    dataset = gen_synthetic(5_000, seed=31)  # 20 blocks
    serial_upload(dataset, tmp_path / "serial")
    tree = uploaded_tree(tmp_path / "serial")
    assert len(tree) == 1 + 20 * REPLICATION

    undisturbed = upload(tmp_path / "undisturbed", dataset)
    lists = replica_lists(undisturbed.registry)
    undisturbed.close()
    assert uploaded_tree(tmp_path / "undisturbed") == tree

    # On pools of one and of four threads, with a short thread switch
    # interval, every replica write stalls first for a random time seeded
    # by its file name, whichever thread writes it.
    original = cluster_module.write_block
    writers = []  # the thread of each write

    def stalled(block, path):
        writers.append(threading.get_ident())
        time.sleep(random.Random(Path(path).name).random() * 0.002)
        return original(block, path)

    interval = sys.getswitchinterval()
    for cores in (1, 4):
        with monkeypatch.context() as m:
            m.setattr(os, "cpu_count", lambda: cores)
            m.setattr(cluster_module, "write_block", stalled)
            sys.setswitchinterval(1e-5)
            try:
                paced = upload(tmp_path / f"paced_{cores}", dataset)
            finally:
                sys.setswitchinterval(interval)
            assert replica_lists(paced.registry) == lists
            paced.close()
        assert len(writers) == 20 * REPLICATION and len(set(writers)) <= cores
        writers.clear()
        assert uploaded_tree(tmp_path / f"paced_{cores}") == tree

    # Uploaded through a relative root, then reopened from another directory.
    (tmp_path / "up").mkdir()
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "up")
    upload(Path("../moved"), dataset).close()
    monkeypatch.chdir(tmp_path / "elsewhere")
    reopened = Cluster.open(tmp_path / "moved")
    assert replica_lists(reopened.registry) == lists
    reopened.close()
    assert uploaded_tree(tmp_path / "moved") == tree


def _bench_tracer():
    """A fresh `Tracer` from the benchmark's bench/spans.py."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_the_benchmark_tracer_sees_each_upload_write_and_index_build_once(tmp_path):
    tracer = _bench_tracer()
    tracer.install()
    try:
        cluster = upload(tmp_path / "c", gen_synthetic(5_000, seed=35))  # 20 blocks
    finally:
        tracer.uninstall()
    cluster.close()
    on_disk = sum(p.stat().st_size for p in (tmp_path / "c").glob("node_*/blocks/*"))
    summary = tracer.summary()
    assert {name: span["calls"] for name, span in summary.items()} == {
        "cluster.upload_dataset": 1,
        "blockfile.write_block": 20 * REPLICATION,
        "indexer.build_index": 20,  # one upload index
    }
    assert summary["blockfile.write_block"]["n"] == on_disk


def _full_disk_under(directory: Path):
    """The upload's `write_block`, failing for every path in `directory`."""
    original = cluster_module.write_block

    def write(block, path):
        if Path(path).parent == directory:
            raise OSError(28, "No space left on device")
        return original(block, path)

    return write


def test_a_failed_replica_write_fails_the_upload(tmp_path, monkeypatch):
    dataset = gen_synthetic(5_000, seed=32)
    root = tmp_path / "c"
    before = set(threading.enumerate())
    cluster = make_cluster(root, nodes=NODES, replication=REPLICATION, block_records=BLOCK_RECORDS)
    with monkeypatch.context() as m:
        m.setattr(cluster_module, "write_block", _full_disk_under(root / "node_1" / "blocks"))
        with pytest.raises(OSError, match="No space left"):
            cluster.upload_dataset(dataset, UPLOAD_INDEXES)
    width = os.cpu_count() or 1
    assert len(set(threading.enumerate()) - before) <= width  # the cluster's pool only
    assert cluster.indexers == {} and cluster.registry is None
    assert not (root / REGISTRY_JOURNAL).exists()  # no block was registered
    assert not list(root.glob("node_*/blocks/*"))  # nor is any replica left

    # Nothing of the failed attempt blocks a retry. The node indexers start
    # no thread of their own, and closing the cluster stops its pool.
    registry = cluster.upload_dataset(dataset, UPLOAD_INDEXES)
    assert registry.block_count == 20 and len(cluster.indexers) == NODES
    assert len(set(threading.enumerate()) - before) <= width
    cluster.close()
    assert set(threading.enumerate()) - before == set()
    again = Cluster.open(root)
    assert again.registry.block_ids == registry.block_ids
    again.close()


def test_a_failed_upload_waits_for_the_writes_in_flight_before_its_cleanup(
    tmp_path, monkeypatch
):
    # Replica 0 of block 0 fails once replica 1 is being written; that write
    # is still in flight when the failure reaches the uploading thread, and
    # lands a while later. The cleanup must wait for it, or its file stays.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    original = cluster_module.write_block
    second_started = threading.Event()

    def paced(block, path):
        if Path(path).name == "blk_0_r0":
            second_started.wait(timeout=10)
            raise OSError(5, "Input/output error")
        if Path(path).name == "blk_0_r1":
            second_started.set()
            time.sleep(0.3)
        return original(block, path)

    monkeypatch.setattr(cluster_module, "write_block", paced)
    root = tmp_path / "c"
    cluster = make_cluster(root, nodes=NODES, replication=REPLICATION, block_records=BLOCK_RECORDS)
    with pytest.raises(OSError, match="Input/output error"):
        cluster.upload_dataset(gen_synthetic(5_000, seed=35))
    cluster.close()  # waits for anything still running on the pool
    assert second_started.is_set()
    assert not list(root.glob("node_*/blocks/*"))


def test_cli_upload_failure_leaves_no_indexer_running(tmp_path, monkeypatch):
    data = tmp_path / "data.adxd"
    assert main(["gen-synthetic", "--rows", "2000", "--seed", "7", "--out", str(data)]) == 0
    config = tmp_path / "config.json"
    config.write_text('{"nodes": 3, "replication": 2, "block_records": 500}')
    root = tmp_path / "c"
    monkeypatch.setattr(cluster_module, "write_block", _full_disk_under(root / "node_2" / "blocks"))
    before = set(threading.enumerate())
    with pytest.raises(OSError, match="No space left"):
        main(["upload", "--dataset", str(data), "--root", str(root), "--config", str(config)])
    assert set(threading.enumerate()) - before == set()  # the CLI closed the cluster
    assert not (root / REGISTRY_JOURNAL).exists()


def test_upload_units_stay_out_of_indexer_stats(tmp_path):
    cluster = upload(tmp_path / "c", gen_synthetic(5_000, seed=33))  # 20 blocks
    assert [ix.stats for ix in cluster.indexers.values()] == [IndexerStats()] * NODES

    job = JobSpec("j", Predicate("a", 1, 10), ("a",), policy=OfferPolicy(rho=1.0))
    metrics = WorkloadRunner(cluster).run_job(job).metrics
    cluster.close()
    assert metrics.blocks_offered == 20 and not metrics.failed
    totals = {
        name: sum(getattr(ix.stats, name) for ix in cluster.indexers.values())
        for name in (f.name for f in dataclasses.fields(IndexerStats))
    }
    assert totals == {
        "enqueued": 20, "built": 20, "written": 20,
        "completed": 0, "lost_races": 0, "failures": 0,
    }


def test_the_journal_handle_closes_with_the_cluster_and_with_a_failed_upload(
    tmp_path, monkeypatch
):
    handles = track_journal_handles(monkeypatch)
    dataset = gen_synthetic(5_000, seed=34)
    root = tmp_path / "c"
    cluster = make_cluster(root, nodes=NODES, replication=REPLICATION, block_records=BLOCK_RECORDS)
    with monkeypatch.context() as m:
        m.setattr(cluster_module, "write_block", _full_disk_under(root / "node_2" / "blocks"))
        with pytest.raises(OSError, match="No space left"):
            cluster.upload_dataset(dataset, UPLOAD_INDEXES)
    assert len(handles) == 1 and handles[0].closed

    cluster.upload_dataset(dataset, UPLOAD_INDEXES)
    assert len(handles) == 2 and not handles[1].closed
    cluster.close()
    assert handles[1].closed

    # Reopened from another working directory, the next registration
    # appends through a fresh handle, which close releases.
    monkeypatch.chdir(tmp_path)
    again = Cluster.open("c")
    job = JobSpec("j", Predicate("a", 1, 10), ("a",), policy=OfferPolicy(rho=1.0))
    assert not WorkloadRunner(again).run_job(job).metrics.failed
    assert len(handles) == 3 and not handles[2].closed
    again.close()
    assert handles[2].closed
    reopened = Cluster.open(root)
    assert reopened.registry.indexed_block_count("a") == 20
    reopened.close()


def test_an_upload_killed_between_block_registrations_leaves_no_dataset(tmp_path):
    # The process dies after two of six blocks are journaled. The journal
    # was renamed into place only after the last block, so the directory
    # holds no dataset, and a new upload is not refused.
    root = tmp_path / "c"
    script = f"""
import os
from adaptidx.cluster import Cluster, ClusterConfig
from adaptidx.registry import ReplicaRegistry
from adaptidx.workloads import gen_synthetic

add_block = ReplicaRegistry.add_block

def add_block_then_die(self, block_id, *args):
    if block_id == 2:
        os._exit(17)
    add_block(self, block_id, *args)

ReplicaRegistry.add_block = add_block_then_die
config = ClusterConfig(node_count=3, replication_factor=2, block_records=500)
Cluster(config, {str(root)!r}).upload_dataset(gen_synthetic(3_000, seed=8))
"""
    src = str(Path(indexer_module.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    assert subprocess.run([sys.executable, "-c", script], env=env).returncode == 17
    assert [p.name for p in root.glob(".*")] == [f".{REGISTRY_JOURNAL}.tmp"]

    # A smaller retry deletes the replicas of the blocks it does not write,
    # and any pseudo replica, which no journal line names.
    assert len(list(root.glob("node_*/blocks/blk_*"))) == 12
    stray = root / "node_0" / "pseudo" / "blk_4" / "b"
    stray.parent.mkdir(parents=True)
    stray.write_bytes(b"left by a crash")
    cluster = Cluster.open(root)
    assert cluster.registry is None
    assert cluster.upload_dataset(gen_synthetic(1_000, seed=8)).block_count == 2
    cluster.close()
    assert not list(root.glob(".*")) and not list(root.glob("node_*/pseudo/*"))
    assert sorted(p.name for p in root.glob("node_*/blocks/*")) == [
        "blk_0_r0", "blk_0_r1", "blk_1_r0", "blk_1_r1"
    ]
    reopened = Cluster.open(root)
    assert reopened.registry.block_count == 2
    reopened.close()
