import threading
import time

import numpy as np
import pytest

import adaptidx.blockfile as blockfile
import adaptidx.indexer as indexer_module
import adaptidx.lazy as lazy
from adaptidx.blocks import DataBlock, Schema, blocks_equal
from adaptidx.blockfile import OpenReplicas, pseudo_replica_path, read_block, read_header, write_block
from adaptidx.cluster import Cluster
from adaptidx.errors import RegistryError
from adaptidx.execution import (
    BlockRef,
    InputSplit,
    JobSpec,
    Predicate,
    ScanKind,
    TaskContext,
    record_reader_scan,
)
from adaptidx.indexer import BUILD, COMPLETE, AdaptiveIndexer, IndexWork, OfferPolicy, build_index
from adaptidx.lazy import append_aligned_columns
from adaptidx.registry import BlockReplicaInfo, ReplicaKind, ReplicaRegistry
from adaptidx.runner import WorkloadRunner, write_reports
from adaptidx.workloads import (
    USERVISITS_SCHEMA,
    gen_synthetic,
    gen_uservisits_like,
    search_word_predicate,
)

from conftest import make_block, make_cluster, make_indexer

SCHEMA = Schema.of(("a", "int64"), ("b", "float64"), ("c", "float64"), ("d", "int64"))


def fixture_registry(tmp_path, rows=600, block_id=0, node=0, seed=1):
    base = make_block(SCHEMA, rows, seed=seed, block_id=block_id)
    registry = ReplicaRegistry(SCHEMA, replication_factor=1)
    normal_path = tmp_path / f"node_{node}" / "blocks" / f"blk_{block_id}"
    write_block(base, normal_path)
    registry.add_block(
        block_id,
        rows,
        [BlockReplicaInfo(node, ReplicaKind.NORMAL, None, frozenset(SCHEMA.names), str(normal_path))],
    )
    return base, registry


def _subset(block, names):
    sub = SCHEMA.subset(names)
    return DataBlock(block.block_id, sub, {n: block.columns[n] for n in sub.names})


def index_on_d(tmp_path, registry, block, node=0):
    """Hand `block` to node's Adaptive Indexer as a BUILD on d; returns its stats."""
    indexer = make_indexer(node, tmp_path / f"node_{node}", registry, page_size_records=64)
    indexer.hand_off(IndexWork(BUILD, "d", block))
    indexer.drain()
    return indexer.stats


def lazy_index_scan(tmp_path, registry, projection, node=0, lo=-1000, hi=1000):
    """One lazy index scan of block 0's d replica on `node`; returns (result, stats)."""
    info = registry.find_index(0, "d")
    indexer = make_indexer(node, tmp_path / f"node_{node}", registry, page_size_records=64)
    ctx = TaskContext(
        registry=registry,
        indexers={node: indexer},
        will_offer_blocks=frozenset(),
        projection_mode="lazy",
    )
    job = JobSpec("scan", Predicate("d", lo, hi), tuple(projection), policy=OfferPolicy(rho=0.0))
    split = InputSplit(node, (BlockRef(0, info),), ScanKind.INDEX_SCAN)
    result = record_reader_scan(split, job, ctx)
    indexer.drain()
    return result, indexer.stats


def test_subset_build_stores_sorted_subset_and_perm(tmp_path):
    base, registry = fixture_registry(tmp_path)
    subset = _subset(base, ["b", "d"])
    assert index_on_d(tmp_path, registry, subset).written == 1

    info = registry.find_index(0, "d")
    assert info.kind == ReplicaKind.PARTIAL_PSEUDO
    assert info.available_attributes == {"b", "d"}
    assert info.has_permutation_vector

    replica = read_block(pseudo_replica_path(tmp_path / "node_0", 0, "d"))
    assert set(replica.schema.names) == {"b", "d"}
    assert np.all(replica.columns["d"][:-1] <= replica.columns["d"][1:])
    assert replica.permutation is not None
    # alignment: replica.b[perm[i]] == base.b[i]
    perm = replica.permutation.astype(np.int64)
    assert np.array_equal(replica.columns["b"][perm], base.columns["b"])


def test_full_schema_build_degenerates_to_pseudo(tmp_path):
    base, registry = fixture_registry(tmp_path)
    assert index_on_d(tmp_path, registry, base).written == 1
    info = registry.find_index(0, "d")
    assert info.kind == ReplicaKind.PSEUDO
    assert not info.has_permutation_vector
    replica = read_block(pseudo_replica_path(tmp_path / "node_0", 0, "d"))
    assert replica.permutation is None


def test_subset_build_minimal_predicate_only(tmp_path):
    base, registry = fixture_registry(tmp_path)
    subset = _subset(base, ["d"])
    assert index_on_d(tmp_path, registry, subset).written == 1
    replica = read_block(pseudo_replica_path(tmp_path / "node_0", 0, "d"))
    assert set(replica.schema.names) == {"d"}
    assert replica.permutation is not None


def test_index_scan_completion_appends_aligned_attribute(tmp_path):
    base, registry = fixture_registry(tmp_path)
    index_on_d(tmp_path, registry, _subset(base, ["b", "d"]))
    _, stats = lazy_index_scan(tmp_path, registry, ["b", "c"])
    assert stats.completed == 1

    info = registry.find_index(0, "d")
    assert info.available_attributes == {"b", "c", "d"}
    replica = read_block(info.path)
    oracle_sorted, _, _ = build_index(base, "d", 64)
    assert np.array_equal(replica.columns["c"], oracle_sorted.columns["c"])
    assert replica.permutation is not None  # still one attribute short


def test_index_scan_completion_noop_when_nothing_missing(tmp_path):
    base, registry = fixture_registry(tmp_path)
    index_on_d(tmp_path, registry, _subset(base, ["b", "d"]))
    before = read_block(registry.find_index(0, "d").path)
    _, stats = lazy_index_scan(tmp_path, registry, ["b"])
    assert stats.enqueued == 0 and stats.completed == 0
    after = read_block(registry.find_index(0, "d").path)
    assert blocks_equal(before, after)


def test_index_scan_emits_arrays_apart_from_the_completion(tmp_path, monkeypatch):
    base, registry = fixture_registry(tmp_path)
    index_on_d(tmp_path, registry, _subset(base, ["b", "d"]))
    handed = []
    hand_off = AdaptiveIndexer.hand_off

    def capture(self, work):
        handed.append(work)
        return hand_off(self, work)

    monkeypatch.setattr(AdaptiveIndexer, "hand_off", capture)
    result, stats = lazy_index_scan(tmp_path, registry, ["b", "c"], lo=-400, hi=400)
    assert stats.completed == 1
    (work,) = handed
    frozen = work.block.columns["c"]
    assert not frozen.flags.writeable
    assert result.emitted
    for columns in result.emitted:
        for column in columns.values():
            assert column.flags.writeable
            assert not np.shares_memory(column, frozen)


def assert_headers_match_registry(registry):
    """Each index replica file stores a permutation vector iff its entry says so."""
    for _, info in registry.iter_replicas():
        if info.kind == ReplicaKind.NORMAL:
            continue
        with open(info.path, "rb") as f:
            assert read_header(f).has_permutation_vector == info.has_permutation_vector


def test_completion_sequence_converges_to_full_pseudo(tmp_path):
    base, registry = fixture_registry(tmp_path)
    index_on_d(tmp_path, registry, _subset(base, ["b", "d"]))
    assert_headers_match_registry(registry)
    assert lazy_index_scan(tmp_path, registry, ["c"])[1].completed == 1
    assert_headers_match_registry(registry)
    assert lazy_index_scan(tmp_path, registry, ["a"])[1].completed == 1
    assert_headers_match_registry(registry)

    info = registry.find_index(0, "d")
    assert info.kind == ReplicaKind.PSEUDO
    assert not info.has_permutation_vector
    replica = read_block(info.path)
    assert replica.permutation is None  # vector dropped once complete
    oracle_sorted, _, _ = build_index(base, "d", 64)
    assert blocks_equal(replica, oracle_sorted)


def test_append_is_idempotent(tmp_path):
    base, registry = fixture_registry(tmp_path)
    index_on_d(tmp_path, registry, _subset(base, ["b", "d"]))
    oracle_sorted, _, _ = build_index(base, "d", 64)
    sub = SCHEMA.subset(["c"])
    aligned = DataBlock(0, sub, {"c": oracle_sorted.columns["c"]})
    assert append_aligned_columns(tmp_path / "node_0", SCHEMA, 0, "d", aligned) == ("b", "c", "d")
    assert append_aligned_columns(tmp_path / "node_0", SCHEMA, 0, "d", aligned) is None


def test_close_lands_a_completion_without_drain(tmp_path, monkeypatch):
    # A caller may hand work off and close the cluster without draining, so
    # `Cluster.close` alone must wait until the completion is registered.
    cluster = make_cluster(tmp_path / "c", nodes=1, slots=1, replication=1,
                           block_records=600, page_size=64)
    registry = cluster.upload_dataset(gen_synthetic(600, seed=1))
    schema = registry.schema
    base = read_block(registry.normal_replicas(0)[0].path)
    indexer = cluster.indexers[0]
    held = schema.subset(["b", "d"])
    partial = DataBlock(0, held, {n: base.columns[n] for n in held.names})
    indexer.hand_off(IndexWork(BUILD, "d", partial))
    cluster.drain_indexers()
    original, calls = lazy.append_aligned_columns, []

    def slowed(*args):
        calls.append(args)
        time.sleep(0.2)
        return original(*args)

    monkeypatch.setattr(lazy, "append_aligned_columns", slowed)
    oracle_sorted, _, _ = build_index(base, "d", 64)
    rest = schema.subset(["a", "c", "e", "f"])
    aligned = DataBlock(0, rest, {n: oracle_sorted.columns[n] for n in rest.names})
    indexer.hand_off(IndexWork(COMPLETE, "d", aligned))
    cluster.close()
    info = registry.find_index(0, "d")
    assert info.kind == ReplicaKind.PSEUDO and info.available_attributes == set(schema.names)
    assert indexer.stats.completed == len(calls) == 1


def _files(root):
    return {path: path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize(
    "node, attribute", [(1, "d"), (0, "a")], ids=["file_on_another_node", "no_such_replica"]
)
def test_completion_without_the_nodes_replica_fails_and_changes_nothing(
    tmp_path, node, attribute
):
    # A completion rewrites the replica the layout puts on its own node; with
    # no such file it is a counted failure, not a write elsewhere.
    base, registry = fixture_registry(tmp_path)
    index_on_d(tmp_path, registry, _subset(base, ["b", "d"]))
    entries = list(registry.iter_replicas())
    files = _files(tmp_path)
    indexer = make_indexer(node, tmp_path / f"node_{node}", registry, page_size_records=64)
    aligned = DataBlock(0, SCHEMA.subset(["c"]), {"c": base.columns["c"].copy()})
    indexer.hand_off(IndexWork(COMPLETE, attribute, aligned))
    indexer.drain()
    assert (indexer.stats.failures, indexer.stats.completed) == (1, 0)
    assert list(registry.iter_replicas()) == entries
    assert _files(tmp_path) == files


def test_completions_after_reopening_from_another_directory(tmp_path, monkeypatch):
    # Replica paths in the reopened registry are relative to the new working
    # directory ("../a/cl/..."); completions still find each node's file.
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    monkeypatch.chdir(tmp_path / "a")
    cluster = make_cluster(
        "cl", nodes=3, slots=1, replication=2, block_records=500, projection_mode="lazy"
    )
    cluster.upload_dataset(gen_synthetic(6000, seed=3))
    first = JobSpec("j1", Predicate("b", 0.2, 0.6), ("b",), policy=OfferPolicy(rho=1.0))
    assert not WorkloadRunner(cluster).run_job(first).metrics.failed
    cluster.close()

    monkeypatch.chdir(tmp_path / "b")
    cluster = Cluster.open("../a/cl")
    runner = WorkloadRunner(cluster)
    names = cluster.registry.schema.names
    for j, projection in enumerate([("b", "c"), names], start=2):
        job = JobSpec(f"j{j}", Predicate("b", 0.2, 0.6), projection, policy=OfferPolicy(rho=1.0))
        assert not runner.run_job(job).metrics.failed
    stats = [indexer.stats for indexer in cluster.indexers.values()]
    cluster.close()
    assert sum(s.failures for s in stats) == 0
    assert sum(s.completed for s in stats) == 2 * cluster.registry.block_count
    replicas = [info for _, info in cluster.registry.iter_replicas()
                if info.kind != ReplicaKind.NORMAL]
    assert len(replicas) == cluster.registry.block_count
    for info in replicas:
        assert info.kind == ReplicaKind.PSEUDO
        assert read_block(info.path).schema.names == names


def test_a_lazy_scan_without_a_local_normal_replica_fails_and_changes_nothing(tmp_path):
    # Node 1 holds the partial replica but no normal replica of its block;
    # node 0's is not the one it was sorted from, so nothing is read from it.
    base, registry = fixture_registry(tmp_path)
    index_on_d(tmp_path, registry, _subset(base, ["b", "d"]), node=1)
    entries = list(registry.iter_replicas())
    files = _files(tmp_path)
    with pytest.raises(RegistryError, match="block 0 has no normal replica on node 1"):
        lazy_index_scan(tmp_path, registry, ["c"], node=1)
    assert list(registry.iter_replicas()) == entries
    assert _files(tmp_path) == files


@pytest.mark.parametrize("normal", ["local", "remote"])
def test_only_a_replica_whose_completion_is_handed_off_is_closed(tmp_path, monkeypatch, normal):
    # The normal replica is on node 0. A local one lets the first scan hand
    # off a completion, which renames a wider file over the partial replica,
    # so the scan closes it and the next scan opens the new file, once. A
    # remote one fails every scan before it opens the normal replica or hands
    # anything off, so the partial replica stays open and its header is
    # parsed once.
    node = 0 if normal == "local" else 1
    base, registry = fixture_registry(tmp_path)
    index_on_d(tmp_path, registry, _subset(base, ["b", "d"]), node=node)
    info = registry.find_index(0, "d")
    main_thread = threading.get_ident()
    parses = []
    parse_header = blockfile._parse_header

    def counted(fd):
        if threading.get_ident() == main_thread:  # not the completion's own read
            parses.append(fd)
        return parse_header(fd)

    monkeypatch.setattr(blockfile, "_parse_header", counted)
    indexer = make_indexer(node, tmp_path / f"node_{node}", registry, page_size_records=64)
    ctx = TaskContext(registry, {node: indexer}, frozenset(), "lazy", OpenReplicas())
    job = JobSpec("scan", Predicate("d", -1000, 1000), ("c",), policy=OfferPolicy(rho=0.0))
    split = InputSplit(node, (BlockRef(0, info),), ScanKind.INDEX_SCAN)
    entries, parsed = [], []
    for _ in range(3):
        before = len(parses)
        if normal == "remote":
            with pytest.raises(RegistryError):
                record_reader_scan(split, job, ctx)
        else:
            record_reader_scan(split, job, ctx)
        indexer.drain()
        entries.append(ctx.replicas._entries.get(info.path))
        parsed.append(len(parses) - before)
    if normal == "remote":
        assert indexer.stats.enqueued == 0
        assert parsed == [1, 0, 0]  # the partial replica, once
        assert entries[0] is not None and entries[0] is entries[1] is entries[2]
    else:
        assert indexer.stats.completed == 1
        assert parsed == [2, 1, 0]  # the completed replica is opened once
        assert entries[0] is None and entries[1] is entries[2]
        assert entries[1][1].schema.names == ("b", "c", "d")
    ctx.replicas.close()


def test_failed_completion_is_counted(tmp_path, monkeypatch):
    base, registry = fixture_registry(tmp_path)
    index_on_d(tmp_path, registry, _subset(base, ["b", "d"]))
    info_before = registry.find_index(0, "d")
    replica_before = read_block(info_before.path)

    def no_rename(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(lazy.os, "replace", no_rename)
    _, stats = lazy_index_scan(tmp_path, registry, ["b", "c"])
    monkeypatch.undo()

    assert stats.failures == 1
    assert stats.completed == 0
    assert not list((tmp_path / "node_0" / "pseudo").rglob(".*"))
    assert registry.find_index(0, "d") == info_before
    assert blocks_equal(read_block(info_before.path), replica_before)


def test_record_reader_serves_and_completes_partial(tmp_path):
    base, registry = fixture_registry(tmp_path, rows=500)
    index_on_d(tmp_path, registry, _subset(base, ["b", "d"]))

    lo, hi = -400, 400
    result, stats = lazy_index_scan(tmp_path, registry, ["b", "c"], lo=lo, hi=hi)

    # emitted rows match the brute-force filter over the raw block
    mask = (base.columns["d"] >= lo) & (base.columns["d"] <= hi)
    expect = np.stack([base.columns["b"][mask], base.columns["c"][mask]], axis=1)
    got = result.emitted[0]
    got_rows = np.stack([got["b"], got["c"]], axis=1)
    assert np.array_equal(
        got_rows[np.lexsort(got_rows.T[::-1])], expect[np.lexsort(expect.T[::-1])]
    )

    # the scan also completed attribute c in the background
    info_after = registry.find_index(0, "d")
    assert "c" in info_after.available_attributes
    assert stats.completed == 1


def test_mode_equivalence_invisible_vs_lazy_vs_full(tmp_path):
    dataset = gen_synthetic(6_000, seed=31)
    proj = ("b", "c")
    lo, hi = 0.2, 0.6
    mask = (dataset.columns["d"] >= lo) & (dataset.columns["d"] <= hi)
    oracle = np.stack([dataset.columns[n][mask] for n in proj], axis=1)
    oracle = oracle[np.lexsort(oracle.T[::-1])]

    def emitted(outcome):
        chunks = [c for r in outcome.results for c in r.emitted]
        cols = {n: np.concatenate([c[n] for c in chunks]) for n in proj}
        rows = np.stack([cols[n] for n in proj], axis=1)
        return rows[np.lexsort(rows.T[::-1])]

    for mode in ("invisible", "lazy"):
        cluster = make_cluster(
            tmp_path / f"c_{mode}", nodes=3, slots=2, replication=2,
            block_records=500, projection_mode=mode,
        )
        cluster.upload_dataset(dataset)
        runner = WorkloadRunner(cluster)
        job1 = JobSpec("j1", Predicate("d", lo, hi), proj, policy=OfferPolicy(rho=1.0))
        out1 = runner.run_job(job1)
        assert not out1.metrics.failed, out1.metrics.error
        assert np.array_equal(emitted(out1), oracle)

        job2 = JobSpec("j2", Predicate("d", lo, hi), proj, policy=OfferPolicy(rho=0.0))
        out2 = runner.run_job(job2)
        assert not out2.metrics.failed, out2.metrics.error
        assert out2.metrics.full_scan_tasks == 0  # everything indexed now
        assert np.array_equal(emitted(out2), oracle)

        if mode == "lazy":
            kinds = {
                r.kind
                for _, r in cluster.registry.iter_replicas()
                if r.kind != ReplicaKind.NORMAL
            }
            assert kinds == {ReplicaKind.PARTIAL_PSEUDO}
        cluster.close()


@pytest.mark.parametrize(
    "module, stage", [(lazy, "append_aligned_columns"), (indexer_module, "build_index")],
    ids=["slow_writer", "slow_builder"],
)
def test_lazy_sequence_reports_repeat_exactly(tmp_path, monkeypatch, module, stage):
    # Full scans offer BUILDs and index-scan splits of up to 16 blocks per
    # node hand over completions to an indexer whose write or build step is
    # slowed down, so the units outnumber the slots: both kinds of work must
    # wait for a slot instead of being dropped, or the reports vary with
    # thread timing.
    original, calls = getattr(module, stage), []

    def slowed(*args):
        calls.append(args)
        time.sleep(0.01)
        return original(*args)

    monkeypatch.setattr(module, stage, slowed)
    dataset = gen_uservisits_like(80 * 128, seed=5)
    reports = []
    for run in ("one", "two"):
        cluster = make_cluster(
            tmp_path / run, nodes=4, slots=1, replication=2, block_records=128, page_size=32,
            projection_mode="lazy",
        )
        cluster.upload_dataset(dataset)
        runner = WorkloadRunner(cluster)
        projections = [("search_word", "ad_revenue"), ("search_word", "duration")]
        projections += [USERVISITS_SCHEMA.names] * 2
        rows = []
        for j, projection in enumerate(projections):
            low, high = search_word_predicate(10 * j, 2)
            job = JobSpec(f"job{j}", Predicate("search_word", low, high), projection,
                          policy=OfferPolicy(rho=1.0), collect_output=False)
            rows.append(runner.run_job(job).metrics)
        stats = [indexer.stats for indexer in cluster.indexers.values()]
        cluster.close()
        assert sum(s.completed for s in stats) > 0
        assert calls  # the slowed step ran
        calls.clear()
        reports.append(write_reports(rows, tmp_path / f"report_{run}")[0].read_bytes())
    assert reports[0] == reports[1]
