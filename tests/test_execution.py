import gc
import math
import os
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

import adaptidx.blockfile as blockfile
import adaptidx.execution as execution
from adaptidx.blocks import DataBlock, Schema
from adaptidx.blockfile import ReadCounter, read_header, write_block
from adaptidx.cluster import REGISTRY_JOURNAL, Cluster
from adaptidx.errors import BlockFormatError, SchemaError
from adaptidx.execution import (
    BlockRef,
    InputSplit,
    JobSpec,
    Predicate,
    ScanKind,
    TaskContext,
    invisible_projection_columns,
    record_reader_scan,
)
from adaptidx.indexer import (
    EAGER, OFFER_RATE, OfferPolicy, SELECTIVITY, build_index, write_pseudo_replica,
)
from adaptidx.registry import BlockReplicaInfo, ReplicaKind, ReplicaRegistry
from adaptidx.runner import WorkloadRunner
from adaptidx.scheduler import plan_job

from conftest import make_cluster, make_indexer
from adaptidx.workloads import Dataset, gen_synthetic

NINE = Schema.of(*[(f"c{i}", "int64") for i in range(9)])


def job(predicate, projection, rho=0.0, job_id="t", **kw):
    return JobSpec(
        job_id=job_id, predicate=predicate, projection=projection,
        policy=OfferPolicy(rho=rho), **kw,
    )


def test_invisible_projection_widens_for_offered_blocks():
    schema = Schema.of(("a", "int64"), ("b", "int64"), ("c", "int64"), ("d", "int64"))
    j = job(Predicate("d", 0, 1), projection=("b",))
    assert invisible_projection_columns(j, will_offer=False, schema=schema) == ("b", "d")
    assert invisible_projection_columns(j, will_offer=True, schema=schema) == ("a", "b", "c", "d")


def test_invisible_projection_full_projection_identical_either_way():
    schema = Schema.of(("a", "int64"), ("d", "int64"))
    j = job(Predicate("d", 0, 1), projection=("a", "d"))
    assert invisible_projection_columns(j, False, schema) == ("a", "d")
    assert invisible_projection_columns(j, True, schema) == ("a", "d")


def test_split_invariants():
    info = BlockReplicaInfo(1, ReplicaKind.NORMAL, None, frozenset({"a"}), "p")
    with pytest.raises(SchemaError):
        InputSplit(1, (BlockRef(0, info), BlockRef(1, info)), ScanKind.FULL_SCAN)
    with pytest.raises(SchemaError):
        InputSplit(2, (BlockRef(0, info),), ScanKind.INDEX_SCAN)  # wrong node
    with pytest.raises(SchemaError):
        InputSplit(1, (), ScanKind.INDEX_SCAN)


def test_predicate_bound_of_the_wrong_type_is_a_schema_error():
    # np.bytes_(n) is n zero bytes, and float() and operator.index() take
    # text and booleans, so none of these may reach a comparison.
    schema = Schema.of(("a", "int64"), ("b", "float64"), ("s", "string", 8))
    for pred in (
        Predicate("a", "abc", 3),
        Predicate("b", 0.1, [1]),
        Predicate("s", 1, 2),
        Predicate("s", 0, 10**9),
        Predicate("s", None, "w_00010"),
        Predicate("s", "a", 2.5),
        Predicate("a", "3", 4),
        Predicate("a", " 2 ", 4),
        Predicate("a", b"3", 4),
        Predicate("a", True, 4),
        Predicate("b", 0, np.True_),
        Predicate("b", "0.5", 1),
    ):
        with pytest.raises(SchemaError, match="cannot compare"):
            pred.validate(schema)


def _single_block_fixture(tmp_path, rows=4096, page=1024):
    """One indexed pseudo replica whose sort column is 0..rows-1."""
    schema = Schema.of(("a", "int64"), ("b", "int64"), ("c", "int64"), ("d", "int64"))
    rng = np.random.default_rng(0)
    base = DataBlock(
        42,
        schema,
        {
            "a": rng.integers(0, 100, rows, dtype="<i8"),
            "b": rng.integers(0, 100, rows, dtype="<i8"),
            "c": rng.integers(0, 100, rows, dtype="<i8"),
            "d": rng.permutation(rows).astype("<i8"),
        },
    )
    normal_path = tmp_path / "node_0" / "blocks" / "blk_42"
    write_block(base, normal_path)
    sorted_block, _, _ = build_index(base, "d", page_size_records=page)
    pseudo_path = tmp_path / "node_0" / "pseudo" / "blk_42" / "d"
    write_block(sorted_block, pseudo_path)

    registry = ReplicaRegistry(schema, replication_factor=1)
    normal = BlockReplicaInfo(
        0, ReplicaKind.NORMAL, None, frozenset(schema.names), str(normal_path)
    )
    registry.add_block(42, rows, [normal])
    pseudo = BlockReplicaInfo(0, ReplicaKind.PSEUDO, "d", frozenset(schema.names), str(pseudo_path))
    registry.register_index(42, pseudo)
    ctx = TaskContext(
        registry=registry,
        indexers={0: make_indexer(0, tmp_path / "node_0", registry)},
        will_offer_blocks=frozenset(),
    )
    return schema, base, registry, normal, pseudo, ctx


def test_index_scan_reads_exactly_qualifying_rows(tmp_path):
    # rows 1024..2047 qualify -> the index scan reads exactly 1024 records
    schema, base, registry, normal, pseudo, ctx = _single_block_fixture(tmp_path)
    j = job(Predicate("d", 1024, 2047), projection=("a", "b", "c", "d"))
    split = InputSplit(0, (BlockRef(42, pseudo),), ScanKind.INDEX_SCAN)
    result = record_reader_scan(split, j, ctx)
    assert result.records_read == 1024
    assert result.records_emitted == 1024
    emitted = result.emitted[0]
    assert np.array_equal(np.sort(emitted["d"]), np.arange(1024, 2048))
    assert result.blocks_offered == 0  # index scans never offer


def test_index_scan_unaligned_range_is_exact(tmp_path):
    schema, base, registry, normal, pseudo, ctx = _single_block_fixture(tmp_path)
    j = job(Predicate("d", 100, 3000), projection=("d",))
    split = InputSplit(0, (BlockRef(42, pseudo),), ScanKind.INDEX_SCAN)
    result = record_reader_scan(split, j, ctx)
    assert result.records_read == 2901  # closed range, page-unaligned
    assert np.array_equal(np.sort(result.emitted[0]["d"]), np.arange(100, 3001))


def test_full_scan_zero_matches_still_offers(tmp_path):
    schema, base, registry, normal, pseudo, ctx = _single_block_fixture(tmp_path)
    indexer = make_indexer(0, tmp_path / "node_0", registry, page_size_records=1024)
    ctx.indexers[0] = indexer
    ctx.will_offer_blocks = frozenset({42})
    j = job(Predicate("a", 5000, 6000), projection=("a",), rho=1.0)  # matches nothing
    split = InputSplit(0, (BlockRef(42, normal),), ScanKind.FULL_SCAN)
    result = record_reader_scan(split, j, ctx)
    assert result.records_emitted == 0
    assert result.records_read == base.record_count
    assert result.blocks_offered == 1
    indexer.drain()


def test_full_scan_missing_file_fails_task(tmp_path):
    schema, base, registry, normal, pseudo, ctx = _single_block_fixture(tmp_path)
    ghost = BlockReplicaInfo(0, ReplicaKind.NORMAL, None, frozenset(schema.names), str(tmp_path / "gone"))
    split = InputSplit(0, (BlockRef(42, ghost),), ScanKind.FULL_SCAN)
    j = job(Predicate("a", 0, 10), projection=("a",))
    with pytest.raises(FileNotFoundError):
        record_reader_scan(split, j, ctx)


def test_index_scan_bytes_below_full_scan_bytes(tmp_path):
    # I/O monotonicity at moderate qualifying fractions
    schema, base, registry, normal, pseudo, ctx = _single_block_fixture(tmp_path)
    for lo, hi in [(0, 7), (0, 407), (100, 2100), (2000, 2047)]:
        j = job(Predicate("d", lo, hi), projection=("a", "b", "c", "d"))
        full = record_reader_scan(
            InputSplit(0, (BlockRef(42, normal),), ScanKind.FULL_SCAN), j, ctx
        )
        indexed = record_reader_scan(
            InputSplit(0, (BlockRef(42, pseudo),), ScanKind.INDEX_SCAN), j, ctx
        )
        assert indexed.records_emitted == full.records_emitted
        assert indexed.bytes_read < full.bytes_read


def test_a_task_emits_only_the_projected_columns(tmp_path):
    schema, base, registry, normal, pseudo, ctx = _single_block_fixture(tmp_path)
    j = job(Predicate("d", 0, 99), projection=("b", "a"), job_id="m")
    for replica, kind in ((pseudo, ScanKind.INDEX_SCAN), (normal, ScanKind.FULL_SCAN)):
        result = record_reader_scan(InputSplit(0, (BlockRef(42, replica),), kind), j, ctx)
        assert result.emitted and all(list(part) == ["a", "b"] for part in result.emitted)
        assert result.records_emitted == 100
        for name in ("a", "b"):
            got = np.concatenate([part[name] for part in result.emitted])
            assert np.array_equal(np.sort(got), np.sort(base.columns[name][base.columns["d"] <= 99]))


def test_selectivity_mode_reads_full_schema_and_filters_offers(tmp_path):
    schema, base, registry, normal, pseudo, ctx = _single_block_fixture(tmp_path)
    indexer = make_indexer(0, tmp_path / "node_0", registry, page_size_records=1024)
    policy = OfferPolicy(mode=SELECTIVITY, selectivity_threshold=0.8)
    ctx.indexers[0] = indexer
    ctx.will_offer_blocks = frozenset({42})  # the runner offers every full-scanned block

    # ~25% of rows qualify: below the threshold, so no offer
    j = JobSpec("s", Predicate("d", 0, 1023), ("a",), policy=policy)
    result = record_reader_scan(
        InputSplit(0, (BlockRef(42, normal),), ScanKind.FULL_SCAN), j, ctx
    )
    assert result.blocks_offered == 0
    # full schema read despite the single-attribute projection
    full_bytes_floor = base.record_count * schema.row_width
    assert result.bytes_read >= full_bytes_floor

    # ~90% qualify: offered
    j2 = JobSpec("s2", Predicate("d", 0, 3700), ("a",), policy=policy)
    result2 = record_reader_scan(
        InputSplit(0, (BlockRef(42, normal),), ScanKind.FULL_SCAN), j2, ctx
    )
    assert result2.blocks_offered == 1
    indexer.drain()


class _HandOffRecorder:
    """Stands in for a node's indexer: accepts and keeps every hand-off."""

    def __init__(self):
        self.work = []

    def hand_off(self, work):
        self.work.append(work)


# d holds 0..4095, so [0, 1023] qualifies 25% of the rows and [0, 3700] 90%.
@pytest.mark.parametrize("high", [1023, 3700], ids=["below_threshold", "above_threshold"])
@pytest.mark.parametrize(
    "offers",
    [frozenset(range(100)), frozenset(), frozenset({42})],
    ids=["all", "none", "picked"],
)
@pytest.mark.parametrize("mode", [OFFER_RATE, EAGER, SELECTIVITY])
def test_offer_rule_matrix(tmp_path, monkeypatch, mode, offers, high):
    # A full-scanned block is offered when it is a plan-time candidate (in
    # `offers`) and the policy admits its qualifying fraction; under
    # invisible projection a candidate reads the whole schema.
    schema, base, registry, normal, pseudo, ctx = _single_block_fixture(tmp_path)
    indexer = _HandOffRecorder()
    ctx.indexers[0] = indexer
    ctx.will_offer_blocks = offers
    reads = []
    read_block = execution.read_block

    def recording_read_block(path, columns, **kwargs):
        reads.append(columns)
        return read_block(path, columns, **kwargs)

    monkeypatch.setattr(execution, "read_block", recording_read_block)
    policy = OfferPolicy(mode=mode, rho=1.0, selectivity_threshold=0.8)
    j = JobSpec("m", Predicate("d", 0, high), ("a",), policy=policy)
    result = record_reader_scan(InputSplit(0, (BlockRef(42, normal),), ScanKind.FULL_SCAN), j, ctx)

    candidate = 42 in offers
    admitted = mode != SELECTIVITY or high == 3700
    assert result.blocks_offered == len(indexer.work) == int(candidate and admitted)
    assert reads == [schema.names if candidate else ("a", "d")]


def test_full_queue_makes_the_offering_task_wait(tmp_path, monkeypatch):
    import time

    import adaptidx.indexer as indexer_module

    schema, base, registry, normal, pseudo, ctx = _single_block_fixture(tmp_path)
    assert registry.find_index(42, "a") is None
    monkeypatch.setattr(indexer_module, "QUEUE_CAPACITY", 1)
    indexer = make_indexer(0, tmp_path / "node_0", registry)
    gate = threading.Event()
    original = indexer._index_one
    indexer._index_one = lambda work: (gate.wait(10), original(work))[1]
    ctx.indexers[0] = indexer
    ctx.will_offer_blocks = frozenset({42})

    j = job(Predicate("a", 0, 100), projection=("a",), rho=1.0)
    split = InputSplit(0, (BlockRef(42, normal),), ScanKind.FULL_SCAN)
    results = []
    # The first two offers take both slots of the two-thread pool, and the
    # third waits for one.
    producer = threading.Thread(
        target=lambda: [results.append(record_reader_scan(split, j, ctx)) for _ in range(3)]
    )
    producer.start()
    deadline = time.monotonic() + 10
    while indexer.stats.enqueued < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    producer.join(timeout=0.3)
    assert producer.is_alive()
    assert len(results) == 2
    gate.set()
    producer.join(timeout=10)
    assert not producer.is_alive()
    indexer.drain()
    third = results[2]
    assert not any(r.failed for r in results)
    assert third.blocks_offered == 1
    assert third.records_read == base.record_count
    assert registry.find_index(42, "a") is not None


def test_io_monotonicity_property(tmp_path):
    # index-scan bytes stay below full-scan bytes for qualifying fractions
    # up to one half (near f=1 the index side's directory and boundary-probe
    # overhead can exceed the savings, so the bound is scoped)
    import random

    schema, base, registry, normal, pseudo, ctx = _single_block_fixture(tmp_path)
    rows = base.record_count
    rnd = random.Random(99)
    for _ in range(25):
        width = rnd.randint(0, rows // 2 - 1)
        lo = rnd.randint(0, rows - 1 - width)
        proj = rnd.choice([("d",), ("a", "d"), ("a", "b", "c", "d")])
        j = job(Predicate("d", lo, lo + width), projection=proj)
        full = record_reader_scan(
            InputSplit(0, (BlockRef(42, normal),), ScanKind.FULL_SCAN), j, ctx
        )
        indexed = record_reader_scan(
            InputSplit(0, (BlockRef(42, pseudo),), ScanKind.INDEX_SCAN), j, ctx
        )
        fraction = (width + 1) / rows
        assert fraction <= 0.5
        assert indexed.bytes_read < full.bytes_read, (lo, width, proj)
        assert indexed.records_emitted == full.records_emitted


def _emitted_matrix(results, proj):
    chunks = [c for r in results for c in r.emitted]
    if not chunks:
        return np.empty((0, len(proj)))
    cols = {n: np.concatenate([c[n] for c in chunks]) for n in proj}
    rows = np.stack([cols[n].astype("f8") for n in proj], axis=1)
    return rows[np.lexsort(rows.T[::-1])]


def test_scan_equivalence_across_modes(tmp_path):
    dataset = gen_synthetic(10_000, seed=23)
    proj = ("a", "b", "f")
    lo, hi = 0.25, 0.75

    def oracle():
        mask = (dataset.columns["b"] >= lo) & (dataset.columns["b"] <= hi)
        rows = np.stack([dataset.columns[n][mask].astype("f8") for n in proj], axis=1)
        return rows[np.lexsort(rows.T[::-1])]

    cluster = make_cluster(tmp_path / "c", nodes=3, slots=2, replication=2, block_records=1000)
    cluster.upload_dataset(dataset)
    runner = WorkloadRunner(cluster)

    full = runner.run_job(job(Predicate("b", lo, hi), proj, rho=0.0, job_id="full"))
    mixed_warm = runner.run_job(job(Predicate("b", lo, hi), proj, rho=0.4, job_id="warm"))
    mixed = runner.run_job(job(Predicate("b", lo, hi), proj, rho=0.0, job_id="mixed"))
    runner.run_job(job(Predicate("b", lo, hi), proj, rho=1.0, job_id="conv"))
    indexed = runner.run_job(job(Predicate("b", lo, hi), proj, rho=0.0, job_id="indexed"))

    expected = oracle()
    for outcome in (full, mixed_warm, mixed, indexed):
        assert not outcome.metrics.failed, outcome.metrics.error
        assert np.array_equal(_emitted_matrix(outcome.results, proj), expected)

    assert mixed.metrics.index_scan_tasks > 0 and mixed.metrics.full_scan_tasks > 0
    assert indexed.metrics.full_scan_tasks == 0
    cluster.close()


def _emitted_column(results, name):
    chunks = [c[name] for r in results for c in r.emitted]
    return np.sort(np.concatenate(chunks)) if chunks else np.empty(0, "<i8")


@pytest.mark.parametrize(
    "low,high",
    [
        (9.2, 9.9),  # no integer inside: 0 rows, not the 360 rows where a == 9
        (8.5, 9.5),  # a == 9 only
        (7, 8),
        (-math.inf, 8.5),
        (7.5, math.inf),
        (-math.inf, math.inf),
        (10.5, 1e30),
        (1e30, math.inf),
        (-(2**70), 2**70),
    ],
)
def test_int64_bounds_select_the_integers_in_the_range_on_both_scan_paths(tmp_path, low, high):
    dataset = gen_synthetic(4000, seed=3)
    column = dataset.columns["a"]
    expected = np.sort(column[(column >= low) & (column <= high)])
    proj = ("a", "b")

    plain = make_cluster(tmp_path / "plain", nodes=3, replication=2, block_records=500, page_size=64)
    plain.upload_dataset(dataset)
    indexed = make_cluster(tmp_path / "indexed", nodes=3, replication=2, block_records=500, page_size=64)
    indexed.upload_dataset(dataset, ["a"])
    full = WorkloadRunner(plain).run_job(job(Predicate("a", low, high), proj, job_id="full"))
    index = WorkloadRunner(indexed).run_job(job(Predicate("a", low, high), proj, job_id="index"))
    plain.close()
    indexed.close()

    assert full.metrics.index_scan_tasks == 0 and full.metrics.full_scan_tasks == 8
    assert index.metrics.index_scan_tasks > 0 and index.metrics.full_scan_tasks == 0
    for outcome in (full, index):
        assert not outcome.metrics.failed, outcome.metrics.error
        assert outcome.metrics.records_emitted == len(expected)
        assert np.array_equal(_emitted_column(outcome.results, "a"), expected)


def test_nan_sort_keys_index_at_upload_and_adaptively_and_scan_like_a_full_scan(tmp_path):
    # NaN keys sort last, so whole pages of the sorted column start with NaN,
    # which compares unequal to itself: the block's own check must still
    # accept `build_index`'s output. The 4 rows [0.5, nan, 0.1, nan] at page
    # size 2 are the smallest such block.
    rows = 64
    b = np.random.default_rng(4).random(rows)
    b[:4] = [0.5, np.nan, 0.1, np.nan]
    b[4::3] = np.nan
    dataset = Dataset(Schema.of(("a", "int64"), ("b", "float64")),
                      {"a": np.arange(rows, dtype="<i8"), "b": b})
    expected = np.flatnonzero((b >= 0.2) & (b <= 0.7))
    query = Predicate("b", 0.2, 0.7)

    upload = make_cluster(tmp_path / "upload", nodes=2, replication=1, block_records=16,
                          page_size=2)
    upload.upload_dataset(dataset, ["b"])
    adaptive = make_cluster(tmp_path / "adaptive", nodes=2, replication=1, block_records=16,
                            page_size=2)
    adaptive.upload_dataset(dataset)
    outcomes = []
    for cluster in (upload, adaptive):
        runner = WorkloadRunner(cluster)
        for n in range(2):
            outcomes.append(runner.run_job(job(query, ("a", "b"), rho=1.0, job_id=f"j{n}")))
        stats = [indexer.stats for indexer in cluster.indexers.values()]
        assert sum(s.failures for s in stats) == 0
        assert cluster.registry.indexed_block_count("b") == cluster.registry.block_count
        cluster.close()

    full_scan = outcomes[2]
    assert full_scan.metrics.index_scan_tasks == 0
    for outcome in outcomes:
        assert not outcome.metrics.failed, outcome.metrics.error
        assert np.array_equal(_emitted_column(outcome.results, "a"), expected)
    for index_scan in (outcomes[0], outcomes[1], outcomes[3]):
        assert index_scan.metrics.full_scan_tasks == 0


def test_a_string_bound_with_trailing_nuls_selects_what_a_full_scan_does(tmp_path):
    # A column compares as if NUL-padded, so b"w04\0" equals the key b"w04",
    # but Python bytes order it after b"w04". The page directory's search
    # must agree with the column: unstripped, the bound skipped the page
    # holding the first three b"w04" rows and 2 of the 5 rows came back.
    keys = np.array([b"w05", b"w04", b"w07", b"w04", b"w03", b"w06", b"w04", b"w04"], "S3")
    dataset = Dataset(Schema.of(("a", "int64"), ("s", "string", 3)),
                      {"a": np.arange(8, dtype="<i8"), "s": keys})
    cluster = make_cluster(tmp_path / "c", nodes=1, replication=1, block_records=8, page_size=4)
    cluster.upload_dataset(dataset, ["s"])
    low, high = b"w04\0", b"w05"
    expected = np.flatnonzero((keys >= np.bytes_(low)) & (keys <= np.bytes_(high)))
    assert len(expected) == 5
    outcome = WorkloadRunner(cluster).run_job(job(Predicate("s", low, high), ("a",)))
    cluster.close()
    assert not outcome.metrics.failed, outcome.metrics.error
    assert outcome.metrics.index_scan_tasks == 1 and outcome.metrics.full_scan_tasks == 0
    assert np.array_equal(_emitted_column(outcome.results, "a"), expected)


def test_predicate_bounds_are_coerced_in_one_place():
    schema = Schema.of(("a", "int64"), ("b", "float64"), ("s", "string", 4))
    assert Predicate("a", 9.2, 9.9).bounds(schema) == (1, 0)  # empty, and no error
    assert Predicate("a", 2.5, 4.5).bounds(schema) == (3, 4)
    assert Predicate("a", -math.inf, math.inf).bounds(schema) == (-(2**63), 2**63 - 1)
    assert Predicate("a", np.int64(2**62 + 1), 2**62 + 1).bounds(schema) == (2**62 + 1,) * 2
    assert Predicate("b", 1, math.inf).bounds(schema) == (1.0, math.inf)
    assert Predicate("s", "ab", b"b").bounds(schema) == (b"ab", b"b")
    # Trailing NULs go, as the column ignores them; a bound wider than the
    # column stays whole, as the column compares it whole.
    assert Predicate("s", "ab\0", b"bcdefg\0\0").bounds(schema) == (b"ab", b"bcdefg")
    for pred, message in (
        (Predicate("a", math.nan, 3), "NaN"),
        (Predicate("b", 0.0, math.nan), "NaN"),
        (Predicate("a", 9.9, 9.2), "empty"),
        (Predicate("b", 0.5, 0.25), "empty"),
        (Predicate("s", "b", "a"), "empty"),
    ):
        with pytest.raises(SchemaError, match=message):
            pred.validate(schema)


def _open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")


@needs_proc
@pytest.mark.parametrize("mode", ["invisible", "lazy"])
def test_index_scans_close_their_descriptors(tmp_path, mode):
    # Invisible: every block has a complete replica indexed at upload. Lazy:
    # the first job leaves partial replicas, so the second reads its missing
    # column from the normal replicas as well, and its completions replace
    # the partial ones. Every replica read stays open until the cluster
    # closes, except one whose completion a scan hands off, which that scan
    # closes.
    before = _open_descriptors()
    cluster = make_cluster(
        tmp_path / "c", nodes=3, replication=2, block_records=500, page_size=64,
        projection_mode=mode,
    )
    cluster.upload_dataset(gen_synthetic(4000, seed=5), ["b"] if mode == "invisible" else [])
    runner = WorkloadRunner(cluster)
    if mode == "lazy":
        runner.run_job(job(Predicate("b", 0.2, 0.4), ("b", "c"), rho=1.0, job_id="build"))
    kinds = {cluster.registry.find_index(b, "b").kind for b in cluster.registry.block_ids}
    assert kinds == {ReplicaKind.NORMAL if mode == "invisible" else ReplicaKind.PARTIAL_PSEUDO}
    held = _open_descriptors()
    blocks = cluster.registry.block_count
    # Lazy: "scan" leaves the normal replicas open, and "again" reopens the
    # completed replicas beside them.
    open_after = (blocks, blocks) if mode == "invisible" else (blocks, 2 * blocks)
    for job_id, expected in zip(("scan", "again"), open_after):
        outcome = runner.run_job(job(Predicate("b", 0.2, 0.4), ("b", "c", "d"), job_id=job_id))
        assert not outcome.metrics.failed, outcome.metrics.error
        assert outcome.metrics.full_scan_tasks == 0
        assert len(cluster.open_replicas._entries) == expected
        assert _open_descriptors() == held + expected
    cluster.close()
    assert len(cluster.open_replicas._entries) == 0
    assert _open_descriptors() == before


@needs_proc
def test_an_unclosed_cluster_closes_its_open_replicas_when_collected(tmp_path):
    cluster = make_cluster(tmp_path / "c", nodes=3, replication=2, block_records=500, page_size=64)
    cluster.upload_dataset(gen_synthetic(4000, seed=5), ["b"])
    registry = cluster.registry  # keeps the journal open, so only replicas are counted
    gc.collect()  # so that only this cluster's garbage is collected below
    before = _open_descriptors()
    assert not WorkloadRunner(cluster).run_job(job(Predicate("b", 0.2, 0.4), ("c",))).metrics.failed
    assert _open_descriptors() == before + registry.block_count
    del cluster
    gc.collect()
    assert _open_descriptors() == before - 1  # the directory lock's went too


def _open_paths() -> set[str]:
    paths = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            paths.add(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:  # closed since the listing
            pass
    return paths


@needs_proc
def test_an_unclosed_cluster_stops_its_indexers_and_closes_its_journal_when_collected(tmp_path):
    before = set(threading.enumerate())
    cluster = make_cluster(tmp_path / "c", nodes=3, replication=2, block_records=500, page_size=64)
    cluster.upload_dataset(gen_synthetic(4000, seed=5))
    build = job(Predicate("b", 0.2, 0.4), ("b",), rho=1.0, job_id="build")
    assert not WorkloadRunner(cluster).run_job(build).metrics.failed
    workers = set(threading.enumerate()) - before  # the cluster's pool
    journal = os.path.realpath(tmp_path / "c" / REGISTRY_JOURNAL)
    assert journal in _open_paths() and workers and all(w.is_alive() for w in workers)
    del cluster
    gc.collect()
    for worker in workers:
        worker.join(timeout=10)
    assert not any(w.is_alive() for w in workers)
    assert journal not in _open_paths()
    Cluster.open(tmp_path / "c").close()  # its directory lock went too


@needs_proc
def test_a_cluster_holds_no_more_replicas_open_than_its_bound(tmp_path, monkeypatch):
    monkeypatch.setattr(blockfile, "MAX_OPEN_REPLICAS", 3)
    start = _open_descriptors()
    cluster = make_cluster(
        tmp_path / "c", nodes=3, replication=2, block_records=500, page_size=64,
        projection_mode="lazy",
    )
    cluster.upload_dataset(gen_synthetic(4000, seed=5))
    runner = WorkloadRunner(cluster)
    runner.run_job(job(Predicate("b", 0.2, 0.4), ("b",), rho=1.0, job_id="build"))
    table = cluster.open_replicas
    before = _open_descriptors()
    sizes = []
    table_open = table.open

    def counted_open(*args):
        out = table_open(*args)
        sizes.append(len(table._entries))
        return out

    table.open = counted_open
    for job_id, projection in (("c", ("c",)), ("cd", ("c", "d")), ("again", ("c", "d"))):
        outcome = runner.run_job(job(Predicate("b", 0.2, 0.4), projection, job_id=job_id))
        assert not outcome.metrics.failed, outcome.metrics.error
        assert outcome.metrics.full_scan_tasks == 0
        # Counted once the drain has left the pool threads idle, which open
        # files of their own meanwhile.
        assert _open_descriptors() - before == len(table._entries) <= 3
    # Per block: both replicas in "c" and "cd", then the completed replica.
    assert len(sizes) == 5 * cluster.registry.block_count
    assert max(sizes) == 3
    cluster.close()
    assert _open_descriptors() == start


@needs_proc
def test_read_block_closes_its_descriptor(tmp_path):
    path = tmp_path / "blk"
    schema, base, *_ = _single_block_fixture(tmp_path)
    write_block(base, path)
    before = _open_descriptors()
    execution.read_block(path)
    with pytest.raises(SchemaError):
        execution.read_block(path, ["nope"])
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(BlockFormatError):
        execution.read_block(path)
    assert _open_descriptors() == before


@needs_proc
def test_a_replica_truncated_inside_its_columns_fails_its_task_and_closes_it(tmp_path):
    cluster = make_cluster(tmp_path / "c", nodes=3, replication=2, block_records=500, page_size=64)
    cluster.upload_dataset(gen_synthetic(4000, seed=5), ["b"])
    runner = WorkloadRunner(cluster)
    warm = runner.run_job(job(Predicate("b", 0.0, 1.0), ("c",), job_id="warm")).metrics
    assert not warm.failed
    info = cluster.registry.find_index(3, "b")
    good = Path(info.path).read_bytes()
    with open(info.path, "rb", buffering=0) as f:
        header = read_header(f)
    os.truncate(info.path, header.column_offsets["c"] + 8)  # inside column c; the table sees it

    before = _open_descriptors()
    outcome = runner.run_job(job(Predicate("b", 0.0, 1.0), ("c",), job_id="cut"))
    assert _open_descriptors() == before - 1  # the failed replica's descriptor is closed
    assert outcome.metrics.failed
    failed = [r for r in outcome.results if r.failed]
    assert len(failed) == 1 and 3 in failed[0].block_ids
    assert "truncated block file" in failed[0].error

    # A good copy under the same path is a new file, which the next job
    # opens: a descriptor kept from the failed job would read the cut one.
    Path(info.path + ".good").write_bytes(good)
    os.replace(info.path + ".good", info.path)
    mended = runner.run_job(job(Predicate("b", 0.0, 1.0), ("c",), job_id="mended")).metrics
    assert not mended.failed, mended.error
    assert (mended.records_emitted, mended.bytes_read) == (warm.records_emitted, warm.bytes_read)
    cluster.close()


def test_a_normal_replica_cut_inside_a_column_a_fill_reads_fails_its_task_and_closes_it(
    tmp_path,
):
    # One block on one node. A lazy job leaves a partial replica of (a, d)
    # sorted on d; the next job projects c, which the fill reads from the
    # node's normal replica, cut inside column c.
    cluster = make_cluster(tmp_path / "c", nodes=1, slots=1, replication=1, block_records=1000,
                           page_size=64, projection_mode="lazy")
    cluster.upload_dataset(gen_synthetic(1000, seed=5))
    build = job(Predicate("d", 0.2, 0.6), ("a",), rho=1.0, job_id="build")
    assert not WorkloadRunner(cluster).run_job(build).metrics.failed
    [partial] = [r for r in cluster.registry.replicas(0) if r.kind == ReplicaKind.PARTIAL_PSEUDO]
    [normal] = cluster.registry.normal_replicas(0)
    with open(normal.path, "rb", buffering=0) as f:
        os.truncate(normal.path, read_header(f).column_offsets["c"] + 8)
    entries = list(cluster.registry.iter_replicas())

    fill = job(Predicate("d", 0.2, 0.6), ("c",), job_id="fill")
    [result] = cluster.run_wave(plan_job(fill, cluster.registry), fill)
    cluster.drain_indexers()
    assert result.failed and "BlockFormatError: truncated block file" in result.error
    assert normal.path not in cluster.open_replicas._entries
    assert partial.path in cluster.open_replicas._entries
    assert cluster.indexers[0].stats.enqueued == 1  # the build's offer alone
    assert list(cluster.registry.iter_replicas()) == entries
    cluster.close()


def test_a_job_projecting_an_attribute_outside_the_schema_fails_before_its_plan(tmp_path):
    cluster = make_cluster(tmp_path / "c", nodes=2, replication=1, block_records=500)
    cluster.upload_dataset(gen_synthetic(1000, seed=5))
    outcome = WorkloadRunner(cluster).run_job(job(Predicate("a", 0, 10), ("a", "zz")))
    assert outcome.metrics.failed and outcome.plan == () and outcome.results == []
    assert outcome.metrics.error == "projected attribute 'zz' not in schema"
    cluster.close()


def test_a_partial_replica_off_its_normal_replicas_node_fails_its_task_and_hands_off_nothing(
    tmp_path,
):
    # Block 0's normal replicas are on node 0, sorted on a, and node 1. A
    # partial replica on d sorted from node 1's rows but filed on node 2 has
    # no normal replica to fill from there; node 0's rows are in another
    # order, so filling from it would emit other rows' values.
    cluster = make_cluster(tmp_path / "c", nodes=3, replication=2, block_records=500,
                           page_size=64, projection_mode="lazy")
    cluster.upload_dataset(gen_synthetic(1000, seed=5), ["a"])
    source = next(r for r in cluster.registry.normal_replicas(0) if r.node_id == 1)
    sorted_block, perm, _ = build_index(execution.read_block(source.path, ("b", "d")), "d", 64)
    sorted_block.permutation = perm
    write_pseudo_replica(sorted_block, cluster.node_root(2), 2, cluster.registry)
    entries = list(cluster.registry.iter_replicas())

    outcome = WorkloadRunner(cluster).run_job(job(Predicate("d", 0.2, 0.6), ("c",), job_id="fill"))
    assert outcome.metrics.failed
    failed = [r for r in outcome.results if r.failed]
    assert len(failed) == 1 and failed[0].block_ids == (0,)
    assert "RegistryError: block 0 has no normal replica on node 2" in failed[0].error
    assert cluster.indexers[2].stats.enqueued == 0
    assert list(cluster.registry.iter_replicas()) == entries
    cluster.close()


def test_a_replica_sorted_on_another_attribute_than_its_entry_fails_its_task_naming_it(
    tmp_path,
):
    # An entry indexed on b whose file is sorted on c: searching c's column
    # with b's bounds would emit some other set of rows.
    cluster = make_cluster(tmp_path / "c", nodes=3, replication=2, block_records=500, page_size=64)
    cluster.upload_dataset(gen_synthetic(1000, seed=5))
    normal = cluster.registry.normal_replicas(0)[0]
    path = cluster.node_root(normal.node_id) / "pseudo" / "blk_0" / "b"
    write_block(build_index(execution.read_block(normal.path), "c", 64)[0], path)
    cluster.registry.register_pseudo(0, normal.node_id, "b", normal.available_attributes, path)

    outcome = WorkloadRunner(cluster).run_job(job(Predicate("b", 0.2, 0.6), ("b", "c")))
    assert outcome.metrics.failed
    failed = [r for r in outcome.results if r.failed]
    assert len(failed) == 1 and failed[0].block_ids == (0,)
    assert f"BlockFormatError: {path} is sorted on 'c', not on 'b'" in failed[0].error
    assert str(path) not in cluster.open_replicas._entries  # dropped, not kept open
    cluster.close()


# -- the index scan's read plan ---------------------------------------------------

# Per sort-key kind: the keys a block draws, with duplicates (and NaN,
# which sorts last), and the bounds a range draws, which reach between,
# below and above the keys. String bounds may end in NUL, which the S2
# column ignores, or be wider than it.
_PLAN_KEYS = {
    "int64": (st.integers(-20, 20), list(range(-22, 23))),
    "float64": (
        st.sampled_from(
            [-1.5, -1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 3.0, math.inf, math.nan]
        ),
        [-math.inf, -2.0, -1.5, -1.2, -1.0, -0.7, -0.5, -0.2, 0.0, 0.1, 0.25, 0.4, 0.5,
         0.6, 0.75, 0.9, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, math.inf],
    ),
    "string": (
        st.sampled_from([b"a", b"ab", b"b", b"ba", b"bb", b"c", b"ca", b"d", b"e", b"f"]),
        [b"", b"a", b"aa", b"ab", b"ab\0", b"b", b"ba", b"bb", b"bbb", b"bc", b"c", b"ca",
         b"cz", b"d", b"dd", b"e", b"f", b"g"],
    ),
}
_PLAN_CASES = (
    "q == 0", "p < 0", "same page", "adjacent pages", "far pages", "reversed", "empty int"
)


def _plan_block(kind, keys):
    """A block whose sort column `k` of `kind` holds `keys`, between two others."""
    schema = Schema.of(("v", "int64"), ("k", kind, 2), ("w", "float64"))
    rows = len(keys)
    return DataBlock(0, schema, {
        "v": np.arange(rows, dtype="<i8"),
        "k": np.array(keys, dtype=schema.attribute("k").dtype),
        "w": np.arange(rows, dtype="<f8") / 8,
    })


@st.composite
def read_plans(draw):
    """A replica's columns and page size, and a range of one case: pages
    q - 1 and p are the boundary pages of the sorted column's directory.
    The bounds are raw, as a predicate holds them."""
    kind = draw(st.sampled_from(sorted(_PLAN_KEYS)))
    keys, bounds = _PLAN_KEYS[kind]
    rows = draw(st.integers(1, 200))
    page = draw(st.sampled_from([1, 2, 3, 8, 32]))
    base = _plan_block(kind, draw(st.lists(keys, min_size=rows, max_size=rows)))
    case = draw(st.sampled_from(_PLAN_CASES if kind == "int64" else _PLAN_CASES[:-1]))
    if case == "empty int":
        return base, page, 1, 0  # what `coerce_range` returns for a range holding no int64
    first_keys = build_index(base, "k", page)[2].first_keys
    candidates = np.array(bounds)  # S3 for strings: wider than the column
    q = first_keys.searchsorted(candidates, side="left")[:, None]  # per low bound
    p = first_keys.searchsorted(candidates, side="right")[None, :] - 1  # per high bound
    gap = p - (q - 1)
    ordered = candidates[:, None] <= candidates[None, :]
    mask = {
        "q == 0": (q == 0) & (p >= 0) & ordered,
        "p < 0": (p < 0) & ordered,
        "same page": (q > 0) & (gap == 0) & ordered,
        "adjacent pages": (q > 0) & (gap == 1) & ordered,
        "far pages": (q > 0) & (gap > 1) & ordered,
        "reversed": (p >= 0) & (gap < 0),
    }[case]
    pairs = np.argwhere(mask)
    assume(len(pairs))
    i, j = pairs[draw(st.integers(0, len(pairs) - 1))]
    if kind == "string":
        return base, page, np.bytes_(bounds[i]), np.bytes_(bounds[j])
    return base, page, bounds[i], bounds[j]


def _page_by_page_row_range(f, header, lo, hi, counter):
    """The record reader's model, one `read_column_range` per boundary page:
    page q - 1 when q > 0, then page p when p >= 0."""
    idx = header.index
    keys, starts = idx.first_keys, header.page_starts
    q = int(keys.searchsorted(lo, side="left"))
    r_lo = 0
    if q > 0:
        vals = blockfile.read_column_range(
            f, header, idx.attribute, starts[q - 1], starts[q], counter
        )
        r_lo = starts[q - 1] + int(vals.searchsorted(lo, side="left"))
    p = int(keys.searchsorted(hi, side="right")) - 1
    if p < 0:
        return 0, 0
    vals = blockfile.read_column_range(f, header, idx.attribute, starts[p], starts[p + 1], counter)
    return r_lo, max(r_lo, starts[p] + int(vals.searchsorted(hi, side="right")))


class _FetchLog:
    """Stands in for `execution.read_column_range` and logs each fetched row
    span as (column, on the indexed replica, start, stop)."""

    def __init__(self):
        self.spans = []

    def __call__(self, f, header, name, start, stop, counter=None):
        out = blockfile.read_column_range(f, header, name, start, stop, counter)
        start, stop = max(start, 0), min(stop, header.record_count)
        if stop > start:
            self.spans.append((name, header.index is not None, start, stop))
        return out

    def sort_rows_fetched_once(self, sort):
        spans = sorted((a, b) for name, indexed, a, b in self.spans if indexed and name == sort)
        return all(b <= c for (_, b), (c, _) in zip(spans, spans[1:]))

    def bytes(self, schema):
        return sum((b - a) * schema.attribute(n).item_size for n, _, a, b in self.spans)


@given(
    read_plans(),
    st.lists(st.sampled_from(["v", "k", "w"]), min_size=1, unique=True),
    st.sampled_from([("v", "k", "w"), ("v", "k"), ("k",)]),
)
# Three cases the draws reach only now and then: NaN page keys after the
# numbers, a low bound whose NUL the column ignores, equal to the first
# key of a page whose previous page holds that key too, and a reversed float
# range equal to the (1, 0) an empty int64 range coerces to.
@example((_plan_block("float64", [0.5, 1.0, math.nan, math.nan]), 1, 0.0, 2.0),
         ["k"], ("v", "k", "w"))
@example((_plan_block("string", [b"a", b"ab", b"ab", b"ab"]), 2, np.bytes_(b"ab\0"),
          np.bytes_(b"bbb")), ["v"], ("v", "k", "w"))
@example((_plan_block("float64", [-1.5, -1.0, -0.5, 0.0, 0.25, 0.5, 0.75]), 1, 1.0, 0.0),
         ["v"], ("v", "k", "w"))
@settings(max_examples=200, deadline=None)
def test_index_scan_reads_each_sort_column_byte_once_with_the_page_by_page_bill(
    tmp_path_factory, plan, projection, held
):
    # The read plan against the record reader's page-by-page model: the same
    # row span, rows and bill, from one window over the boundary pages or
    # one read per page, and never a sort-column byte fetched twice or a
    # byte fetched and not billed. Held columns short of the schema make
    # a partial replica with a permutation vector over the normal replica.
    base, page, lo, hi = plan
    schema = base.schema
    # The helper takes each bound as a predicate coerces it, the reference
    # (numpy over the page directory) takes them raw.
    clo, chi = (Predicate("k", b, b).bounds(schema)[0] for b in (lo, hi))
    root = tmp_path_factory.mktemp("plan")
    normal_path, pseudo_path = root / "normal", root / "pseudo"
    write_block(base, normal_path)
    sub = DataBlock(0, schema.subset(held), {n: base.columns[n] for n in held})
    replica, perm, _ = build_index(sub, "k", page)
    if len(held) < len(schema.names):
        replica.permutation = perm
    write_block(replica, pseudo_path)
    sorted_base = build_index(base, "k", page)[0]
    column = sorted_base.columns["k"]

    # The helper, through a file object as criterion 5 calls it.
    with open(pseudo_path, "rb", buffering=0) as f:
        header = read_header(f)
        reference = ReadCounter()
        r_lo, r_hi = _page_by_page_row_range(f, header, lo, hi, reference)
        for keep in (False, True):
            log, billed = _FetchLog(), ReadCounter()
            with mock.patch.object(execution, "read_column_range", log):
                got = execution._search_sort_column(f, header, clo, chi, billed, keep)
            expected = reference.bytes_read
            if keep:
                expected += (r_hi - r_lo) * column.itemsize
                assert got[2].dtype == column.dtype
                assert got[2].tobytes() == column[r_lo:r_hi].tobytes()
            else:
                assert got[2] is None
            assert got[:2] == (r_lo, r_hi)
            assert billed.bytes_read == expected
            assert log.sort_rows_fetched_once("k") and log.bytes(schema) <= billed.bytes_read
        assert execution._refine_row_range(f, header, clo, chi, None) == (r_lo, r_hi)
    if clo <= chi:
        assert r_hi - r_lo == int(((column >= lo) & (column <= hi)).sum())

    # A whole index scan, when the range is one a predicate can give. Only an
    # int64 column coerces a range to (1, 0); on a float column 1.0 > 0.0 is
    # a reversed range like any other, though it compares equal to (1, 0).
    empty_int = schema.attribute("k").kind == "int64" and (lo, hi) == (1, 0)
    if clo > chi and not empty_int:
        return
    predicate = Predicate("k", 0.2, 0.8) if empty_int else Predicate("k", lo, hi)
    assert predicate.bounds(schema) == (clo, chi)
    registry = ReplicaRegistry(schema, replication_factor=1)
    normal = BlockReplicaInfo(
        0, ReplicaKind.NORMAL, None, frozenset(schema.names), str(normal_path)
    )
    registry.add_block(0, base.record_count, [normal])
    kind = ReplicaKind.PSEUDO if replica.permutation is None else ReplicaKind.PARTIAL_PSEUDO
    pseudo = BlockReplicaInfo(0, kind, "k", frozenset(held), str(pseudo_path))
    registry.register_index(0, pseudo)
    indexer = make_indexer(0, root, registry)
    ctx = TaskContext(registry=registry, indexers={0: indexer}, will_offer_blocks=frozenset())
    split = InputSplit(0, (BlockRef(0, pseudo),), ScanKind.INDEX_SCAN)
    log = _FetchLog()
    with mock.patch.object(execution, "read_column_range", log):
        result = record_reader_scan(split, job(predicate, tuple(projection)), ctx)
    ctx.replicas.close()
    indexer.drain()  # a completion finds no replica at the node's layout path
    assert not result.failed, result.error

    wanted = [n for n in schema.names if n in projection]
    missing = [n for n in wanted if n not in held]
    expected = ReadCounter()
    with open(pseudo_path, "rb", buffering=0) as f:
        header = read_header(f, expected)
        _page_by_page_row_range(f, header, lo, hi, expected)
        for name in wanted:
            if name in held:
                blockfile.read_column_range(f, header, name, r_lo, r_hi, expected)
        if missing:
            blockfile.read_permutation(f, header, expected)
    if missing:
        with open(normal_path, "rb", buffering=0) as f:
            header = read_header(f, expected)
            for name in missing:
                blockfile.read_column_range(f, header, name, 0, base.record_count, expected)
    assert result.records_read == result.records_emitted == r_hi - r_lo
    assert result.bytes_read == expected.bytes_read
    assert log.sort_rows_fetched_once("k") and log.bytes(schema) <= result.bytes_read
    emitted = {n: sorted_base.columns[n][r_lo:r_hi] for n in wanted}
    if r_hi == r_lo:
        assert result.emitted == []
    else:
        [columns] = result.emitted
        assert list(columns) == wanted
        assert all(columns[n].tobytes() == emitted[n].tobytes() for n in wanted)
