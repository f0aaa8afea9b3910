import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import adaptidx.blockfile as blockfile
from adaptidx.blocks import DataBlock, Schema
from adaptidx.blockfile import pseudo_replica_path, read_block
from adaptidx.errors import SchemaError
from adaptidx.indexer import (
    BUILD,
    AdaptiveIndexer,
    IndexWork,
    OfferPolicy,
    SELECTIVITY,
    WriteResult,
    apply_permutation,
    build_index,
    write_pseudo_replica,
)
from adaptidx.registry import BlockReplicaInfo, ReplicaKind, ReplicaRegistry
from adaptidx.scheduler import choose_offer_blocks

from conftest import make_block

PAYLOAD_SCHEMA = Schema.of(("d", "int64"), ("p", "string", 4))


def payload_block(d_values, p_values):
    return DataBlock(
        0,
        PAYLOAD_SCHEMA,
        {
            "d": np.array(d_values, dtype="<i8"),
            "p": np.array(p_values, dtype="S4"),
        },
    )


def test_three_row_hand_oracle():
    # column [5, 1, 3] with payload [x, y, z]:
    # sorted -> [1, 3, 5], payload -> [y, z, x], perm -> [2, 0, 1]
    block = payload_block([5, 1, 3], [b"x", b"y", b"z"])
    sorted_block, perm, index = build_index(block, "d", page_size_records=2)
    assert sorted_block.columns["d"].tolist() == [1, 3, 5]
    assert sorted_block.columns["p"].tolist() == [b"y", b"z", b"x"]
    assert perm.tolist() == [2, 0, 1]
    assert index.entry_count == 2  # ceil(3/2)


def test_sorted_input_gives_identity_permutation():
    block = payload_block([1, 2, 3, 4], [b"a", b"b", b"c", b"d"])
    sorted_block, perm, _ = build_index(block, "d")
    assert perm.tolist() == [0, 1, 2, 3]
    assert sorted_block.columns["d"].tolist() == [1, 2, 3, 4]
    assert sorted_block.columns["p"].tolist() == [b"a", b"b", b"c", b"d"]


def test_missing_attribute_rejected(simple_schema):
    block = make_block(simple_schema, 10)
    with pytest.raises(SchemaError):
        build_index(block, "nope")


def test_stability_on_equal_keys():
    block = payload_block([7, 7, 7, 1], [b"r0", b"r1", b"r2", b"r3"])
    sorted_block, _, _ = build_index(block, "d")
    assert sorted_block.columns["p"].tolist() == [b"r3", b"r0", b"r1", b"r2"]


@given(st.integers(0, 2**31), st.integers(1, 2000))
@settings(max_examples=50, deadline=None)
def test_build_index_matches_comparison_sort_oracle(seed, rows):
    schema = Schema.of(("d", "int64"), ("x", "float64"), ("s", "string", 6))
    block = make_block(schema, rows, seed=seed)
    sorted_block, perm, index = build_index(block, "d", page_size_records=64)

    # oracle: a stable comparison sort over (key, original position)
    col = block.columns["d"].tolist()
    order = sorted(range(rows), key=lambda i: (col[i], i))
    assert sorted_block.columns["d"].tolist() == [col[i] for i in order]

    # alignment: out.c[perm[i]] == in.c[i] for every column
    for name in schema.names:
        src = block.columns[name]
        out = sorted_block.columns[name]
        assert np.array_equal(out[perm.astype(np.int64)], src)

    # bijectivity, and apply_permutation reproduces the sorted columns
    assert sorted(perm.tolist()) == list(range(rows))
    for name in schema.names:
        assert np.array_equal(apply_permutation(perm, block.columns[name]), sorted_block.columns[name])

    index.validate()


@given(st.integers(0, 2**31), st.integers(1, 1500), st.integers(-1100, 1100), st.integers(0, 600))
@settings(max_examples=60, deadline=None)
def test_sparse_lookup_equals_linear_filter(tmp_path_factory, seed, rows, lo, span):
    hi = lo + span
    schema = Schema.of(("d", "int64"), ("x", "float64"))
    block = make_block(schema, rows, seed=seed)
    sorted_block, _, index = build_index(block, "d", page_size_records=32)

    path = tmp_path_factory.mktemp("lookup") / "blk"
    blockfile.write_block(sorted_block, path)
    from adaptidx.execution import _refine_row_range

    with open(path, "rb") as f:
        header = blockfile.read_header(f)
        r_lo, r_hi = _refine_row_range(f, header, lo, hi, None)

    col = sorted_block.columns["d"]
    expected = np.nonzero((col >= lo) & (col <= hi))[0]
    got = np.arange(r_lo, r_hi)
    assert np.array_equal(got, expected)


# -- offer policies ----------------------------------------------------------


def test_offer_rate_hundred_blocks_ten_accepted():
    picked = choose_offer_blocks({0: list(range(1, 101))}, quota=math.ceil(0.1 * 100))
    assert sorted(picked) == [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]  # every tenth


def test_offer_rate_zero_accepts_nothing():
    assert choose_offer_blocks({0: list(range(50))}, quota=math.ceil(0.0 * 50)) == frozenset()


def test_offer_rate_quota_with_fewer_scans_than_spacing():
    # 40 blocks, 4 of them unindexed, rho 0.1: quota 4, all must be picked
    scans = {0: [3, 17], 1: [22, 39]}
    assert choose_offer_blocks(scans, quota=min(math.ceil(0.1 * 40), 4)) == {3, 17, 22, 39}


def test_selectivity_threshold_boundary():
    policy = OfferPolicy(mode=SELECTIVITY, selectivity_threshold=0.8)
    assert [policy.admits(f) for f in (0.79, 0.80, 0.95)] == [False, True, True]


def test_selectivity_direction_flip():
    policy = OfferPolicy(mode=SELECTIVITY, selectivity_threshold=0.2, index_low_fraction=True)
    assert policy.admits(0.05)
    assert not policy.admits(0.5)


@given(
    st.floats(0.0, 1.0),
    st.integers(1, 400),
    st.lists(st.integers(0, 60), max_size=8),
)
@settings(max_examples=120, deadline=None)
def test_offer_quota_bound(rho, n_blocks, scans_per_node):
    ids = iter(range(sum(scans_per_node)))
    scans = {node: [next(ids) for _ in range(k)] for node, k in enumerate(scans_per_node)}
    total = sum(scans_per_node)
    quota = math.ceil(rho * n_blocks)
    picked = choose_offer_blocks(scans, quota)
    # the quota is met exactly whenever enough blocks get scanned
    assert len(picked) == min(quota, total)
    assert picked <= {b for blocks in scans.values() for b in blocks}


# -- pseudo replica writes ----------------------------------------------------


def fresh_registry(schema, node_count=2):
    reg = ReplicaRegistry(schema, replication_factor=1)
    reg.add_block(
        0,
        100,
        [BlockReplicaInfo(0, ReplicaKind.NORMAL, None, frozenset(schema.names), "n")],
    )
    return reg


def test_write_pseudo_replica_uncontended(tmp_path):
    schema = Schema.of(("d", "int64"), ("x", "float64"))
    block = make_block(schema, 100, seed=4)
    sorted_block, _, _ = build_index(block, "d", 32)
    registry = fresh_registry(schema)
    result = write_pseudo_replica(sorted_block, tmp_path, 0, registry)
    assert result == WriteResult.WON
    path = pseudo_replica_path(tmp_path, 0, "d")
    assert path.exists()
    again = read_block(path)
    assert np.array_equal(again.columns["d"], sorted_block.columns["d"])
    info = registry.find_index(0, "d")
    assert info is not None and info.kind == ReplicaKind.PSEUDO and info.node_id == 0


def test_concurrent_writers_one_winner(tmp_path):
    schema = Schema.of(("d", "int64"), ("x", "float64"))
    block = make_block(schema, 200, seed=8)
    sorted_block, _, _ = build_index(block, "d", 32)
    registry = fresh_registry(schema)

    results = []
    barrier = threading.Barrier(2)

    def writer(nonce):
        barrier.wait()
        results.append(write_pseudo_replica(sorted_block, tmp_path, 0, registry, nonce))

    for rep in range(10):
        t1 = threading.Thread(target=writer, args=(f"a{rep}",))
        t2 = threading.Thread(target=writer, args=(f"b{rep}",))
        t1.start(), t2.start()
        t1.join(), t2.join()

    wins = sum(1 for r in results if r == WriteResult.WON)
    assert wins == 1  # first round decided it; every retry loses
    children = list((tmp_path / "pseudo" / "blk_0").iterdir())
    assert [c.name for c in children] == ["d"]
    assert len([r for r in registry.replicas(0) if r.indexed_attribute == "d"]) == 1


def test_write_failure_leaves_no_trace(tmp_path, monkeypatch):
    schema = Schema.of(("d", "int64"), ("x", "float64"))
    block = make_block(schema, 50, seed=2)
    sorted_block, _, _ = build_index(block, "d", 32)
    registry = fresh_registry(schema)

    real_write = blockfile.write_block

    def failing_write(b, path):
        real_write(b, path)  # temp file hits disk, then the device "fails"
        raise OSError("disk gone")

    monkeypatch.setattr(blockfile, "write_block", failing_write)
    result = write_pseudo_replica(sorted_block, tmp_path, 0, registry)
    assert result == WriteResult.FAILED
    assert not pseudo_replica_path(tmp_path, 0, "d").exists()
    parent = tmp_path / "pseudo" / "blk_0"
    assert not any(parent.iterdir())  # temp cleaned up
    assert registry.find_index(0, "d") is None


# -- the queue pipeline --------------------------------------------------------


def make_work(schema, block, attribute="d"):
    return IndexWork(
        kind=BUILD,
        block_id=block.block_id,
        attribute=attribute,
        schema=schema,
        columns=dict(block.columns),
        checksum=block.checksum(),
    )


def test_indexer_processes_offer_end_to_end(tmp_path):
    schema = Schema.of(("d", "int64"), ("x", "float64"))
    registry = fresh_registry(schema)
    indexer = AdaptiveIndexer(0, tmp_path, registry, page_size_records=32)
    block = make_block(schema, 300, seed=1)
    assert indexer.offer(make_work(schema, block)) is True
    indexer.drain()
    assert indexer.stats.written == 1
    assert registry.find_index(0, "d") is not None
    got = read_block(pseudo_replica_path(tmp_path, 0, "d"))
    assert np.all(got.columns["d"][:-1] <= got.columns["d"][1:])
    indexer.close()


def test_indexer_rejects_when_queue_full(tmp_path):
    schema = Schema.of(("d", "int64"), ("x", "float64"))
    registry = fresh_registry(schema)
    indexer = AdaptiveIndexer(0, tmp_path, registry, build_capacity=1, write_capacity=1)

    # Stall the builder so the bounded queue actually fills.
    gate = threading.Event()
    original = indexer._build_one

    def slow_build(work):
        gate.wait(timeout=10)
        return original(work)

    indexer._build_one = slow_build
    block = make_block(schema, 50, seed=3)
    outcomes = [indexer.offer(make_work(schema, block)) for _ in range(4)]
    gate.set()
    indexer.drain()
    assert outcomes.count(False) >= 1  # overflow rejected, producer never blocked
    assert indexer.stats.rejected_full >= 1
    indexer.close()


def test_torn_handoff_detected(tmp_path):
    schema = Schema.of(("d", "int64"), ("x", "float64"))
    registry = fresh_registry(schema)
    indexer = AdaptiveIndexer(0, tmp_path, registry, page_size_records=32)
    block = make_block(schema, 100, seed=6)
    work = make_work(schema, block)
    work.columns["d"][0] += 1  # mutate after the checksum was taken
    assert indexer.offer(work)
    indexer.drain()
    assert indexer.stats.failures == 1
    assert indexer.stats.written == 0
    indexer.close()
