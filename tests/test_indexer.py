import math
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import adaptidx.blockfile as blockfile
import adaptidx.indexer as indexer_module
import adaptidx.lazy as lazy
from adaptidx.blocks import DataBlock, Schema, blocks_equal
from adaptidx.blockfile import pseudo_replica_path, read_block
from adaptidx.errors import ConfigError, SchemaError
from adaptidx.indexer import (
    BUILD,
    COMPLETE,
    EAGER,
    OFFER_RATE,
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

from conftest import make_block, make_indexer

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


SPECIAL_FLOATS = np.array([-np.inf, -1.5, -0.0, 0.0, 2.5, np.inf, np.nan])


def oracle_keys(case, rows, rng):
    """(attribute, key column) for one case; "int" keeps make_block's int64
    keys, drawn from 2000 values, so larger blocks have ties."""
    if case == "int_unique":
        return "d", (rng.permutation(rows) * 3 - rows).astype("<i8")
    if case == "float_unique":
        keys = np.concatenate([[-np.inf, np.inf], np.arange(rows - 2) / 7.0])[:rows]
        return "x", rng.permutation(keys)
    if case in ("float_one_nan", "float_nans"):  # no ties but among the NaNs
        keys = rng.permutation(rows) / 7.0
        keys[rng.integers(rows, size=1 if case == "float_one_nan" else rows // 5 + 2)] = np.nan
        return "x", keys
    if case == "float_ties":
        return "x", rng.integers(0, 5, rows) / 2.0
    if case == "float_specials":  # ties, +-0.0, +-inf and several NaNs
        return "x", rng.choice(SPECIAL_FLOATS, rows)
    return "d", None


@given(
    st.integers(0, 2**31),
    st.integers(1, 2000),
    st.sampled_from(
        ["int", "int_unique", "float_unique", "float_one_nan", "float_nans", "float_ties",
         "float_specials"]
    ),
)
@settings(max_examples=100, deadline=None)
def test_build_index_matches_comparison_sort_oracle(seed, rows, case):
    schema = Schema.of(("d", "int64"), ("x", "float64"), ("s", "string", 6))
    block = make_block(schema, rows, seed=seed)
    key, keys = oracle_keys(case, rows, np.random.default_rng(seed))
    if keys is not None:
        block.columns[key] = keys.astype(schema.attribute(key).dtype)
    sorted_block, perm, index = build_index(block, key, page_size_records=64)

    # oracle: a stable comparison sort over (key, original position), NaN
    # last as numpy orders it; -0.0 and 0.0 are equal keys
    col = block.columns[key].tolist()
    nan = [v != v for v in col]
    order = sorted(range(rows), key=lambda i: (nan[i], 0 if nan[i] else col[i], i))
    assert perm[order].tolist() == list(range(rows))
    assert sorted_block.columns[key].tobytes() == block.columns[key][order].tobytes()

    # alignment: out.c[perm[i]] == in.c[i] for every column
    for name in schema.names:
        src = block.columns[name]
        out = sorted_block.columns[name]
        assert np.array_equal(out[perm.astype(np.int64)], src, equal_nan=name != "s")

    # bijectivity, and apply_permutation reproduces the sorted columns
    assert sorted(perm.tolist()) == list(range(rows))
    for name in schema.names:
        assert np.array_equal(
            apply_permutation(perm, block.columns[name]), sorted_block.columns[name],
            equal_nan=name != "s",
        )

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


def test_unknown_offer_mode_rejected():
    for mode in (OFFER_RATE, EAGER, SELECTIVITY):
        assert OfferPolicy(mode=mode).mode == mode
    with pytest.raises(ConfigError, match="unknown offer mode 'offer_rate'"):
        OfferPolicy(mode="offer_rate")


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

    writev = os.writev

    def failing_writev(fd, buffers):
        writev(fd, buffers[:1])  # the header hits disk, then the device "fails"
        raise OSError("disk gone")

    monkeypatch.setattr(os, "writev", failing_writev)
    result = write_pseudo_replica(sorted_block, tmp_path, 0, registry)
    assert result == WriteResult.FAILED
    assert not pseudo_replica_path(tmp_path, 0, "d").exists()
    parent = tmp_path / "pseudo" / "blk_0"
    assert not any(parent.iterdir())  # the half-written file removed
    assert registry.find_index(0, "d") is None


# -- hand-off and drain ---------------------------------------------------------


def make_work(block):
    return IndexWork(BUILD, "d", block)


def test_indexer_processes_offer_end_to_end(tmp_path):
    schema = Schema.of(("d", "int64"), ("x", "float64"))
    registry = fresh_registry(schema)
    indexer = make_indexer(0, tmp_path, registry, page_size_records=32)
    block = make_block(schema, 300, seed=1)
    assert indexer.hand_off(make_work(block)) is True
    indexer.drain()
    assert indexer.stats.written == 1
    assert registry.find_index(0, "d") is not None
    got = read_block(pseudo_replica_path(tmp_path, 0, "d"))
    assert np.all(got.columns["d"][:-1] <= got.columns["d"][1:])
    indexer.close()


def test_handed_off_columns_are_read_only(tmp_path):
    schema = Schema.of(("d", "int64"), ("x", "float64"))
    registry = fresh_registry(schema)
    indexer = make_indexer(0, tmp_path, registry, page_size_records=32)
    block = make_block(schema, 100, seed=6)
    offered = DataBlock(0, schema, {n: c.copy() for n, c in block.columns.items()})
    assert indexer.hand_off(make_work(block))
    with pytest.raises(ValueError):
        block.columns["d"][0] += 1  # the write fails where it happens
    indexer.drain()
    indexer.close()
    assert indexer.stats.written == 1
    assert indexer.stats.failures == 0
    expected, _, _ = build_index(offered, "d")
    assert blocks_equal(read_block(pseudo_replica_path(tmp_path, 0, "d")), expected)


def _completion(block):
    return IndexWork(COMPLETE, "d", block)


def _stalled_handoffs(tmp_path, monkeypatch, kind):
    """An indexer with one slot per pool thread, two in all, whose write
    step blocks until the returned gate is set, and a started producer
    handing it five units of `kind` work. Two stalled units hold both slots,
    so the third hand-off has to wait. Returns the indexer, the gate, the
    producer and the list of block ids the pool has finished, in order."""
    schema = Schema.of(("d", "int64"), ("x", "float64"))
    monkeypatch.setattr(indexer_module, "QUEUE_CAPACITY", 1)
    indexer = make_indexer(0, tmp_path, fresh_registry(schema))
    gate = threading.Event()
    written = []

    def stalled_append(node_root, node_id, registry, block_id, attribute, aligned):
        gate.wait(timeout=10)
        written.append(block_id)
        return True

    def stalled_publish(sorted_block, node_root, node_id, registry):
        gate.wait(timeout=10)
        written.append(sorted_block.block_id)
        return WriteResult.WON

    monkeypatch.setattr(lazy, "append_aligned_columns", stalled_append)
    monkeypatch.setattr(indexer_module, "write_pseudo_replica", stalled_publish)
    work = make_work if kind == BUILD else _completion
    blocks = [make_block(schema, 20, seed=i, block_id=i) for i in range(5)]
    producer = threading.Thread(target=lambda: [indexer.hand_off(work(b)) for b in blocks])
    producer.start()
    deadline = time.monotonic() + 10
    while indexer.stats.enqueued < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    producer.join(timeout=0.3)
    assert producer.is_alive()  # blocked in the third hand-off, not rejected
    assert indexer.stats.enqueued == 2
    return indexer, gate, producer, written


@pytest.mark.parametrize("kind", [BUILD, COMPLETE])
def test_handoff_waits_for_queue_space(tmp_path, monkeypatch, kind):
    indexer, gate, producer, written = _stalled_handoffs(tmp_path, monkeypatch, kind)
    gate.set()
    producer.join(timeout=10)
    assert not producer.is_alive()
    indexer.drain()
    assert sorted(written) == [0, 1, 2, 3, 4]  # the two stalled units may finish either way
    landed = indexer.stats.written if kind == BUILD else indexer.stats.completed
    assert indexer.stats.enqueued == landed == 5
    assert indexer.stats.rejected_full == indexer.stats.failures == 0
    indexer.close()


def test_failed_build_is_counted_and_the_worker_keeps_going(tmp_path):
    schema = Schema.of(("d", "int64"), ("x", "float64"))
    registry = fresh_registry(schema)
    indexer = make_indexer(0, tmp_path, registry, page_size_records=32)
    block = make_block(schema, 50, seed=3)
    assert indexer.hand_off(IndexWork(BUILD, "missing", block))  # raises on the pool
    drainer = threading.Thread(target=indexer.drain)
    drainer.start()
    drainer.join(timeout=10)
    assert not drainer.is_alive()
    assert indexer.stats.failures == 1
    assert indexer.stats.built == indexer.stats.written == 0

    assert indexer.hand_off(make_work(make_block(schema, 50, seed=4)))
    indexer.drain()
    indexer.close()
    assert indexer.stats.written == 1 and indexer.stats.failures == 1
    assert registry.find_index(0, "d") is not None


def test_registrations_land_at_drain_and_a_refused_one_is_a_failure(tmp_path):
    schema = Schema.of(("d", "int64"), ("x", "float64"))
    registry = fresh_registry(schema)
    indexer = make_indexer(0, tmp_path, registry, page_size_records=32)
    gate = threading.Event()
    index_one = indexer._index_one

    def gated(work):
        outcome = index_one(work)
        gate.wait(timeout=10)
        return outcome

    indexer._index_one = gated
    assert indexer.hand_off(make_work(make_block(schema, 50, seed=1)))
    deadline = time.monotonic() + 10
    while not pseudo_replica_path(tmp_path, 0, "d").exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    # Published, but counted and registered only by the thread that drains.
    assert pseudo_replica_path(tmp_path, 0, "d").exists()
    assert registry.find_index(0, "d") is None and indexer.stats.written == 0
    gate.set()
    indexer.drain()
    assert registry.find_index(0, "d") is not None

    # Block 5 is unknown to the registry: the file is written, the
    # registration refused when the drain applies it.
    assert indexer.hand_off(make_work(make_block(schema, 50, seed=2, block_id=5)))
    indexer.drain()
    indexer.close()
    assert pseudo_replica_path(tmp_path, 5, "d").exists()
    assert (indexer.stats.written, indexer.stats.failures) == (2, 1)
    assert [b for b, _ in registry.iter_replicas()] == [0, 0]


def test_closed_indexer_refuses_completions(tmp_path):
    schema = Schema.of(("d", "int64"), ("x", "float64"))
    indexer = make_indexer(0, tmp_path, fresh_registry(schema))
    indexer.close()
    block = make_block(schema, 20)
    assert indexer.hand_off(_completion(block)) is False
    assert block.columns["d"].flags.writeable  # refused work is not frozen
    assert indexer.stats.enqueued == 0
    assert indexer.stats.rejected_full == 1
