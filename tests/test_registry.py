import dataclasses
import json
import re
import sys
import tempfile
import threading
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from adaptidx.blocks import Schema
from adaptidx.errors import RegistryError, SchemaError
from adaptidx.registry import BlockReplicaInfo, ReplicaKind, ReplicaRegistry

from conftest import track_journal_handles


SCHEMA = Schema.of(("a", "int64"), ("b", "float64"), ("d", "int64"))
FULL = frozenset(SCHEMA.names)


def normal(node, attr=None, path="p"):
    return BlockReplicaInfo(node, ReplicaKind.NORMAL, attr, FULL, path)


def pseudo(node, attr, path="q", available=FULL, partial=False):
    return BlockReplicaInfo(
        node,
        ReplicaKind.PARTIAL_PSEUDO if partial else ReplicaKind.PSEUDO,
        attr,
        available,
        path,
    )


@pytest.fixture
def registry():
    reg = ReplicaRegistry(SCHEMA, replication_factor=3)
    reg.add_block(42, 1000, [normal(0), normal(1), normal(2, attr="a")])
    return reg


def test_register_then_lookup(registry):
    registry.register_index(42, pseudo(1, "d"))
    assert any(
        r.kind == ReplicaKind.PSEUDO and r.indexed_attribute == "d"
        for r in registry.replicas(42)
    )


def test_register_is_idempotent(registry):
    registry.register_index(42, pseudo(1, "d"))
    before = len(registry.replicas(42))
    registry.register_index(42, pseudo(1, "d"))
    assert len(registry.replicas(42)) == before


def test_register_unknown_block(registry):
    with pytest.raises(RegistryError):
        registry.register_index(99, pseudo(0, "d"))


def test_a_normal_replica_is_not_an_index_and_an_unknown_block_has_no_replicas(registry):
    before = registry.replicas(42)
    with pytest.raises(RegistryError, match="register_index only accepts pseudo replicas"):
        registry.register_index(42, normal(0, path="other"))
    with pytest.raises(RegistryError, match="unknown block 7"):
        registry.replicas(7)
    assert registry.replicas(42) == before


def test_find_index_misses_other_attribute(registry):
    registry.register_index(42, pseudo(1, "d"))
    # oracle: exhaustive scan over every registered replica
    assert all(r.indexed_attribute != "b" for r in registry.replicas(42))
    assert registry.find_index(42, "b") is None


def test_find_index_prefers_normal_over_pseudo(registry):
    registry.register_index(42, pseudo(1, "a"))
    hit = registry.find_index(42, "a")
    assert hit is not None and hit.kind == ReplicaKind.NORMAL and hit.node_id == 2


def test_find_index_prefers_pseudo_over_partial(registry):
    registry.register_index(42, pseudo(1, "d", available=frozenset({"d", "b"}), partial=True))
    hit = registry.find_index(42, "d")
    assert hit.kind == ReplicaKind.PARTIAL_PSEUDO
    registry.register_index(42, pseudo(0, "d"))
    hit = registry.find_index(42, "d")
    assert hit.kind == ReplicaKind.PSEUDO and hit.node_id == 0


def test_find_index_tie_break_lowest_node():
    reg = ReplicaRegistry(SCHEMA, replication_factor=3)
    reg.add_block(1, 10, [normal(0), normal(1)])
    reg.register_index(1, pseudo(2, "d", path="x"))
    # same kind on a lower node must win deterministically
    reg2 = ReplicaRegistry(SCHEMA, replication_factor=3)
    reg2.add_block(1, 10, [normal(5, attr="d"), normal(3, attr="d")])
    assert reg2.find_index(1, "d").node_id == 3


def test_partial_upgrade_replaces_entry(registry):
    registry.register_index(42, pseudo(1, "d", available=frozenset({"d"}), partial=True))
    registry.register_index(42, pseudo(1, "d", available=frozenset({"d", "b"}), partial=True))
    hits = [r for r in registry.replicas(42) if r.indexed_attribute == "d"]
    assert len(hits) == 1
    assert hits[0].available_attributes == {"d", "b"}
    registry.register_index(42, pseudo(1, "d"))
    hits = [r for r in registry.replicas(42) if r.indexed_attribute == "d"]
    assert len(hits) == 1 and hits[0].kind == ReplicaKind.PSEUDO


def test_replication_factor_cap():
    reg = ReplicaRegistry(SCHEMA, replication_factor=2)
    with pytest.raises(RegistryError):
        reg.add_block(1, 10, [normal(0), normal(1), normal(2)])


def test_replica_invariants_validated():
    with pytest.raises(SchemaError):
        BlockReplicaInfo(0, ReplicaKind.NORMAL, None, frozenset({"a"}), "p").validate(SCHEMA)
    with pytest.raises(SchemaError):
        BlockReplicaInfo(0, ReplicaKind.PSEUDO, None, FULL, "p").validate(SCHEMA)
    with pytest.raises(SchemaError):
        BlockReplicaInfo(
            0, ReplicaKind.PARTIAL_PSEUDO, "d", frozenset({"b"}), "p"
        ).validate(SCHEMA)
    with pytest.raises(SchemaError):
        BlockReplicaInfo(
            0, ReplicaKind.PARTIAL_PSEUDO, None, frozenset({"d", "b"}), "p"
        ).validate(SCHEMA)


def test_journal_replay_round_trip(tmp_path):
    journal = tmp_path / "registry.journal"
    reg = ReplicaRegistry(SCHEMA, replication_factor=2, journal_path=journal)
    reg.add_block(0, 100, [normal(0), normal(1, attr="a")])
    reg.add_block(1, 100, [normal(1), normal(2)])
    reg.register_index(0, pseudo(1, "d"))
    reg.register_index(1, pseudo(2, "d", available=frozenset({"d", "b"}), partial=True))

    again = ReplicaRegistry.load(journal)
    assert again.schema == SCHEMA
    assert again.replication_factor == 2
    assert again.block_ids == [0, 1]
    blocks = [json.loads(line) for line in journal.read_text().splitlines()]
    counts = {r["block_id"]: r["record_count"] for r in blocks if r.get("event") == "block"}
    assert counts == {0: 100, 1: 100} and again.total_records == 200
    for block_id in (0, 1):
        a = {(r.node_id, r.kind, r.indexed_attribute) for r in reg.replicas(block_id)}
        b = {(r.node_id, r.kind, r.indexed_attribute) for r in again.replicas(block_id)}
        assert a == b
    assert again.find_index(0, "d").kind == ReplicaKind.PSEUDO


def test_journal_replay_keeps_partial_upgrade(tmp_path):
    journal = tmp_path / "registry.journal"
    reg = ReplicaRegistry(SCHEMA, replication_factor=1, journal_path=journal)
    reg.add_block(0, 100, [normal(0)])
    reg.register_index(0, pseudo(0, "d", available=frozenset({"d"}), partial=True))
    reg.register_index(0, pseudo(0, "d", available=frozenset({"d", "b"}), partial=True))
    reg.register_index(0, pseudo(0, "d"))  # final upgrade to a full pseudo

    again = ReplicaRegistry.load(journal)
    hits = [r for r in again.replicas(0) if r.indexed_attribute == "d"]
    assert len(hits) == 1
    assert hits[0].kind == ReplicaKind.PSEUDO
    assert not hits[0].has_permutation_vector


def test_permutation_vector_follows_kind_and_old_journals_load(tmp_path):
    assert pseudo(0, "d", available=frozenset({"d"}), partial=True).has_permutation_vector
    assert not pseudo(0, "d").has_permutation_vector
    assert not normal(0).has_permutation_vector
    assert "has_permutation_vector" not in pseudo(0, "d").to_json()

    # A journal written when the flag was still stored keeps loading.
    journal = tmp_path / "registry.journal"
    ReplicaRegistry(SCHEMA, replication_factor=1, journal_path=journal).add_block(
        0, 100, [normal(0)]
    )
    old_entry = pseudo(0, "d", available=frozenset({"d"}), partial=True).to_json()
    old_entry["has_permutation_vector"] = True
    with open(journal, "a") as f:
        f.write(json.dumps({"event": "register", "block_id": 0, "replica": old_entry}) + "\n")
    again = ReplicaRegistry.load(journal)
    info = again.find_index(0, "d")
    assert info.kind == ReplicaKind.PARTIAL_PSEUDO and info.has_permutation_vector


def test_concurrent_registration_stays_unique(registry):
    barrier = threading.Barrier(8)

    def register():
        barrier.wait()
        for _ in range(50):
            registry.register_index(42, pseudo(1, "d"))

    threads = [threading.Thread(target=register) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    hits = [r for r in registry.replicas(42) if r.indexed_attribute == "d" and r.kind != ReplicaKind.NORMAL]
    assert len(hits) == 1


def test_pseudo_count_per_node_and_attribute(registry):
    registry.register_index(42, pseudo(1, "d"))
    assert registry.pseudo_count(1, "d") == 1
    assert registry.pseudo_count(1, "b") == 0
    assert registry.pseudo_count(0, "d") == 0


NODES = range(4)


def _counts(reg):
    pseudo = {(n, a): reg.pseudo_count(n, a) for n in NODES for a in SCHEMA.names}
    indexed = {a: reg.indexed_block_count(a) for a in SCHEMA.names}
    return pseudo, indexed


def _assert_counts_match_replicas(reg):
    for n in NODES:
        for a in SCHEMA.names:
            expected = sum(
                1
                for _, r in reg.iter_replicas()
                if r.node_id == n and r.kind != ReplicaKind.NORMAL and r.indexed_attribute == a
            )
            assert reg.pseudo_count(n, a) == expected, (n, a)
    for a in SCHEMA.names:
        expected = sum(1 for b in reg.block_ids if reg.find_index(b, a) is not None)
        assert reg.indexed_block_count(a) == expected, a


_add_block = st.tuples(
    st.just("block"),
    st.integers(0, 3),
    st.lists(st.sampled_from(NODES), min_size=1, max_size=3, unique=True),
    st.sampled_from([None, *SCHEMA.names]),
)
_register = st.tuples(
    st.just("index"),
    st.integers(0, 3),
    st.sampled_from(NODES),
    st.sampled_from(SCHEMA.names),
    st.booleans(),  # partial
    st.sets(st.sampled_from(SCHEMA.names)),  # extra attributes of a partial replica
)


@given(st.lists(st.one_of(_add_block, _register), max_size=25))
@settings(max_examples=150, deadline=None)
# A partial replica widened to a pseudo replica on another node, then a
# non-widening re-registration on a third node.
@example(
    [
        ("block", 0, [0, 1], None),
        ("index", 0, 1, "d", True, set()),
        ("index", 0, 2, "d", False, set()),
        ("index", 0, 3, "d", True, {"b"}),
    ]
)
# A partial replica widened by one attribute on another node.
@example(
    [
        ("block", 1, [0, 1, 2], "a"),
        ("index", 1, 0, "b", True, set()),
        ("index", 1, 3, "b", True, {"a"}),
    ]
)
def test_derived_counts_match_brute_force(ops):
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "registry.journal"
        reg = ReplicaRegistry(SCHEMA, replication_factor=3, journal_path=journal)
        for op in ops:
            version, replicas = reg.version, list(reg.iter_replicas())
            _apply(reg, op)
            _assert_counts_match_replicas(reg)
            # The version moves exactly when the replicas do, so a runner
            # may reuse a plan made at an equal one.
            assert reg.version == version + (list(reg.iter_replicas()) != replicas)
        assert _counts(ReplicaRegistry.load(journal)) == _counts(reg)


def _apply(reg, op) -> None:
    """Apply one drawn `add_block` or `register_index`; a rejected one
    (unknown block, replication cap) records nothing."""
    try:
        if op[0] == "block":
            _, block_id, nodes, upload_attr = op
            reg.add_block(
                block_id, 10, [normal(n, attr=upload_attr if i == 0 else None)
                               for i, n in enumerate(nodes)]
            )
        else:
            _, block_id, node, attr, partial, extra = op
            available = frozenset({attr, *extra}) if partial else FULL
            reg.register_index(block_id, pseudo(node, attr, available=available,
                                                partial=partial))
    except RegistryError:
        pass


_KIND_ORDER = [ReplicaKind.NORMAL, ReplicaKind.PSEUDO, ReplicaKind.PARTIAL_PSEUDO]


def _best_by_scan(reg, block_id, attr):
    """The reference for `find_index`: scan the block's replicas in full."""
    if block_id not in reg.block_ids:
        return None
    hits = [r for r in reg.replicas(block_id) if r.indexed_attribute == attr]
    return min(hits, key=lambda r: (_KIND_ORDER.index(r.kind), r.node_id), default=None)


def _assert_best_matches_a_full_scan(reg) -> None:
    for a in SCHEMA.names:
        for b in range(4):
            assert reg.find_index(b, a) == _best_by_scan(reg, b, a), (b, a)
        expected = sum(_best_by_scan(reg, b, a) is not None for b in range(4))
        assert reg.indexed_block_count(a) == expected, a


def _best_without_paths(reg) -> dict:
    """`find_index` per (block, attribute); replay makes paths absolute."""
    best = {}
    for b in range(4):
        for a in SCHEMA.names:
            hit = reg.find_index(b, a)
            best[b, a] = hit and dataclasses.replace(hit, path="")
    return best


@given(st.lists(st.one_of(_add_block, _register), max_size=25))
@settings(max_examples=150, deadline=None)
# A partial replica on node 1 widened onto node 0, which outranks it, then
# widened again onto node 3: the best entry must follow both moves.
@example(
    [
        ("block", 2, [0, 1, 2], None),
        ("index", 2, 1, "b", True, set()),
        ("index", 2, 0, "b", True, {"a"}),
        ("index", 2, 3, "b", True, {"a", "d"}),
        ("index", 2, 2, "b", False, set()),
    ]
)
def test_best_index_table_matches_a_full_scan_and_replays(ops):
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "registry.journal"
        reg = ReplicaRegistry(SCHEMA, replication_factor=3, journal_path=journal)
        for op in ops:
            _apply(reg, op)
            _assert_best_matches_a_full_scan(reg)
        reg.close()
        again = ReplicaRegistry.load(journal)
        _assert_best_matches_a_full_scan(again)
        assert _best_without_paths(again) == _best_without_paths(reg)


def test_corrupt_journal_line_names_its_line(tmp_path):
    journal = tmp_path / "registry.journal"
    reg = ReplicaRegistry(SCHEMA, replication_factor=2, journal_path=journal)
    reg.add_block(0, 100, [normal(0)])
    reg.add_block(1, 100, [normal(1)])
    lines = journal.read_text().splitlines(keepends=True)
    lines[1] = lines[1][: len(lines[1]) // 2] + "\n"
    journal.write_text("".join(lines))
    with pytest.raises(RegistryError, match="line 2"):
        ReplicaRegistry.load(journal)


def _replica_without_kind():
    replica = pseudo(1, "d").to_json()
    del replica["kind"]
    return {"event": "register", "block_id": 0, "replica": replica}


def _register(**fields):
    return {"event": "register", "block_id": 0, "replica": pseudo(1, "d").to_json() | fields}


@pytest.mark.parametrize(
    "record",
    [
        {"event": "register", "block_id": 0},
        3,
        _replica_without_kind(),
        # Once loaded as a second block '0' beside block 0, whose
        # `total_records` then raised a raw TypeError.
        {"event": "block", "block_id": "0", "record_count": "10", "replica": normal(0).to_json()},
        {"event": "block", "block_id": 1, "record_count": True, "replica": normal(0).to_json()},
        _register(node_id="1"),
        _register(kind=1),
        _register(indexed_attribute=3),
        _register(available_attributes="abd"),
        _register(path=None),
        # Records of the right shape that the registry refuses; before, their
        # errors named no line.
        {"event": "register", "block_id": 5, "replica": pseudo(1, "d").to_json()},
        _register(available_attributes=["a", "b", "d", "z"]),
        {"event": "block", "block_id": 1, "record_count": 10, "replica": pseudo(0, "d").to_json()},
        {"event": "block", "block_id": 0, "record_count": 100, "replica": normal(2).to_json()},
        # Negative ids and counts; before, `block_id: -3` loaded.
        {"event": "block", "block_id": -3, "record_count": 10, "replica": normal(0).to_json()},
        {"event": "block", "block_id": 1, "record_count": -10, "replica": normal(0).to_json()},
        _register(node_id=-1),
        # A full pseudo replica that lacks attributes, and an event no
        # engine writes.
        _register(available_attributes=["a", "d"]),
        {"event": "drop", "block_id": 0, "replica": pseudo(1, "d").to_json()},
    ],
    ids=[
        "no_replica", "not_an_object", "replica_without_kind", "string_block_id",
        "bool_record_count", "string_node_id", "int_kind", "int_indexed_attribute",
        "attributes_not_a_list", "null_path", "unknown_block", "attribute_outside_schema",
        "pseudo_in_block_event", "normal_beyond_replication", "negative_block_id",
        "negative_record_count", "negative_node_id", "partial_full_pseudo", "unknown_event",
    ],
)
def test_a_malformed_journal_record_names_its_line(tmp_path, record):
    # Each line parses as JSON but is not a journal record the registry takes.
    journal = tmp_path / "registry.journal"
    reg = ReplicaRegistry(SCHEMA, replication_factor=2, journal_path=journal)
    reg.add_block(0, 100, [normal(0), normal(1)])
    reg.close()
    with open(journal, "a") as f:
        f.write(json.dumps(record) + "\n")
    lines = len(journal.read_text().splitlines())
    with pytest.raises(RegistryError, match=f"line {lines} is malformed"):
        ReplicaRegistry.load(journal)


def test_torn_last_journal_line_is_dropped(tmp_path):
    journal = tmp_path / "registry.journal"
    reg = ReplicaRegistry(SCHEMA, replication_factor=2, journal_path=journal)
    reg.add_block(0, 100, [normal(0), normal(1)])
    intact = journal.read_bytes()
    record = {"event": "register", "block_id": 0, "replica": pseudo(1, "d").to_json()}
    with open(journal, "a") as f:
        f.write(json.dumps(record)[:40])

    again = ReplicaRegistry.load(journal)
    assert journal.read_bytes() == intact  # truncated back to the last newline
    assert again.find_index(0, "d") is None
    again.register_index(0, pseudo(1, "d"))
    assert ReplicaRegistry.load(journal).pseudo_count(1, "d") == 1


def test_unterminated_complete_last_line_is_kept(tmp_path):
    journal = tmp_path / "registry.journal"
    reg = ReplicaRegistry(SCHEMA, replication_factor=2, journal_path=journal)
    reg.add_block(0, 100, [normal(0), normal(1)])
    reg.register_index(0, pseudo(1, "d"))
    journal.write_bytes(journal.read_bytes().rstrip(b"\n"))

    again = ReplicaRegistry.load(journal)
    assert again.pseudo_count(1, "d") == 1
    again.register_index(0, pseudo(0, "b"))
    final = ReplicaRegistry.load(journal)
    assert final.pseudo_count(1, "d") == 1 and final.pseudo_count(0, "b") == 1


def test_rejected_add_block_leaves_no_empty_block():
    reg = ReplicaRegistry(SCHEMA, replication_factor=2)
    with pytest.raises(RegistryError):
        reg.add_block(7, 10, [normal(0), normal(1), normal(2)])
    assert reg.block_ids == []


def test_concurrent_cross_node_widening_keeps_counts():
    reg = ReplicaRegistry(SCHEMA, replication_factor=3)
    for block_id in range(20):
        reg.add_block(block_id, 10, [normal(0), normal(1), normal(2)])
    barrier = threading.Barrier(8)

    def register(node):
        barrier.wait()
        for block_id in range(20):
            reg.register_index(block_id, pseudo(node, "d", available=frozenset({"d"}),
                                                partial=True))
            reg.register_index(block_id, pseudo(node, "d", available=frozenset({"d", "b"}),
                                                partial=True))
            reg.register_index(block_id, pseudo(node, "d"))

    threads = [threading.Thread(target=register, args=(k % 4,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    _assert_counts_match_replicas(reg)
    assert sum(reg.pseudo_count(n, "d") for n in NODES) == reg.indexed_block_count("d") == 20


def _journal_with_replicas(root: Path) -> Path:
    journal = root / "registry.journal"
    reg = ReplicaRegistry(SCHEMA, replication_factor=2, journal_path=journal)
    reg.add_block(0, 100, [normal(0, path=str(root / "node_0" / "blocks" / "blk_0_r0")),
                           normal(1, path=str(root / "node_1" / "blocks" / "blk_0_r1"))])
    reg.register_index(0, pseudo(1, "d", path=str(root / "node_1" / "pseudo" / "blk_0" / "d")))
    return journal


def test_journal_paths_do_not_depend_on_the_root(tmp_path):
    short = _journal_with_replicas(tmp_path / "r")
    long = _journal_with_replicas(tmp_path / "a_much_longer_cluster_root" / "nested")
    assert short.read_bytes() == long.read_bytes()
    assert str(tmp_path) not in short.read_text()

    again = ReplicaRegistry.load(long)
    assert again.find_index(0, "d").path == str(long.parent / "node_1" / "pseudo" / "blk_0" / "d")
    assert {r.path for r in again.normal_replicas(0)} == {
        str(long.parent / "node_0" / "blocks" / "blk_0_r0"),
        str(long.parent / "node_1" / "blocks" / "blk_0_r1"),
    }


def test_a_journal_without_the_path_marker_is_refused(tmp_path):
    # Engines before the `paths` marker journaled replica paths as given.
    journal = tmp_path / "registry.journal"
    head = {"event": "dataset", "schema": SCHEMA.to_json(), "replication": 1}
    block = {"event": "block", "block_id": 0, "record_count": 100,
             "replica": normal(0, path="cl/node_0/blocks/blk_0_r0").to_json()}
    journal.write_text(json.dumps(head) + "\n" + json.dumps(block) + "\n")
    before = journal.read_bytes()
    with pytest.raises(RegistryError, match=f"journal {journal} predates its path marker"):
        ReplicaRegistry.load(journal)
    assert journal.read_bytes() == before


def test_a_journal_that_does_not_start_with_a_dataset_record_is_refused(tmp_path):
    journal = tmp_path / "registry.journal"
    block = {"event": "block", "block_id": 0, "record_count": 100, "replica": normal(0).to_json()}
    journal.write_text(json.dumps(block) + "\n")
    message = f"journal {journal} does not start with a dataset record"
    with pytest.raises(RegistryError, match=re.escape(message)):
        ReplicaRegistry.load(journal)


def test_replica_outside_the_journal_directory_is_journaled_absolute(tmp_path):
    journal = tmp_path / "cluster" / "registry.journal"
    reg = ReplicaRegistry(SCHEMA, replication_factor=1, journal_path=journal)
    outside = tmp_path / "elsewhere" / "blk_0_r0"
    reg.add_block(0, 100, [normal(0, path=str(outside))])
    assert json.loads(journal.read_text().splitlines()[1])["replica"]["path"] == str(outside)
    assert ReplicaRegistry.load(journal).normal_replicas(0)[0].path == str(outside)


def test_journal_is_appended_through_one_handle_until_close(tmp_path, monkeypatch):
    handles = track_journal_handles(monkeypatch)
    journal = tmp_path / "registry.journal"
    reg = ReplicaRegistry(SCHEMA, replication_factor=2, journal_path=journal)
    reg.add_block(0, 100, [normal(0), normal(1)])
    reg.register_index(0, pseudo(1, "d"))
    assert len(handles) == 1 and not handles[0].closed
    assert len(journal.read_text().splitlines()) == 4  # each line flushed as written
    reg.close()
    assert handles[0].closed

    again = ReplicaRegistry.load(journal)
    assert len(handles) == 1  # replay reads; the handle opens with the next append
    again.register_index(0, pseudo(0, "b"))
    again.register_index(0, pseudo(1, "a"))
    assert len(handles) == 2 and not handles[1].closed
    again.close()
    again.close()  # closing twice is harmless
    assert handles[1].closed
    final = ReplicaRegistry.load(journal)
    assert [final.pseudo_count(n, a) for n, a in ((1, "d"), (0, "b"), (1, "a"))] == [1, 1, 1]
