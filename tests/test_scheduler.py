import pytest

from adaptidx.errors import PlanningError
from adaptidx.execution import JobSpec, Predicate, ScanKind
from adaptidx.indexer import OfferPolicy
from adaptidx.registry import BlockReplicaInfo, ReplicaKind, ReplicaRegistry
from adaptidx.blocks import Schema
from adaptidx.scheduler import choose_offer_blocks, format_plan, plan_job

SCHEMA = Schema.of(("a", "int64"), ("d", "int64"))
FULL = frozenset(SCHEMA.names)


def job(attr="d"):
    return JobSpec("j", Predicate(attr, 0, 10), ("a",), policy=OfferPolicy(rho=0.0))


def build_registry(n_blocks, nodes, r, indexed_nodes=None):
    """indexed_nodes: optional {block_id: node} carrying a pseudo index on d."""
    reg = ReplicaRegistry(SCHEMA, replication_factor=r)
    for b in range(n_blocks):
        infos = [
            BlockReplicaInfo((b + k) % nodes, ReplicaKind.NORMAL, None, FULL, f"n{b}.{k}")
            for k in range(r)
        ]
        reg.add_block(b, 100, infos)
    if indexed_nodes:
        for b, node in indexed_nodes.items():
            reg.register_index(
                b, BlockReplicaInfo(node, ReplicaKind.PSEUDO, "d", FULL, f"p{b}")
            )
    return reg


def test_all_indexed_blocks_grouped_per_node():
    # 40 indexed blocks spread over 4 nodes, cap 16 -> one split per node
    indexed = {b: b % 4 for b in range(40)}
    reg = build_registry(40, nodes=4, r=2, indexed_nodes=indexed)
    assignments = plan_job(job(), reg, max_blocks_per_split=16)
    assert len(assignments) == 4
    for a in assignments:
        assert a.split.scan_kind == ScanKind.INDEX_SCAN
        assert len(a.split.blocks) == 10
        assert all(ref.replica.node_id == a.node_id for ref in a.split.blocks)


def test_split_cap_forces_extra_splits():
    indexed = {b: 0 for b in range(40)}
    reg = build_registry(40, nodes=4, r=2, indexed_nodes=indexed)
    assignments = plan_job(job(), reg, max_blocks_per_split=16)
    sizes = sorted(len(a.split.blocks) for a in assignments)
    assert sizes == [8, 16, 16]  # ceil(40/16) splits on the single hosting node


def test_no_indexes_spreads_tasks_evenly():
    reg = build_registry(40, nodes=4, r=3)
    assignments = plan_job(job(), reg)
    per_node = {}
    for a in assignments:
        assert a.split.scan_kind == ScanKind.FULL_SCAN
        per_node[a.node_id] = per_node.get(a.node_id, 0) + 1
    counts = sorted(per_node.values())
    assert max(counts) - min(counts) <= 1


def test_empty_plan():
    reg = ReplicaRegistry(SCHEMA, replication_factor=1)
    assert plan_job(job(), reg) == []


def test_no_split_mixes_kinds_and_stays_local():
    indexed = {b: b % 3 for b in range(0, 20, 2)}
    reg = build_registry(20, nodes=3, r=2, indexed_nodes=indexed)
    assignments = plan_job(job(), reg)
    for a in assignments:
        kinds = {a.split.scan_kind}
        assert len(kinds) == 1
        for ref in a.split.blocks:
            assert ref.replica.node_id == a.node_id


def test_greedy_argmin_replay():
    # Replaying the plan must show every unindexed block assigned to the
    # candidate node with the fewest (pseudo + earlier-planned) indexes,
    # ties to the lowest node id.
    indexed = {0: 1, 1: 1, 2: 2}
    reg = build_registry(24, nodes=4, r=3, indexed_nodes=indexed)
    assignments = plan_job(job(), reg)
    full = [a for a in assignments if a.split.scan_kind == ScanKind.FULL_SCAN]
    planned = {}
    for a in full:
        block_id = a.split.blocks[0].block_id
        candidates = {r.node_id for r in reg.normal_replicas(block_id)}
        scores = {
            n: (reg.pseudo_count(n, "d") + planned.get(n, 0), n) for n in candidates
        }
        best = min(scores.values())
        assert scores[a.node_id] == best
        planned[a.node_id] = planned.get(a.node_id, 0) + 1
    # blocks planned in ascending id order
    assert [a.split.blocks[0].block_id for a in full] == sorted(
        a.split.blocks[0].block_id for a in full
    )


def test_tie_break_lowest_node_id():
    reg = build_registry(1, nodes=4, r=3)
    assignments = plan_job(job(), reg)
    assert assignments[0].node_id == 0  # candidates {0,1,2}, all tied


def test_unreachable_block_raises():
    reg = ReplicaRegistry(SCHEMA, replication_factor=1)
    reg.add_block(
        0, 10, [BlockReplicaInfo(0, ReplicaKind.NORMAL, None, FULL, "x")]
    )
    reg._replicas[0] = []  # simulate a lost replica set
    with pytest.raises(PlanningError):
        plan_job(job(), reg)


def test_balance_ignores_indexes_on_other_attributes():
    reg = build_registry(2, nodes=3, r=3)
    reg.register_index(0, BlockReplicaInfo(0, ReplicaKind.PSEUDO, "a", FULL, "pa"))
    # node 0 carries an index on "a"; balancing on "d" does not count it
    full = [a for a in plan_job(job("d"), reg) if a.split.scan_kind == ScanKind.FULL_SCAN]
    assert full[0].node_id == 0


def test_choose_offer_blocks_spreads_quota():
    ids = list(range(100, 200))
    picked = choose_offer_blocks({0: ids}, 10)
    assert len(picked) == 10
    assert picked == frozenset(range(109, 200, 10))  # every tenth in scan order
    assert choose_offer_blocks({0: ids}, 0) == frozenset()
    assert choose_offer_blocks({}, 5) == frozenset()
    assert choose_offer_blocks({0: ids[:3]}, 10) == frozenset(ids[:3])


def test_choose_offer_blocks_apportions_across_nodes():
    per_node = {n: list(range(n * 100, n * 100 + 10)) for n in range(5)}
    picked = choose_offer_blocks(per_node, 5)
    assert len(picked) == 5
    per_node_counts = [len([b for b in picked if b // 100 == n]) for n in range(5)]
    assert per_node_counts == [1, 1, 1, 1, 1]  # one per node, no clustering
    # uneven scan lists: shares follow list sizes, quota met exactly
    uneven = {0: list(range(30)), 1: list(range(100, 110))}
    picked2 = choose_offer_blocks(uneven, 8)
    assert len(picked2) == 8
    assert len([b for b in picked2 if b < 100]) == 6  # 8 * 30/40


def test_format_plan_lines():
    indexed = {0: 1}
    reg = build_registry(3, nodes=3, r=2, indexed_nodes=indexed)
    text = format_plan(plan_job(job(), reg))
    lines = text.splitlines()
    assert "block=0 node=1 kind=index" in lines
    assert sum(1 for l in lines if "kind=full" in l) == 2
    for line in lines:
        assert line.startswith("block=") and " node=" in line and " kind=" in line
