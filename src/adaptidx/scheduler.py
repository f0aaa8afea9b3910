"""Job planning: split formation and index-aware task placement.

Blocks with a usable index on the predicate attribute are combined into
per-node multi-block index-scan splits (bounded by max_blocks_per_split, so
one split never outweighs a single-block full scan by much). Every other
block becomes a single full-scan task assigned to whichever of its replica
nodes currently holds the fewest adaptively created indexes, counting
assignments made earlier in the same plan; ties go to the lowest node id.
Balancing counts only indexes on the predicate attribute.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PlanningError
from .execution import BlockRef, InputSplit, JobSpec, ScanKind
from .registry import ReplicaRegistry


@dataclass(frozen=True)
class TaskAssignment:
    split: InputSplit

    @property
    def node_id(self) -> int:
        return self.split.node_id


def plan_job(
    job: JobSpec,
    registry: ReplicaRegistry,
    *,
    max_blocks_per_split: int = 16,
) -> list[TaskAssignment]:
    """Plan a job: index-scan splits first, then greedily placed full scans."""
    attr = job.predicate.attribute
    indexed: dict[int, list[BlockRef]] = {}
    unindexed: list[int] = []
    for block_id in registry.block_ids:
        info = registry.find_index(block_id, attr)
        if info is not None:
            indexed.setdefault(info.node_id, []).append(BlockRef(block_id, info))
        else:
            unindexed.append(block_id)

    assignments: list[TaskAssignment] = []
    for node in sorted(indexed):
        refs = indexed[node]
        for i in range(0, len(refs), max_blocks_per_split):
            chunk = tuple(refs[i : i + max_blocks_per_split])
            assignments.append(
                TaskAssignment(InputSplit(node, chunk, ScanKind.INDEX_SCAN))
            )

    planned: dict[int, int] = {}
    for block_id in unindexed:
        normals = registry.normal_replicas(block_id)
        if not normals:
            raise PlanningError(f"block {block_id} has no reachable replica")
        candidates = {r.node_id: r for r in normals}
        node = min(
            candidates,
            key=lambda n: (registry.pseudo_count(n, attr) + planned.get(n, 0), n),
        )
        planned[node] = planned.get(node, 0) + 1
        assignments.append(
            TaskAssignment(
                InputSplit(node, (BlockRef(block_id, candidates[node]),), ScanKind.FULL_SCAN)
            )
        )
    return assignments


def full_scan_blocks_per_node(assignments: list[TaskAssignment]) -> dict[int, list[int]]:
    """Unindexed block ids grouped by assigned node, in plan (scan) order."""
    per_node: dict[int, list[int]] = {}
    for a in assignments:
        if a.split.scan_kind == ScanKind.FULL_SCAN:
            per_node.setdefault(a.node_id, []).append(a.split.blocks[0].block_id)
    return per_node


def _spread(block_ids: list[int], quota: int) -> list[int]:
    e = len(block_ids)
    q = min(quota, e)
    if q <= 0:
        return []
    return [
        block_ids[s - 1] for s in range(1, e + 1) if (s * q) // e > ((s - 1) * q) // e
    ]


def choose_offer_blocks(per_node: dict[int, list[int]], quota: int) -> frozenset[int]:
    """Pick `quota` blocks to offer, round-robin within each node's scan list.

    The quota is apportioned across nodes in proportion to how many blocks
    each will scan (largest remainder, ties to the lowest node id), and each
    node spreads its share evenly over its own blocks: with a tenth of the
    blocks to index, every node offers every tenth block it scans. Per-node
    spreading keeps freshly created indexes balanced across nodes instead of
    letting the pick pattern beat against the replica placement cycle.
    """
    total = sum(len(v) for v in per_node.values())
    if quota <= 0 or total == 0:
        return frozenset()
    quota = min(quota, total)
    shares = {n: quota * len(v) / total for n, v in per_node.items()}
    counts = {n: int(shares[n]) for n in per_node}
    leftover = quota - sum(counts.values())
    for n in sorted(per_node, key=lambda n: (-(shares[n] - counts[n]), n)):
        if leftover <= 0:
            break
        if counts[n] < len(per_node[n]):
            counts[n] += 1
            leftover -= 1
    picked: set[int] = set()
    for n, blocks in per_node.items():
        picked.update(_spread(blocks, counts[n]))
    return frozenset(picked)


def format_plan(assignments: list[TaskAssignment]) -> str:
    """Debug dump: one line per planned block."""
    lines = []
    for a in assignments:
        kind = "index" if a.split.scan_kind == ScanKind.INDEX_SCAN else "full"
        for ref in a.split.blocks:
            lines.append(f"block={ref.block_id} node={a.node_id} kind={kind}")
    return "\n".join(lines)
