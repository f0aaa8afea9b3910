"""Adaptive Indexer: builds and persists block indexes as a job side effect.

Per node there is one indexer, which owns no thread. Every unit of work, a
full scan's BUILD offer or an index scan's lazy COMPLETE, enters through
`hand_off`, which waits for one of the cluster-wide slots that bound the
units in flight and submits the unit to the cluster's thread pool; it
refuses work only once the indexer is closed. So the plan alone decides
which blocks get indexed, never how far the pool has fallen behind the
readers, and the slots only bound memory. Waiting costs no simulated time:
the cost model charges a fixed per-block indexing cost for every enqueued
block. The pool runs beside the map tasks, which run on the calling thread.

A unit (`_index_one`) returns the stats it counts in and the registrations
it recorded instead of writing either. `drain` walks the units in hand-off
order on the calling thread, tallies `IndexerStats` and applies the
registrations, and `Cluster.drain_indexers` drains node by node, so every
stats field and the journal have one writer thread, and the journal's order
does not follow thread timing. `close` refuses further work, then drains.

Units of one node may run at once because no two touch the same file: a
job's plan is fixed before any task runs and each block is in exactly one
split per job, so a job hands off at most one unit per block; pseudo paths
are per node; and every job drains before the next is planned. For the
same reason nothing reads a registration before the drain applies it. What
a crash before the drain leaves on disk, `Cluster._repair` registers or
deletes at the next open.

The work carries the map task's own DataBlock, not a copy. `hand_off` marks
its columns read-only, so a later write by the map task raises ValueError at
the writing line instead of corrupting the index being built.

Index building sorts the target attribute in the stable sort's order (see
`build_index`), derives the old-position -> new-position permutation vector,
reorders every other present column with it, and cuts a sparse page
directory over the sorted column.

A full scan offers its block when the block is an offer candidate and
`OfferPolicy.admits` its qualifying fraction (`execution._scan_full_block`).
The candidates are picked at plan time by `scheduler.choose_offer_blocks` in
constant and eager mode; in selectivity mode every block is one, and `admits`
alone decides.
"""

from __future__ import annotations

import threading
from concurrent.futures import Executor, Future
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np

from . import lazy
from .blocks import DataBlock, SparseClusteredIndex
from .blockfile import publish_block_once, pseudo_replica_path
from .errors import ConfigError, SchemaError
from .registry import ReplicaRegistry

DEFAULT_PAGE_SIZE = 1024
# Work units in flight per pool thread, over all nodes. It bounds memory only:
# hand-offs wait for a slot, so reports never depend on it.
QUEUE_CAPACITY = 8


def apply_permutation(perm: np.ndarray, column: np.ndarray) -> np.ndarray:
    """Reorder a column so that out[perm[i]] = column[i]."""
    out = np.empty_like(column)
    out[perm.astype(np.int64)] = column
    return out


def build_index(
    block: DataBlock, attribute: str, page_size_records: int = DEFAULT_PAGE_SIZE
) -> tuple[DataBlock, np.ndarray, SparseClusteredIndex]:
    """Sort a block on `attribute`; returns (sorted block, perm, sparse index).

    The order is the stable sort's, so equal keys keep their original
    relative order and the permutation vector is deterministic. Float keys
    try numpy's default sort first, about five times faster, and keep its
    order when the sorted keys strictly increase: with no two keys equal and
    no NaN (which compares false to everything), only one order exists.
    Otherwise the stable sort runs, and the attempt is wasted. Integer and
    string keys, which the engine's generators repeat within a block, go
    straight to the stable sort: on 4096-row blocks of synthetic `a` the
    attempt made `build_index` about a tenth slower. Works on partial
    blocks too: any column present in the block is realigned.
    """
    if attribute not in block.schema:
        raise SchemaError(f"attribute {attribute!r} not present in block {block.block_id}")
    column = block.columns[attribute]
    keys = None
    if column.dtype.kind == "f":
        order = np.argsort(column)
        keys = column.take(order)
        if not (keys[1:] > keys[:-1]).all():
            keys = None
    if keys is None:
        order = np.argsort(column, kind="stable")
        keys = column.take(order)
    perm = np.empty(len(column), dtype="<u8")
    perm[order] = np.arange(len(column), dtype="<u8")
    sorted_columns = {
        name: keys if name == attribute else block.columns[name].take(order)
        for name in block.schema.names
    }
    index = SparseClusteredIndex.from_sorted_column(
        attribute, sorted_columns[attribute], page_size_records
    )
    sorted_block = DataBlock(
        block_id=block.block_id, schema=block.schema, columns=sorted_columns, index=index
    )
    return sorted_block, perm, index


# -- offer policy -----------------------------------------------------------

OFFER_RATE = "constant"
EAGER = "eager"
SELECTIVITY = "selectivity"


@dataclass
class OfferPolicy:
    """Which scanned blocks get handed to the Adaptive Indexer.

    A full-scanned block is offered when it is an offer candidate and
    `admits` its qualifying fraction. The mode decides both:
    constant: the candidates are at most ceil(rho * blocks in the job),
    spread evenly over the scanned blocks at plan time by
    `scheduler.choose_offer_blocks`; `admits` passes every one.
    eager: like constant, but the rate is solved from the cost model once it
    is calibrated (rho is the rate until then).
    selectivity: every scanned block is a candidate, and `admits` passes
    those whose qualifying fraction reaches the threshold.
    """

    mode: str = OFFER_RATE
    rho: float = 0.1
    selectivity_threshold: float = 0.8

    def __post_init__(self) -> None:
        if self.mode not in (OFFER_RATE, EAGER, SELECTIVITY):
            raise ConfigError(f"unknown offer mode {self.mode!r}")

    def admits(self, qualifying_fraction: float) -> bool:
        """Whether a full-scanned offer candidate goes to the indexer: always,
        but in selectivity mode only when its fraction reaches the threshold."""
        return self.mode != SELECTIVITY or qualifying_fraction >= self.selectivity_threshold


# -- pseudo-replica persistence ---------------------------------------------


class WriteResult(Enum):
    WON = "won"
    LOST = "lost"
    FAILED = "failed"


def write_pseudo_replica(
    sorted_block: DataBlock,
    node_root: Path | str,
    node_id: int,
    registry: ReplicaRegistry,
    nonce: Optional[str] = None,
) -> WriteResult:
    """Persist an indexed block as a pseudo replica and register it.

    The replica is created at its final path only if no file is there
    (`publish_block_once`), so of concurrent writers for the same (block,
    attribute) exactly one wins, and the others report LOST and touch no
    file. Storage failures abandon the block silently (FAILED): indexing
    must never jeopardize the job that piggybacked it. `registry` may be an
    indexer's `_Registrations`, which holds the registration until the
    indexer drains (for a crash before that, see `Cluster._repair`). `nonce`
    is ignored; it is kept for callers that pass one.
    """
    attribute = sorted_block.sort_attribute
    if attribute is None:
        raise SchemaError("pseudo replicas require a sorted, indexed block")
    final = pseudo_replica_path(node_root, sorted_block.block_id, attribute)
    try:
        won = publish_block_once(sorted_block, final)
    except OSError:
        return WriteResult.FAILED
    if not won:
        return WriteResult.LOST

    registry.register_pseudo(
        sorted_block.block_id, node_id, attribute, sorted_block.schema.names, final
    )
    return WriteResult.WON


# -- the per-node indexer ----------------------------------------------------

BUILD = "build"
COMPLETE = "complete"


@dataclass(frozen=True)
class IndexWork:
    """One unit a map task hands to its node's Adaptive Indexer."""

    # BUILD: sort + index the block. COMPLETE: append the block's columns,
    # already aligned with the partial replica's permutation vector, to this
    # node's replica indexed on `attribute`.
    kind: str
    attribute: str
    block: DataBlock


@dataclass
class IndexerStats:
    """Counts of one node's adaptive indexing, all written by the thread that
    hands work off and drains. `failures` also counts units that raised and
    registrations the registry refused; `lost_races` counts publishes that
    found a file at their final path (see `publish_block_once`)."""

    enqueued: int = 0
    rejected_full: int = 0  # work refused because the indexer was closed
    built: int = 0
    written: int = 0
    completed: int = 0
    lost_races: int = 0
    failures: int = 0


# The IndexerStats field a publish's outcome counts in.
_WRITE_STAT = {WriteResult.WON: "written", WriteResult.LOST: "lost_races",
               WriteResult.FAILED: "failures"}


class _Registrations:
    """What a unit hands `write_pseudo_replica` and
    `lazy.append_aligned_columns` in place of the registry: the registry's
    schema, and a `register_pseudo` that keeps its arguments in `pending`,
    in call order, for the indexer to apply when it drains."""

    def __init__(self, registry: ReplicaRegistry) -> None:
        self.schema = registry.schema
        self.pending: list[tuple] = []

    def register_pseudo(self, *args) -> None:
        self.pending.append(args)


class AdaptiveIndexer:
    """One per node: hands units to the cluster's pool, and the thread that
    drains it counts and registers what they did, in hand-off order."""

    def __init__(
        self,
        node_id: int,
        node_root: Path | str,
        registry: ReplicaRegistry,
        pool: Executor,
        slots: threading.Semaphore,
        page_size_records: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        self.node_id = node_id
        self.node_root = Path(node_root)
        self.registry = registry
        self.page_size_records = page_size_records
        self.stats = IndexerStats()
        self._pool = pool
        self._slots = slots  # shared by every node's indexer
        self._units: list[Future] = []  # in hand-off order, until drained
        self._closed = False

    def hand_off(self, work: IndexWork) -> bool:
        """Submit one unit of work, waiting for a slot.

        Returns False, counted in `stats.rejected_full`, only when the
        indexer is closed. Accepted work has its block's columns marked
        read-only first. One thread hands work off, drains and closes the
        indexer: the engine's map thread, which runs every map task.
        """
        if self._closed:
            self.stats.rejected_full += 1
            return False
        for column in work.block.columns.values():
            column.setflags(write=False)
        slots = self._slots
        slots.acquire()
        unit = self._pool.submit(self._index_one, work)
        unit.add_done_callback(lambda _: slots.release())
        self._units.append(unit)
        self.stats.enqueued += 1
        return True

    def drain(self) -> None:
        """Wait for every accepted unit, in hand-off order, counting what it
        did and applying its registrations; a unit that raised, or a
        registration the registry refuses, counts as a failure."""
        units, self._units = self._units, []
        for unit in units:
            try:
                counted, registrations = unit.result()
            except Exception:
                self.stats.failures += 1
                continue
            for name in counted:
                setattr(self.stats, name, getattr(self.stats, name) + 1)
            for args in registrations.pending:
                try:
                    self.registry.register_pseudo(*args)
                except Exception:
                    self.stats.failures += 1

    def close(self) -> None:
        """Refuse further work and return once all accepted work has landed
        and been registered."""
        self._closed = True
        self.drain()

    def _index_one(self, work: IndexWork) -> tuple[tuple[str, ...], _Registrations]:
        """Run one unit on a pool thread; returns the IndexerStats fields it
        counts in and the registrations it recorded."""
        registrations = _Registrations(self.registry)
        block = work.block
        if work.kind == COMPLETE:
            # Looked up on the module at call time, so wrappers installed on
            # lazy.append_aligned_columns see every completion.
            changed = lazy.append_aligned_columns(
                self.node_root, self.node_id, registrations, block.block_id,
                work.attribute, block,
            )
            return ("completed",) if changed else (), registrations
        # A subset of the schema makes a partial replica, which keeps the
        # permutation vector so later jobs can align the missing columns.
        sorted_block, perm, _ = build_index(block, work.attribute, self.page_size_records)
        if set(block.schema.names) != set(self.registry.schema.names):
            sorted_block.permutation = perm
        result = write_pseudo_replica(sorted_block, self.node_root, self.node_id, registrations)
        return ("built", _WRITE_STAT[result]), registrations
