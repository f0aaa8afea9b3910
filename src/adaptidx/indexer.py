"""Adaptive Indexer: builds and persists block indexes as a job side effect.

Per node there is one indexer instance: a bounded queue feeding one worker
thread, which builds each unit and then writes it, in hand-off order. Every
unit of work, a full scan's BUILD offer or an index scan's lazy COMPLETE,
enters through `hand_off`, which waits for queue space and refuses work only
once the indexer is closed. So the plan alone decides which blocks get
indexed, never how far the indexer has fallen behind the readers; the queue
capacity only bounds memory. Waiting costs no simulated time: the cost model
charges a fixed per-block indexing cost for every enqueued block. The worker
runs beside the map tasks, which run on the calling thread, so index builds
and replica writes overlap with scanning. `drain` returns once every accepted
unit has been processed, and `close` also stops the worker.

The work carries the map task's own DataBlock, not a copy. `hand_off` marks
its columns read-only, so a later write by the map task raises ValueError at
the writing line instead of corrupting the index being built.

Index building sorts the target attribute (stable), derives the
old-position -> new-position permutation vector, reorders every other present
column with it, and cuts a sparse page directory over the sorted column.

A full scan offers its block when the block is an offer candidate and
`OfferPolicy.admits` its qualifying fraction (`execution._scan_full_block`).
The candidates are picked at plan time by `scheduler.choose_offer_blocks` in
constant and eager mode; in selectivity mode every block is one, and `admits`
alone decides.

The worker writes to the registry only through
`ReplicaRegistry.register_pseudo`, which makes a replica pseudo or partial
from the attributes it holds.
"""

from __future__ import annotations

import queue
import threading
import uuid
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np

from . import lazy
from .blocks import DataBlock, SparseClusteredIndex
from .blockfile import publish_block_once, pseudo_replica_path, pseudo_temp_path
from .errors import ConfigError, SchemaError
from .registry import ReplicaRegistry

DEFAULT_PAGE_SIZE = 1024
# Work units one node's queue holds. It bounds memory only: hand-offs wait for
# space, so reports never depend on it.
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

    The sort is stable, so equal keys keep their original relative order and
    the permutation vector is deterministic. Works on partial blocks too: any
    column present in the block is realigned.
    """
    if attribute not in block.schema:
        raise SchemaError(f"attribute {attribute!r} not present in block {block.block_id}")
    column = block.columns[attribute]
    order = np.argsort(column, kind="stable")
    perm = np.empty(len(column), dtype="<u8")
    perm[order] = np.arange(len(column), dtype="<u8")
    sorted_columns = {name: block.columns[name].take(order) for name in block.schema.names}
    index = SparseClusteredIndex.from_sorted_column(
        attribute, sorted_columns[attribute], page_size_records
    )
    sorted_block = DataBlock(
        block_id=block.block_id,
        schema=block.schema,
        columns=sorted_columns,
        sort_attribute=attribute,
        index=index,
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

    The replica is written to a temp file and hard-linked into place, so with
    concurrent writers for the same (block, attribute) exactly one wins; the
    loser removes its temp file and reports LOST without touching the
    registry. Storage failures abandon the block silently (FAILED): indexing
    must never jeopardize the job that piggybacked it.
    """
    attribute = sorted_block.sort_attribute
    if attribute is None or sorted_block.index is None:
        raise SchemaError("pseudo replicas require a sorted, indexed block")
    nonce = nonce or uuid.uuid4().hex[:12]
    final = pseudo_replica_path(node_root, sorted_block.block_id, attribute)
    temp = pseudo_temp_path(node_root, sorted_block.block_id, attribute, nonce)
    try:
        won = publish_block_once(sorted_block, final, temp)
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
    """One unit handed from a map task to a node's Adaptive Indexer."""

    # BUILD: sort + index the block. COMPLETE: append the block's columns,
    # already aligned with the partial replica's permutation vector, to this
    # node's replica indexed on `attribute`.
    kind: str
    attribute: str
    block: DataBlock


@dataclass
class IndexerStats:
    """Counts of one node's indexer. `enqueued` and `rejected_full` are
    written by the map thread that hands work off, the rest by the node's
    worker thread, so no field has two writers."""

    enqueued: int = 0
    rejected_full: int = 0  # work refused because the indexer was closed
    built: int = 0
    written: int = 0
    completed: int = 0
    lost_races: int = 0
    failures: int = 0


class AdaptiveIndexer:
    """One per node: a bounded queue feeding one worker that builds, then writes."""

    def __init__(
        self,
        node_id: int,
        node_root: Path | str,
        registry: ReplicaRegistry,
        page_size_records: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        self.node_id = node_id
        self.node_root = Path(node_root)
        self.registry = registry
        self.page_size_records = page_size_records
        self.stats = IndexerStats()
        self._queue: queue.Queue = queue.Queue(maxsize=QUEUE_CAPACITY)
        self._closed = False
        self._worker = threading.Thread(
            target=self._work_loop, name=f"indexer-{node_id}", daemon=True
        )
        self._worker.start()

    def hand_off(self, work: IndexWork) -> bool:
        """Enqueue one unit of work, waiting for queue space.

        Returns False, counted in `stats.rejected_full`, only when the
        indexer is closed. Accepted work has its block's columns marked
        read-only first. One thread hands work off and closes the indexer:
        the engine's map thread, which runs every map task. Hand-offs from
        several threads, or a `close` racing a hand-off, are not supported.
        """
        if self._closed:
            self.stats.rejected_full += 1
            return False
        for column in work.block.columns.values():
            column.setflags(write=False)
        self._queue.put(work)
        self.stats.enqueued += 1
        return True

    def drain(self) -> None:
        """Block until every enqueued work item has been fully processed."""
        self._queue.join()

    def close(self) -> None:
        """Refuse further work and return once all accepted work has landed."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)
        self._worker.join()

    def _work_loop(self) -> None:
        while True:
            work = self._queue.get()
            try:
                if work is None:
                    return
                self._index_one(work)
            except Exception:
                self.stats.failures += 1
            finally:
                self._queue.task_done()

    def _index_one(self, work: IndexWork) -> None:
        block = work.block
        if work.kind == COMPLETE:
            # Looked up on the module at call time, so wrappers installed on
            # lazy.append_aligned_columns see every completion.
            if lazy.append_aligned_columns(
                self.node_root, self.node_id, self.registry, block.block_id,
                work.attribute, block,
            ):
                self.stats.completed += 1
            return
        # A subset of the schema makes a partial replica, which keeps the
        # permutation vector so later jobs can align the missing columns.
        sorted_block, perm, _ = build_index(block, work.attribute, self.page_size_records)
        if set(block.schema.names) != set(self.registry.schema.names):
            sorted_block.permutation = perm
        self.stats.built += 1
        result = write_pseudo_replica(sorted_block, self.node_root, self.node_id, self.registry)
        if result == WriteResult.WON:
            self.stats.written += 1
        elif result == WriteResult.LOST:
            self.stats.lost_races += 1
        else:
            self.stats.failures += 1
