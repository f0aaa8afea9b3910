"""Adaptive Indexer: builds and persists block indexes as a job side effect.

Per node there is one indexer instance shared by all map tasks: a bounded
build queue feeding an index-builder thread, and a bounded write queue feeding
an index-writer thread. Every unit of work, a full scan's BUILD offer or an
index scan's lazy COMPLETE, enters through `hand_off`, which waits for
build-queue space and refuses work only once the indexer is closed. So the
plan alone decides which blocks get indexed, never how far the indexer has
fallen behind the readers; the queue capacities only bound memory. Waiting
costs no simulated time: the cost model charges a fixed per-block indexing
cost for every enqueued block.

Index building sorts the target attribute (stable), derives the
old-position -> new-position permutation vector, reorders every other present
column with it, and cuts a sparse page directory over the sorted column.

Which scanned blocks reach the indexer is decided in two places: in constant
and eager mode the blocks are picked at plan time
(`scheduler.choose_offer_blocks`), and in selectivity mode each full scan
asks `OfferPolicy.admits` with its qualifying fraction.
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
from .blocks import DataBlock, Schema, SparseClusteredIndex
from .blockfile import publish_block_once, pseudo_replica_path, pseudo_temp_path
from .errors import AdaptidxError, ConfigError, SchemaError
from .registry import BlockReplicaInfo, ReplicaKind, ReplicaRegistry

DEFAULT_PAGE_SIZE = 1024
DEFAULT_QUEUE_CAPACITY = 4


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

    constant: at most ceil(rho * blocks in the job), spread evenly over the
    scanned blocks; the picks are made at plan time by
    `scheduler.choose_offer_blocks`.
    eager: like constant, but the rate is solved from the cost model once it
    is calibrated (rho is the rate until then).
    selectivity: blocks whose qualifying fraction reaches the threshold, see
    `admits`.
    """

    mode: str = OFFER_RATE
    rho: float = 0.1
    selectivity_threshold: float = 0.8

    def __post_init__(self) -> None:
        if self.mode not in (OFFER_RATE, EAGER, SELECTIVITY):
            raise ConfigError(f"unknown offer mode {self.mode!r}")

    def admits(self, qualifying_fraction: float) -> bool:
        """The selectivity test for one scanned block."""
        return qualifying_fraction >= self.selectivity_threshold


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

    partial = set(sorted_block.schema.names) != set(registry.schema.names)
    info = BlockReplicaInfo(
        node_id=node_id,
        kind=ReplicaKind.PARTIAL_PSEUDO if partial else ReplicaKind.PSEUDO,
        indexed_attribute=attribute,
        available_attributes=frozenset(sorted_block.schema.names),
        path=str(final),
    )
    registry.register_index(sorted_block.block_id, info)
    return WriteResult.WON


# -- the per-node indexer pipeline -------------------------------------------

BUILD = "build"
COMPLETE = "complete"


@dataclass
class IndexWork:
    """One unit handed from a map task to a node's Adaptive Indexer."""

    # BUILD: sort + index the columns. COMPLETE: append columns, already
    # aligned with the partial replica's permutation vector, to that replica.
    kind: str
    block_id: int
    attribute: str
    schema: Schema
    columns: dict[str, np.ndarray]
    checksum: int

    def block(self) -> DataBlock:
        return DataBlock(block_id=self.block_id, schema=self.schema, columns=self.columns)


@dataclass
class IndexerStats:
    enqueued: int = 0
    rejected_full: int = 0  # work refused because the indexer was closed
    built: int = 0
    written: int = 0
    completed: int = 0
    lost_races: int = 0
    failures: int = 0


class AdaptiveIndexer:
    """One per node: build queue -> builder thread -> write queue -> writer thread."""

    def __init__(
        self,
        node_id: int,
        node_root: Path | str,
        registry: ReplicaRegistry,
        build_capacity: int = DEFAULT_QUEUE_CAPACITY,
        write_capacity: int = DEFAULT_QUEUE_CAPACITY,
        page_size_records: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        self.node_id = node_id
        self.node_root = Path(node_root)
        self.registry = registry
        self.page_size_records = page_size_records
        self.stats = IndexerStats()
        self._build_queue: queue.Queue = queue.Queue(maxsize=build_capacity)
        self._write_queue: queue.Queue = queue.Queue(maxsize=write_capacity)
        self._pending = 0
        self._putting = 0  # hand-offs blocked in put, which close waits for
        self._cond = threading.Condition()
        self._stats_lock = threading.Lock()
        self._closed = False
        self._builder = threading.Thread(
            target=self._build_loop, name=f"index-builder-{node_id}", daemon=True
        )
        self._writer = threading.Thread(
            target=self._write_loop, name=f"index-writer-{node_id}", daemon=True
        )
        self._builder.start()
        self._writer.start()

    # producer side

    def hand_off(self, work: IndexWork) -> bool:
        """Enqueue one unit of work, waiting for build-queue space.

        Returns False, counted in `stats.rejected_full`, only when the
        indexer is closed. The put happens outside `_cond`, because the
        writer needs that lock to finish the items that free the queue.
        """
        with self._cond:
            if self._closed:
                with self._stats_lock:
                    self.stats.rejected_full += 1
                return False
            self._pending += 1
            self._putting += 1
        self._build_queue.put(work)
        with self._cond:
            self._putting -= 1
            self._cond.notify_all()
        with self._stats_lock:
            self.stats.enqueued += 1
        return True

    def drain(self) -> None:
        """Block until every enqueued work item has been fully processed."""
        with self._cond:
            self._cond.wait_for(lambda: self._pending == 0)

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            # A hand-off already past the closed check must land before the
            # stop marker, or the builder would exit without its work.
            self._cond.wait_for(lambda: self._putting == 0)
        self._build_queue.put(None)

    # worker side

    def _finish_one(self) -> None:
        with self._cond:
            self._pending -= 1
            if self._pending == 0:
                self._cond.notify_all()

    def _build_loop(self) -> None:
        while True:
            work = self._build_queue.get()
            if work is None:
                self._write_queue.put(None)
                return
            try:
                built = self._build_one(work)
            except Exception:
                with self._stats_lock:
                    self.stats.failures += 1
                self._finish_one()
                continue
            self._write_queue.put(built)

    def _build_one(self, work: IndexWork) -> tuple[IndexWork, DataBlock]:
        block = work.block()
        if block.checksum() != work.checksum:
            raise AdaptidxError(
                f"block {work.block_id} changed between hand-off and indexing"
            )
        if work.kind == COMPLETE:
            return work, block
        # A subset of the schema makes a partial replica, which keeps the
        # permutation vector so later jobs can align the missing columns.
        sorted_block, perm, _ = build_index(block, work.attribute, self.page_size_records)
        if set(block.schema.names) != set(self.registry.schema.names):
            sorted_block.permutation = perm
        with self._stats_lock:
            self.stats.built += 1
        return work, sorted_block

    def _write_loop(self) -> None:
        while True:
            item = self._write_queue.get()
            if item is None:
                return
            work, block = item
            try:
                self._write_one(work, block)
            except Exception:
                with self._stats_lock:
                    self.stats.failures += 1
            finally:
                self._finish_one()

    def _write_one(self, work: IndexWork, block: DataBlock) -> None:
        if work.kind == BUILD:
            result = write_pseudo_replica(block, self.node_root, self.node_id, self.registry)
            with self._stats_lock:
                if result == WriteResult.WON:
                    self.stats.written += 1
                elif result == WriteResult.LOST:
                    self.stats.lost_races += 1
                else:
                    self.stats.failures += 1
        else:
            # Looked up on the module at call time, so wrappers installed on
            # lazy.append_aligned_columns see every completion.
            changed = lazy.append_aligned_columns(
                self.node_root, self.node_id, self.registry, work.block_id,
                work.attribute, block,
            )
            with self._stats_lock:
                if changed:
                    self.stats.completed += 1
