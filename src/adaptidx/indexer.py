"""Adaptive Indexer: builds and persists block indexes as a job side effect.

Per node there is one indexer instance: a bounded queue feeding one worker
thread, which builds each unit and then writes it, in hand-off order. Every
unit of work, a full scan's BUILD offer, an index scan's lazy COMPLETE or an
UPLOAD of one of the node's normal replicas, enters through `hand_off`,
which waits for queue space and refuses work only once the indexer is
closed. So the plan alone decides which blocks get indexed, never how far
the indexer has fallen behind the readers; the queue capacity only bounds
memory. Waiting costs no simulated time: the cost model
charges a fixed per-block indexing cost for every enqueued block. The worker
runs beside the map tasks, which run on the calling thread, so index builds
and replica writes overlap with scanning. `drain` returns once every accepted
unit has been processed, and `close` also stops the worker.

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

The worker never writes to the registry. It hands `write_pseudo_replica`
and `lazy.append_aligned_columns` a `_Registrations` in place of the
registry, which keeps each `register_pseudo` call, and `drain` and `close`
apply the kept calls on the calling thread, in hand-off order, and return
their paths. `Cluster.drain_indexers` drains node by node, so the journal
has one writer thread and an order that does not follow thread timing, and
closes the open replicas of the returned paths. Holding a
registration back until the job drains is safe because a job's plan is fixed
before any task runs and each block is in exactly one split per job, so
nothing reads a registration between its hand-off and the drain. What a
crash before the drain leaves on disk, `Cluster._repair` registers or
deletes at the next open.

UPLOAD units are the HAIL-style upload: `Cluster.upload_dataset` hands each
normal replica to its node's worker, which sorts and indexes it when it has
an upload-time index attribute, then writes it to the unit's path. The
uploader registers the replicas itself, in block order, after draining. So
upload units stay out of `IndexerStats`, which describes adaptive indexing
only, and an error in one is kept in `upload_errors` for the uploader to
raise, not counted as a failure.
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

from . import blockfile, lazy
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
    loser removes its temp file and reports LOST. Storage failures abandon
    the block silently (FAILED): indexing must never jeopardize the job that
    piggybacked it. `registry` may be an indexer's `_Registrations`, which
    holds the registration until the indexer drains (for a crash before
    that, see `Cluster._repair`).
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
UPLOAD = "upload"


@dataclass(frozen=True)
class IndexWork:
    """One unit handed to a node's Adaptive Indexer, by a map task or the upload."""

    # BUILD: sort + index the block. COMPLETE: append the block's columns,
    # already aligned with the partial replica's permutation vector, to this
    # node's replica indexed on `attribute`. UPLOAD: write the block as a
    # normal replica to `path`, sorted and indexed on `attribute` unless it
    # is None.
    kind: str
    attribute: Optional[str]
    block: DataBlock
    path: Optional[Path] = None


@dataclass
class IndexerStats:
    """Counts of one node's adaptive indexing; UPLOAD units are not counted.
    `enqueued` and `rejected_full` are written by the map thread that hands
    work off, the rest by the node's worker thread, except that `failures`
    also counts, on the draining thread, registrations the registry refused.
    That thread writes it only once the queue is empty and the worker idle,
    so no field is written by two threads at once. `lost_races` counts only
    publishes that lost to a concurrent writer of the same file."""

    enqueued: int = 0
    rejected_full: int = 0  # work refused because the indexer was closed
    built: int = 0
    written: int = 0
    completed: int = 0
    lost_races: int = 0
    failures: int = 0


class _Registrations:
    """What a node's worker hands `write_pseudo_replica` and
    `lazy.append_aligned_columns` in place of the registry: the registry's
    schema, and a `register_pseudo` that keeps its arguments in `pending`,
    in call order, for the indexer to apply when it drains."""

    def __init__(self, registry: ReplicaRegistry) -> None:
        self.schema = registry.schema
        self.pending: list[tuple] = []

    def register_pseudo(self, *args) -> None:
        self.pending.append(args)


class AdaptiveIndexer:
    """One per node: a bounded queue feeding one worker that builds, then
    writes; the thread that drains it registers what the worker wrote."""

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
        self.upload_errors: list[Exception] = []  # written by the worker only
        self._registrations = _Registrations(registry)
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
        the engine's map thread, which runs every map task and the upload.
        Hand-offs from several threads, or a `close` racing a hand-off, are
        not supported. UPLOAD units are not counted in `stats`.
        """
        adaptive = work.kind != UPLOAD
        if self._closed:
            self.stats.rejected_full += adaptive
            return False
        for column in work.block.columns.values():
            column.setflags(write=False)
        self._queue.put(work)
        self.stats.enqueued += adaptive
        return True

    def drain(self) -> list[str]:
        """Block until every enqueued work item has been fully processed,
        then register what the worker wrote, in hand-off order; returns the
        registered paths."""
        self._queue.join()
        return self._register_pending()

    def close(self) -> list[str]:
        """Refuse further work and return once all accepted work has landed
        and been registered; returns the registered paths, as `drain` does."""
        if self._closed:
            return []
        self._closed = True
        self._queue.put(None)
        self._worker.join()
        return self._register_pending()

    def _register_pending(self) -> list[str]:
        """Apply the worker's registrations on the calling thread; one the
        registry refuses counts as a failure, as it would on the worker.
        Returns every registration's path, ignored or refused ones too."""
        pending, self._registrations.pending = self._registrations.pending, []
        for args in pending:
            try:
                self.registry.register_pseudo(*args)
            except Exception:
                self.stats.failures += 1
        return [str(args[4]) for args in pending]

    def _work_loop(self) -> None:
        while True:
            work = self._queue.get()
            try:
                if work is None:
                    return
                self._index_one(work)
            except Exception as exc:
                if work.kind == UPLOAD:
                    self.upload_errors.append(exc)
                else:
                    self.stats.failures += 1
            finally:
                self._queue.task_done()

    def _index_one(self, work: IndexWork) -> None:
        block = work.block
        if work.kind == UPLOAD:
            if work.attribute is not None:
                block, _, _ = build_index(block, work.attribute, self.page_size_records)
            # Looked up on the module at call time, so wrappers installed on
            # blockfile.write_block see every upload write.
            blockfile.write_block(block, work.path)
            return
        if work.kind == COMPLETE:
            # Looked up on the module at call time, so wrappers installed on
            # lazy.append_aligned_columns see every completion.
            if lazy.append_aligned_columns(
                self.node_root, self.node_id, self._registrations, block.block_id,
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
        result = write_pseudo_replica(
            sorted_block, self.node_root, self.node_id, self._registrations
        )
        if result == WriteResult.WON:
            self.stats.written += 1
        elif result == WriteResult.LOST:
            self.stats.lost_races += 1
        else:
            self.stats.failures += 1
