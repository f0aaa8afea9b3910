"""Job execution: splits, the record reader, and projection widening.

The record reader is where replica switching happens: a split built over an
indexed replica (normal or pseudo) is served by a sparse-index range lookup
that touches only qualifying rows, while unindexed blocks fall back to a full
scan and are offered to the node's Adaptive Indexer afterwards. Map functions
never see the difference.

A map task reads only its own node's replicas (invariant 6 in README,
"Invariants"): an index scan reads the indexed replica and, for a partial
one, the node's normal replica it was sorted from, else its task fails. It
reads them through the cluster's OpenReplicas, which keeps each open with
its parsed header from job to job; every read is still billed the header's
length. A read that raises, or a file not sorted on the attribute its entry
names, drops its replica, so the next job opens the file again. A held
descriptor never serves a replaced file, by invariants 1 and 2: only a lazy
completion replaces a file an index scan reads, and the scan that hands it
off, the path's last reader in the job, drops the path. The page
directory is searched with `bisect` over the header's `page_keys`, page
bounds come from its `page_starts` and dtypes from `column_dtypes`, so an
index scan does its reads, each one `read_column_range` and `preadv`, and
little beside them; it fetches no sort-column byte twice, and is billed the
record reader's model whatever it fetches (`_search_sort_column`, the one
search of a page directory).

A task coerces its predicate's bounds once (`Predicate.bounds`), for index
and full scans alike, so both paths select the same rows; a coerced string
bound has no trailing NUL, so Python orders it as the column does.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .blocks import DataBlock, Schema
from .blockfile import (
    OpenReplicas,
    ReadCounter,
    read_block,
    read_column_range,
    read_permutation,
)
from .errors import BlockFormatError, RegistryError, SchemaError
from .indexer import (
    BUILD,
    COMPLETE,
    AdaptiveIndexer,
    IndexWork,
    OfferPolicy,
    apply_permutation,
)
from .registry import BlockReplicaInfo, ReplicaRegistry


class ScanKind(Enum):
    INDEX_SCAN = "index_scan"
    FULL_SCAN = "full_scan"


@dataclass(frozen=True)
class Predicate:
    """Closed range selection low <= value <= high on one attribute."""

    attribute: str
    low: object
    high: object

    def validate(self, schema: Schema) -> None:
        self.bounds(schema)

    def bounds(self, schema: Schema) -> tuple:
        """(lo, hi) in the attribute's comparison domain; see `Attribute.coerce_range`."""
        return schema.attribute(self.attribute).coerce_range(self.low, self.high)


@dataclass
class JobSpec:
    job_id: str
    predicate: Predicate
    projection: tuple[str, ...]
    map_fn: Optional[Callable[[dict], Optional[dict]]] = None
    policy: OfferPolicy = field(default_factory=OfferPolicy)
    collect_output: bool = True

    def validate(self, schema: Schema) -> None:
        self.predicate.validate(schema)
        for name in self.projection:
            if name not in schema:
                raise SchemaError(f"projected attribute {name!r} not in schema")


def invisible_projection_columns(
    job: JobSpec, will_offer: bool, schema: Schema
) -> tuple[str, ...]:
    """Columns to read for a full scan, widened for blocks headed to the indexer.

    Non-offered blocks read the job's projection plus the predicate attribute;
    offered blocks read the whole schema so the index replica comes out
    complete. The map function still receives only the projected attributes.
    """
    if will_offer:
        return schema.names
    needed = set(job.projection) | {job.predicate.attribute}
    return tuple(n for n in schema.names if n in needed)


@dataclass(frozen=True)
class BlockRef:
    block_id: int
    replica: BlockReplicaInfo


@dataclass(frozen=True)
class InputSplit:
    node_id: int
    blocks: tuple[BlockRef, ...]
    scan_kind: ScanKind

    def __post_init__(self) -> None:
        if self.scan_kind == ScanKind.FULL_SCAN and len(self.blocks) != 1:
            raise SchemaError("full-scan splits contain exactly one block")
        if self.scan_kind == ScanKind.INDEX_SCAN and not self.blocks:
            raise SchemaError("index-scan splits contain at least one block")
        for ref in self.blocks:
            if ref.replica.node_id != self.node_id:
                raise SchemaError(
                    f"block {ref.block_id} replica lives on node {ref.replica.node_id}, "
                    f"split is for node {self.node_id}"
                )


@dataclass
class TaskResult:
    node_id: int
    scan_kind: ScanKind
    block_ids: tuple[int, ...]
    wave_index: int = -1
    records_read: int = 0
    records_emitted: int = 0
    bytes_read: int = 0
    blocks_offered: int = 0
    completions_skipped: int = 0  # always 0; kept for the benchmark's counters
    remote_column_reads: int = 0  # always 0; kept for the benchmark's counters
    failed: bool = False
    error: str = ""
    emitted: list[dict[str, np.ndarray]] = field(default_factory=list)
    emitted_rows: list[dict] = field(default_factory=list)


@dataclass
class TaskContext:
    """Per-node execution context handed to every task of a job."""

    node_id: int
    registry: ReplicaRegistry
    indexer: AdaptiveIndexer
    will_offer_blocks: frozenset[int]  # the full-scan blocks that are offer candidates
    projection_mode: str = "invisible"  # or "lazy"
    replicas: OpenReplicas = field(default_factory=OpenReplicas)  # index-scan reads


def _emit(
    job: JobSpec,
    result: TaskResult,
    columns: dict[str, np.ndarray],
    count: int,
) -> None:
    """Feed `count` selected rows to the map function and collect its output.

    `columns` holds exactly the projected attributes, in schema order.
    """
    if job.map_fn is None:
        result.records_emitted += count
        if job.collect_output and count:
            result.emitted.append(columns)
        return
    for i in range(count):
        record = {name: col[i] for name, col in columns.items()}
        out = job.map_fn(record)
        if out is not None:
            result.records_emitted += 1
            if job.collect_output:
                result.emitted_rows.append(out)


def _refine_row_range(f, header, lo, hi, counter) -> tuple[int, int]:
    """Exact qualifying row span [r_lo, r_hi) on a sorted, indexed block."""
    return _search_sort_column(f, header, lo, hi, counter, False)[:2]


def _search_sort_column(f, header, lo, hi, counter, keep):
    """(r_lo, r_hi, rows): the exact qualifying row span on a sorted, indexed
    block and, with `keep`, a copy of its sort-column rows.

    `bisect` over the header's `page_keys` narrows the span to boundary pages
    q - 1 (none when q == 0) and p (none when p < 0), and numpy searches the
    rows fetched. String bounds come without trailing NULs
    (`Attribute.coerce_range`), so both searches order them as the column
    does. Billed: both pages, also when they are one, and with `keep` the
    span. Fetched: one read from page
    q - 1 (row 0 when q == 0) through page p when that holds nothing unbilled,
    that is with `keep` or when the pages are one or adjacent, else each page
    alone; so no byte twice.
    """
    attr = header.sort_attribute
    dtype = header.column_dtypes[attr]
    starts = header.page_starts
    q = bisect_left(header.page_keys, lo)
    p = bisect_right(header.page_keys, hi) - 1
    start = starts[q - 1] if q else 0
    billed = starts[q] - start if q else 0
    if p < 0:
        r_lo = r_hi = 0
        lo_vals = np.empty(0, dtype)
    else:
        billed += starts[p + 1] - starts[p]
        if q <= p + 1 and (keep or 0 < q and p <= q):
            lo_vals = hi_vals = read_column_range(f, header, attr, start, starts[p + 1])
            hi_start = start
        else:
            lo_vals = read_column_range(f, header, attr, start, starts[q]) if q else None
            hi_start = starts[p]
            hi_vals = read_column_range(f, header, attr, hi_start, starts[p + 1])
        r_lo = start + int(lo_vals.searchsorted(lo, side="left")) if q else 0
        r_hi = max(hi_start + int(hi_vals.searchsorted(hi, side="right")), r_lo)
    if counter is not None:
        counter.bytes_read += (billed + (r_hi - r_lo if keep else 0)) * dtype.itemsize
    return r_lo, r_hi, lo_vals[r_lo - start : r_hi - start].copy() if keep else None


def _scan_indexed_block(
    ref: BlockRef,
    job: JobSpec,
    ctx: TaskContext,
    result: TaskResult,
    counter: ReadCounter,
    bounds: tuple,
    wanted: tuple[str, ...],
) -> None:
    """Serve one indexed block: `bounds` are the job's coerced predicate
    bounds and `wanted` its projected attributes in schema order, both fixed
    per task."""
    path = ref.replica.path
    fd, header = ctx.replicas.open(path, counter)
    try:
        sort = header.sort_attribute
        if sort != ref.replica.indexed_attribute:
            raise BlockFormatError(
                f"{path} is sorted on {sort!r}, not on {ref.replica.indexed_attribute!r}"
            )
        r_lo, r_hi, rows = _search_sort_column(
            fd, header, bounds[0], bounds[1], counter, sort in wanted
        )
        offsets = header.column_offsets
        columns: dict[str, np.ndarray] = {}
        missing: list[str] = []
        for name in wanted:
            if name == sort:
                columns[name] = rows
            elif name in offsets:
                columns[name] = read_column_range(fd, header, name, r_lo, r_hi, counter)
            else:
                missing.append(name)
        perm = read_permutation(fd, header, counter) if missing else None
    except Exception:
        ctx.replicas.drop(path)
        raise
    count = r_hi - r_lo
    result.records_read += count
    if not missing:
        _emit(job, result, columns, count)
        return

    # Partial pseudo replica: serve missing attributes from the node's normal
    # replica, the one it was sorted from (invariant 6), realigned with the
    # stored permutation vector.
    normals = ctx.registry.normal_replicas(ref.block_id)
    normal = next((r for r in normals if r.node_id == ctx.node_id), None)
    if normal is None:
        raise RegistryError(f"block {ref.block_id} has no normal replica on node {ctx.node_id}")
    fd, nheader = ctx.replicas.open(normal.path, counter)
    try:
        raw = [read_column_range(fd, nheader, n, 0, nheader.record_count, counter) for n in missing]
    except Exception:
        ctx.replicas.drop(normal.path)
        raise
    aligned = {name: apply_permutation(perm, column) for name, column in zip(missing, raw)}

    # Copies, because `aligned` is handed to the indexer below and frozen.
    for name in missing:
        columns[name] = aligned[name][r_lo:r_hi].copy()
    columns = {n: columns[n] for n in wanted}
    _emit(job, result, columns, count)

    # Incremental completion: append the aligned attributes to the partial replica.
    sub = ctx.registry.schema.subset(missing)
    completion = DataBlock(ref.block_id, sub, {n: aligned[n] for n in sub.names})
    ctx.indexer.hand_off(IndexWork(COMPLETE, ref.replica.indexed_attribute, completion))
    ctx.replicas.drop(path)  # the completion renames a wider file over it


def _scan_full_block(
    ref: BlockRef,
    job: JobSpec,
    ctx: TaskContext,
    result: TaskResult,
    counter: ReadCounter,
    bounds: tuple,
) -> None:
    candidate = ref.block_id in ctx.will_offer_blocks

    # Lazy projection reads only what the job needs, even for offered blocks.
    widen = candidate and ctx.projection_mode != "lazy"
    read_cols = invisible_projection_columns(job, widen, ctx.registry.schema)

    block = read_block(ref.replica.path, read_cols, counter=counter)
    n = block.record_count
    result.records_read += n

    column = block.columns[job.predicate.attribute]
    mask = (column >= bounds[0]) & (column <= bounds[1])
    qualifying = int(mask.sum())
    fraction = qualifying / n if n else 0.0
    projected = set(job.projection)
    selected = {name: block.columns[name][mask] for name in block.schema.names if name in projected}
    _emit(job, result, selected, qualifying)

    if not candidate or not job.policy.admits(fraction):
        return

    # Hand over only after the map function consumed the block; the hand-off
    # freezes its columns.
    result.blocks_offered += 1
    ctx.indexer.hand_off(IndexWork(BUILD, job.predicate.attribute, block))


def record_reader_scan(split: InputSplit, job: JobSpec, ctx: TaskContext) -> TaskResult:
    """Execute one map task over its split; returns the task's metrics.

    Index-scan splits do a sparse-index range lookup per block and read only
    the qualifying rows of the projected columns; full-scan splits read the
    whole block (widened per the projection mode), filter, and then offer the
    block for indexing when the policy admits it.
    """
    result = TaskResult(
        node_id=split.node_id,
        scan_kind=split.scan_kind,
        block_ids=tuple(ref.block_id for ref in split.blocks),
    )
    counter = ReadCounter()
    schema = ctx.registry.schema
    bounds = job.predicate.bounds(schema)
    if split.scan_kind == ScanKind.INDEX_SCAN:
        projected = set(job.projection)
        wanted = tuple(n for n in schema.names if n in projected)
        for ref in split.blocks:
            _scan_indexed_block(ref, job, ctx, result, counter, bounds, wanted)
    else:
        for ref in split.blocks:
            _scan_full_block(ref, job, ctx, result, counter, bounds)
    result.bytes_read = counter.bytes_read
    return result
