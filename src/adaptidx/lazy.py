"""Lazy projection: partial pseudo replicas completed attribute by attribute.

A partial pseudo replica stores the sorted index attribute, whichever other
attributes the triggering job projected (already aligned), the sparse index,
and the permutation vector that maps normal-replica row positions to sorted
positions. The node's Adaptive Indexer builds it like any pseudo replica,
keeping the vector because the schema is incomplete. Later index scans that
project additional attributes read them from the node's normal replica, the
one it was sorted from (invariant 6 in README, "Invariants"), and align them
with the stored vector to serve the job; the record reader then hands the
aligned columns to the indexer, whose unit appends them here on the
cluster's pool. The hand-off is the indexer's only enqueue path
(`AdaptiveIndexer.hand_off`, as for a full scan's BUILD offer): it waits for
a slot, so every such scan completes its replica. Once every schema
attribute is present the permutation vector is dropped and the replica is
promoted to a full pseudo replica.

A completion finds its replica by layout, not by a registry lookup: it is
handed to the indexer of the node whose split read the partial replica, and
a split's replicas live on its node (`InputSplit`), so the file is that
node's `pseudo_replica_path(node_root, block_id, attribute)`.

A published replica is never written in place: an append writes the merged
replica to `.<attribute>.tmp` beside it and renames that over the old one.
The name needs no nonce, by invariants 1 to 3 in README ("Invariants"), and
no attribute name starts with a dot. The append returns the merged
replica's attribute names, and the indexer's drain registers them.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Optional

from .blocks import DataBlock, Schema
from .blockfile import pseudo_replica_path, read_block, write_block


def append_aligned_columns(
    node_root: Path | str,
    schema: Schema,
    block_id: int,
    attribute: str,
    aligned: DataBlock,
) -> Optional[tuple[str, ...]]:
    """Append already-aligned columns to a partial replica; returns the merged
    replica's attribute names, or None when nothing was appended.

    The replica is the node's own file at `pseudo_replica_path`; without one
    this raises FileNotFoundError. Appending an attribute that is already
    present is a no-op. When the merge covers the whole `schema` (the
    dataset's) the permutation vector is removed. A storage failure removes
    `.<attribute>.tmp` and re-raises, leaving the old replica.
    """
    final = pseudo_replica_path(node_root, block_id, attribute)
    existing = read_block(final)
    new_names = [n for n in aligned.schema.names if n not in existing.schema.names]
    if not new_names:
        return None

    merged_names = set(existing.schema.names) | set(new_names)
    merged_schema = schema.subset(merged_names)
    columns = {}
    for name in merged_schema.names:
        src = existing.columns.get(name)
        columns[name] = src if src is not None else aligned.columns[name]
    complete = merged_names == set(schema.names)

    merged = DataBlock(
        block_id=block_id,
        schema=merged_schema,
        columns=columns,
        index=existing.index,
        permutation=None if complete else existing.permutation,
    )

    temp = final.with_name(f".{attribute}.tmp")
    write_block(merged, temp)  # removes the temp file if it fails
    try:
        os.replace(temp, final)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise
    return merged_schema.names
