"""Lazy projection: partial pseudo replicas completed attribute by attribute.

A partial pseudo replica stores the sorted index attribute, whichever other
attributes the triggering job projected (already aligned), the sparse index,
and the permutation vector that maps normal-replica row positions to sorted
positions. The node's Adaptive Indexer builds it like any pseudo replica,
keeping the vector because the schema is incomplete. Later index scans that
project additional attributes read them from the normal replica and align
them with the stored vector to serve the job; when that normal replica is
local, the record reader hands the aligned columns to the indexer, whose
unit appends them here on the cluster's pool. The hand-off is the indexer's
only enqueue path (`AdaptiveIndexer.hand_off`, as for a full scan's BUILD
offer): it waits for a slot, so only a remote normal replica skips a
completion. Once every
schema attribute is present the permutation vector is dropped and the replica
is promoted to a full pseudo replica.

A completion finds its replica by layout, not by a registry lookup: it is
handed to the indexer of the node whose split read the partial replica, and
a split's replicas live on its node (`InputSplit`), so the file is that
node's `pseudo_replica_path(node_root, block_id, attribute)`.

A published replica is never written in place: an append writes the merged
replica to a temp file and renames it over the old one. No other unit
touches that file meanwhile, because a job hands off at most one unit per
block and drains before the next job (see `indexer`). The unit passes its
registration recorder as `registry`, so the wider entry is registered when
the indexer drains (for a crash before that, see `Cluster._repair`).
"""

from __future__ import annotations

import contextlib
import os
import uuid
from pathlib import Path

from .blocks import DataBlock
from .blockfile import pseudo_replica_path, pseudo_temp_path, read_block, write_block
from .registry import ReplicaRegistry


def append_aligned_columns(
    node_root: Path | str,
    node_id: int,
    registry: ReplicaRegistry,
    block_id: int,
    attribute: str,
    aligned: DataBlock,
) -> bool:
    """Append already-aligned columns to a partial replica; returns True on change.

    The replica is the node's own file at `pseudo_replica_path`; without one
    this raises FileNotFoundError. Appending an attribute that is already
    present is a no-op. When the merge covers the whole schema the permutation
    vector is removed and the registry entry is upgraded to a full pseudo
    replica. A storage failure removes the temp file and re-raises, leaving the
    old replica and its registry entry.
    """
    final = pseudo_replica_path(node_root, block_id, attribute)
    existing = read_block(final)
    new_names = [n for n in aligned.schema.names if n not in existing.schema.names]
    if not new_names:
        return False

    merged_names = set(existing.schema.names) | set(new_names)
    schema = registry.schema.subset(merged_names)
    columns = {}
    for name in schema.names:
        src = existing.columns.get(name)
        columns[name] = src if src is not None else aligned.columns[name]
    complete = merged_names == set(registry.schema.names)

    merged = DataBlock(
        block_id=block_id,
        schema=schema,
        columns=columns,
        index=existing.index,
        permutation=None if complete else existing.permutation,
    )

    temp = pseudo_temp_path(node_root, block_id, attribute, uuid.uuid4().hex[:12])
    try:
        write_block(merged, temp)
        os.replace(temp, final)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise

    registry.register_pseudo(block_id, node_id, attribute, schema.names, final)
    return True
