"""Lazy projection: partial pseudo replicas completed attribute by attribute.

A partial pseudo replica stores the sorted index attribute, whichever other
attributes the triggering job projected (already aligned), the sparse index,
and the permutation vector that maps normal-replica row positions to sorted
positions. The node's Adaptive Indexer builds it like any pseudo replica,
keeping the vector because the schema is incomplete. Later index scans that
project additional attributes read them from the normal replica and align
them with the stored vector to serve the job; when that normal replica is
local, the record reader hands the aligned columns to the indexer, whose
writer appends them here. Once every schema attribute is present the
permutation vector is dropped and the replica is promoted to a full pseudo
replica.

Replica files stay write-once: appends rewrite to a temp file and rename over
the old one, serialized by the owning node's single index-writer thread.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path
from typing import Optional

from .blocks import DataBlock
from .blockfile import (
    pseudo_replica_path,
    pseudo_temp_path,
    read_block,
    write_block,
)
from .registry import BlockReplicaInfo, ReplicaKind, ReplicaRegistry


def _partial_info(registry: ReplicaRegistry, block_id: int, attribute: str) -> Optional[BlockReplicaInfo]:
    for info in registry.replicas(block_id):
        if info.kind == ReplicaKind.PARTIAL_PSEUDO and info.indexed_attribute == attribute:
            return info
    return None


def append_aligned_columns(
    node_root: Path | str,
    node_id: int,
    registry: ReplicaRegistry,
    block_id: int,
    attribute: str,
    aligned: DataBlock,
) -> bool:
    """Append already-aligned columns to a partial replica; returns True on change.

    Appending an attribute that is already present is a no-op. When the merge
    covers the whole schema the permutation vector is removed and the registry
    entry is upgraded to a full pseudo replica. A storage failure removes the
    temp file and re-raises, leaving the old replica and its registry entry.
    """
    info = _partial_info(registry, block_id, attribute)
    if info is None:
        return False
    existing = read_block(info.path)
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
        sort_attribute=attribute,
        index=existing.index,
        permutation=None if complete else existing.permutation,
    )

    final = pseudo_replica_path(node_root, block_id, attribute)
    temp = pseudo_temp_path(node_root, block_id, attribute, uuid.uuid4().hex[:12])
    try:
        write_block(merged, temp)
        os.replace(temp, final)
    except OSError:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise

    registry.register_index(
        block_id,
        BlockReplicaInfo(
            node_id=node_id,
            kind=ReplicaKind.PSEUDO if complete else ReplicaKind.PARTIAL_PSEUDO,
            indexed_attribute=attribute,
            available_attributes=frozenset(schema.names),
            path=str(final),
            has_permutation_vector=not complete,
        ),
    )
    return True
