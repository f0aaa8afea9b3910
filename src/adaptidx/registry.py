"""Replica registry: the cluster-wide {block_id -> replicas} mapping.

The registry is the single shared mutable structure in the engine. All
mutations and lookups take one lock, which gives register/lookup linearizable
semantics. Every mutation is appended to a journal file (one JSON record per
line) so a cluster directory can be reopened and replayed.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, Optional

from .blocks import Schema
from .errors import RegistryError, SchemaError


class ReplicaKind(str, Enum):
    NORMAL = "normal"
    PSEUDO = "pseudo"
    PARTIAL_PSEUDO = "partial_pseudo"


_KIND_PREFERENCE = {ReplicaKind.NORMAL: 0, ReplicaKind.PSEUDO: 1, ReplicaKind.PARTIAL_PSEUDO: 2}


@dataclass(frozen=True)
class BlockReplicaInfo:
    node_id: int
    kind: ReplicaKind
    indexed_attribute: Optional[str]
    available_attributes: frozenset[str]
    path: str

    @property
    def has_permutation_vector(self) -> bool:
        """Only a partial pseudo replica keeps the vector, to align later columns."""
        return self.kind == ReplicaKind.PARTIAL_PSEUDO

    def validate(self, schema: Schema) -> None:
        full = set(schema.names)
        if not self.available_attributes <= full:
            raise SchemaError("replica advertises attributes outside the schema")
        if self.kind == ReplicaKind.NORMAL:
            if self.available_attributes != full:
                raise SchemaError("normal replicas carry the full schema")
        elif self.kind == ReplicaKind.PSEUDO:
            if self.indexed_attribute is None:
                raise SchemaError("pseudo replicas must name their indexed attribute")
            if self.available_attributes != full:
                raise SchemaError("pseudo replicas carry the full schema")
        else:
            if self.indexed_attribute is None:
                raise SchemaError("partial pseudo replicas must name their indexed attribute")
            if self.indexed_attribute not in self.available_attributes:
                raise SchemaError("partial pseudo replicas must contain the indexed attribute")

    def to_json(self) -> dict:
        return {
            "node_id": self.node_id,
            "kind": self.kind.value,
            "indexed_attribute": self.indexed_attribute,
            "available_attributes": sorted(self.available_attributes),
            "path": self.path,
        }

    @classmethod
    def from_json(cls, d: dict) -> "BlockReplicaInfo":
        # Older journals also carry "has_permutation_vector"; it is derived
        # from the kind, so the key is ignored.
        return cls(
            node_id=d["node_id"],
            kind=ReplicaKind(d["kind"]),
            indexed_attribute=d["indexed_attribute"],
            available_attributes=frozenset(d["available_attributes"]),
            path=d["path"],
        )


class ReplicaRegistry:
    def __init__(
        self,
        schema: Schema,
        replication_factor: int,
        journal_path: Optional[Path | str] = None,
    ) -> None:
        self.schema = schema
        self.replication_factor = replication_factor
        self._journal_path = Path(journal_path) if journal_path else None
        self._lock = threading.RLock()
        self._replicas: dict[int, list[BlockReplicaInfo]] = {}
        self._record_counts: dict[int, int] = {}
        if self._journal_path is not None and not self._journal_path.exists():
            self._journal_path.parent.mkdir(parents=True, exist_ok=True)
            self._append_journal(
                {
                    "event": "dataset",
                    "schema": schema.to_json(),
                    "replication": replication_factor,
                }
            )

    # -- construction ------------------------------------------------------

    @classmethod
    def load(cls, journal_path: Path | str) -> "ReplicaRegistry":
        """Rebuild a registry by replaying its journal."""
        journal_path = Path(journal_path)
        with open(journal_path) as f:
            lines = [json.loads(line) for line in f if line.strip()]
        if not lines or lines[0].get("event") != "dataset":
            raise RegistryError(f"journal {journal_path} does not start with a dataset record")
        head = lines[0]
        reg = cls.__new__(cls)
        reg.schema = Schema.from_json(head["schema"])
        reg.replication_factor = head["replication"]
        reg._journal_path = None  # suppress re-journaling during replay
        reg._lock = threading.RLock()
        reg._replicas = {}
        reg._record_counts = {}
        for rec in lines[1:]:
            info = BlockReplicaInfo.from_json(rec["replica"])
            if rec["event"] == "block":
                reg.add_block(rec["block_id"], rec["record_count"], [info])
            elif rec["event"] == "register":
                reg.register_index(rec["block_id"], info)
            else:
                raise RegistryError(f"unknown journal event {rec['event']!r}")
        reg._journal_path = journal_path
        return reg

    def _append_journal(self, record: dict) -> None:
        if self._journal_path is None:
            return
        with open(self._journal_path, "a") as f:
            f.write(json.dumps(record) + "\n")

    # -- mutation ----------------------------------------------------------

    def add_block(self, block_id: int, record_count: int, replicas: list[BlockReplicaInfo]) -> None:
        """Record a block's normal replicas at upload time."""
        with self._lock:
            for info in replicas:
                if info.kind != ReplicaKind.NORMAL:
                    raise RegistryError("add_block only accepts normal replicas")
                info.validate(self.schema)
            entry = self._replicas.setdefault(block_id, [])
            normals = sum(1 for r in entry if r.kind == ReplicaKind.NORMAL)
            if normals + len(replicas) > self.replication_factor:
                raise RegistryError(
                    f"block {block_id} would exceed replication factor {self.replication_factor}"
                )
            entry.extend(replicas)
            self._record_counts[block_id] = record_count
            for info in replicas:
                self._append_journal(
                    {
                        "event": "block",
                        "block_id": block_id,
                        "record_count": record_count,
                        "replica": info.to_json(),
                    }
                )

    def register_index(self, block_id: int, info: BlockReplicaInfo) -> None:
        """Register an adaptively created index replica.

        Re-registering the same (block, attribute) is a no-op unless the new
        entry widens a partial replica (more attributes, or an upgrade to a
        full pseudo replica), in which case it replaces the old entry.
        """
        with self._lock:
            if block_id not in self._replicas:
                raise RegistryError(f"unknown block {block_id}")
            if info.kind == ReplicaKind.NORMAL:
                raise RegistryError("register_index only accepts pseudo replicas")
            info.validate(self.schema)
            entry = self._replicas[block_id]
            for i, existing in enumerate(entry):
                if (
                    existing.kind != ReplicaKind.NORMAL
                    and existing.indexed_attribute == info.indexed_attribute
                ):
                    widens = info.available_attributes > existing.available_attributes or (
                        existing.kind == ReplicaKind.PARTIAL_PSEUDO
                        and info.kind == ReplicaKind.PSEUDO
                    )
                    if not widens:
                        return
                    entry[i] = info
                    self._append_journal(
                        {"event": "register", "block_id": block_id, "replica": info.to_json()}
                    )
                    return
            entry.append(info)
            self._append_journal(
                {"event": "register", "block_id": block_id, "replica": info.to_json()}
            )

    # -- lookup ------------------------------------------------------------

    @property
    def block_ids(self) -> list[int]:
        with self._lock:
            return sorted(self._replicas)

    @property
    def block_count(self) -> int:
        with self._lock:
            return len(self._replicas)

    def record_count(self, block_id: int) -> int:
        with self._lock:
            return self._record_counts[block_id]

    @property
    def total_records(self) -> int:
        with self._lock:
            return sum(self._record_counts.values())

    def replicas(self, block_id: int) -> list[BlockReplicaInfo]:
        with self._lock:
            if block_id not in self._replicas:
                raise RegistryError(f"unknown block {block_id}")
            return list(self._replicas[block_id])

    def normal_replicas(self, block_id: int) -> list[BlockReplicaInfo]:
        return [r for r in self.replicas(block_id) if r.kind == ReplicaKind.NORMAL]

    def find_index(self, block_id: int, attribute: str) -> Optional[BlockReplicaInfo]:
        """Best replica indexed on `attribute`: normal, then pseudo, then partial."""
        with self._lock:
            if block_id not in self._replicas:
                return None
            hits = [
                r
                for r in self._replicas[block_id]
                if r.indexed_attribute == attribute
            ]
            if not hits:
                return None
            return min(hits, key=lambda r: (_KIND_PREFERENCE[r.kind], r.node_id))

    def indexed_block_count(self, attribute: str) -> int:
        with self._lock:
            return sum(
                1 for b in self._replicas if self.find_index(b, attribute) is not None
            )

    def pseudo_count(self, node_id: int, attribute: str) -> int:
        """Pseudo/partial replicas indexed on `attribute` hosted on a node."""
        with self._lock:
            total = 0
            for entry in self._replicas.values():
                for r in entry:
                    if r.kind == ReplicaKind.NORMAL or r.node_id != node_id:
                        continue
                    if r.indexed_attribute == attribute:
                        total += 1
            return total

    def iter_replicas(self) -> Iterator[tuple[int, BlockReplicaInfo]]:
        with self._lock:
            snapshot = [(b, list(rs)) for b, rs in self._replicas.items()]
        for block_id, rs in snapshot:
            for r in rs:
                yield block_id, r
