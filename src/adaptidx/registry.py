"""Replica registry: the cluster-wide {block_id -> replicas} mapping.

The registry is the single shared mutable structure in the engine. All
mutations and lookups take one lock, which gives register/lookup linearizable
semantics. In the engine one thread writes it, the map thread: the upload,
the repair at open and, while jobs run, only `AdaptiveIndexer.drain`
(README, "Invariants"); the indexers' units on the pool only read its
schema. Every mutation is appended to a journal file (one JSON record per
line) so a cluster directory can be reopened and replayed; a torn last line
(a crash mid-append) is dropped on load, and any other line that is not a
record of the journal's shape, holds a negative id or count, or is refused
by the registry, raises RegistryError naming its line. The journal's
dataset record carries `"paths": "journal_dir"`: replica paths under the
journal's directory are stored relative to it, so the cluster can be
reopened from any working directory or after being moved. A journal without
the marker is refused.

Two derived tables, updated under the same lock by `add_block` and
`register_index`, make the planner's lookups O(1): the number of adaptive
(pseudo or partial) replicas per (node, indexed attribute), and per attribute
the best replica of each block indexed on it, upload-time indexes included
(normal, then pseudo, then partial, then the lowest node id). `find_index` is
one lookup in the second, `best_replicas` a copy of one attribute's part,
which the planner reads once per job, and `indexed_block_count` its size. Replicas are
never removed, so a block never leaves the best table; a widening
re-registration replaces its entry there, and when it lands on another node
its count moves there. A mutation counter (`version`) counts the calls that
changed the registry, so a runner reuses its last plan while it holds.

The journal is appended through one handle per registry, opened by the
first append after the journal is attached and closed by `close`
(`Cluster.close` calls it); each record is one line, flushed as it is
written. A replica's file is published before its journal line (README,
"Invariants"); `Cluster._repair` reconciles the two after a crash.
"""

from __future__ import annotations

import json
import os
import threading
import weakref
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Optional, TextIO

from .blocks import Schema
from .errors import AdaptidxError, RegistryError, SchemaError


class ReplicaKind(str, Enum):
    NORMAL = "normal"
    PSEUDO = "pseudo"
    PARTIAL_PSEUDO = "partial_pseudo"


_KIND_PREFERENCE = {ReplicaKind.NORMAL: 0, ReplicaKind.PSEUDO: 1, ReplicaKind.PARTIAL_PSEUDO: 2}
_NO_BLOCKS = MappingProxyType({})  # best table of an attribute no replica is indexed on
# Dataset-record marker: relative replica paths are relative to the journal's directory.
_JOURNAL_DIR_PATHS = "journal_dir"


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
        """The replica `to_json` wrote; a field of another JSON type raises TypeError."""
        names = d["available_attributes"]
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise TypeError(f"'available_attributes' must be a list of str, got {names!r}")
        return cls(
            node_id=_typed(d, "node_id", "int"),
            kind=ReplicaKind(_typed(d, "kind", "str")),
            indexed_attribute=_typed(d, "indexed_attribute", "str or null"),
            available_attributes=frozenset(names),
            path=_typed(d, "path", "str"),
        )


_JSON_TYPES = {"int": int, "str": str, "str or null": (str, type(None))}


def _typed(record: dict, key: str, kind: str):
    """`record[key]` if its JSON type is `kind`, else TypeError; no field is
    a bool, which Python counts as an int, and no int is negative
    (ValueError)."""
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise TypeError(f"{key!r} must be {kind}, got {value!r}")
    if kind == "int" and value < 0:
        raise ValueError(f"{key!r} must be non-negative, got {value!r}")
    return value


class ReplicaRegistry:
    def __init__(
        self,
        schema: Schema,
        replication_factor: int,
        journal_path: Optional[Path | str] = None,
    ) -> None:
        self.schema = schema
        self.replication_factor = replication_factor
        self._journal_path: Optional[Path] = None
        self._journal_root: Optional[str] = None  # the journal's directory, absolute
        self._journal: Optional[TextIO] = None  # append handle, opened on first use
        if journal_path:
            self._attach_journal(Path(journal_path))
        self._lock = threading.RLock()
        self._replicas: dict[int, list[BlockReplicaInfo]] = {}
        self._record_counts: dict[int, int] = {}
        self._pseudo_counts: dict[tuple[int, str], int] = {}
        self._best: dict[str, dict[int, BlockReplicaInfo]] = {}
        self._version = 0  # mutations so far; see `version`
        if self._journal_path is not None and not self._journal_path.exists():
            self._journal_path.parent.mkdir(parents=True, exist_ok=True)
            self._append_journal(
                {
                    "event": "dataset",
                    "schema": schema.to_json(),
                    "replication": replication_factor,
                    "paths": _JOURNAL_DIR_PATHS,
                }
            )

    # -- construction ------------------------------------------------------

    @classmethod
    def load(cls, journal_path: Path | str) -> "ReplicaRegistry":
        """Rebuild a registry by replaying its journal."""
        journal_path = Path(journal_path)
        records = _read_journal(journal_path)
        number, head = records[0] if records else (0, None)
        if not isinstance(head, dict) or head.get("event") != "dataset":
            raise RegistryError(f"journal {journal_path} does not start with a dataset record")
        if head.get("paths") != _JOURNAL_DIR_PATHS:
            raise RegistryError(f"journal {journal_path} predates its path marker; cannot open it")
        try:
            # No journal path yet: replay must not re-journal what it reads.
            reg = cls(Schema.from_json(head["schema"]), head["replication"])
            for number, rec in records[1:]:
                info = BlockReplicaInfo.from_json(rec["replica"])
                if not os.path.isabs(info.path):
                    info = replace(info, path=str(journal_path.parent / info.path))
                block_id = _typed(rec, "block_id", "int")
                if rec["event"] == "block":
                    reg.add_block(block_id, _typed(rec, "record_count", "int"), [info])
                elif rec["event"] == "register":
                    reg.register_index(block_id, info)
                else:
                    raise ValueError(f"unknown event {rec['event']!r}")
        except (KeyError, TypeError, ValueError, AdaptidxError) as exc:
            where = f"journal {journal_path} line {number}"
            raise RegistryError(f"{where} is malformed: {type(exc).__name__}: {exc}") from None
        reg._attach_journal(journal_path)
        return reg

    def _attach_journal(self, journal_path: Path) -> None:
        self._journal_path = journal_path
        self._journal_root = os.path.abspath(journal_path.parent)

    def _append_journal(self, record: dict) -> None:
        """Append one record as one flushed line. A replica path is stored
        relative to the journal's directory when it lies under it, else
        absolute."""
        if self._journal_path is None:
            return
        replica = record.get("replica")
        if replica is not None:
            path = os.path.abspath(replica["path"])
            rel = os.path.relpath(path, self._journal_root)
            outside = rel == os.pardir or rel.startswith(os.pardir + os.sep)
            replica["path"] = path if outside else rel
        if self._journal is None:
            self._journal = open(self._journal_path, "a")
            # Closes the handle of a registry dropped without `close`.
            self._close_journal = weakref.finalize(self, self._journal.close)
        self._journal.write(json.dumps(record) + "\n")
        self._journal.flush()

    def rename_journal(self, path: Path | str) -> None:
        """Move the journal to `path` in its directory; later appends go there."""
        os.replace(self._journal_path, path)
        self._journal_path = Path(path)

    def close(self) -> None:
        """Close the journal's append handle; a later append opens it again."""
        with self._lock:
            if self._journal is not None:
                self._close_journal()
                self._journal = None

    def _update_best(self, block_id: int, attribute: str) -> None:
        """Recompute the best replica of `block_id` indexed on `attribute`."""
        hits = [r for r in self._replicas[block_id] if r.indexed_attribute == attribute]
        self._best.setdefault(attribute, {})[block_id] = min(
            hits, key=lambda r: (_KIND_PREFERENCE[r.kind], r.node_id)
        )

    # -- mutation ----------------------------------------------------------

    def add_block(self, block_id: int, record_count: int, replicas: list[BlockReplicaInfo]) -> None:
        """Record a block's normal replicas at upload time."""
        with self._lock:
            for info in replicas:
                if info.kind != ReplicaKind.NORMAL:
                    raise RegistryError("add_block only accepts normal replicas")
                info.validate(self.schema)
            entry = self._replicas.get(block_id, ())
            normals = sum(1 for r in entry if r.kind == ReplicaKind.NORMAL)
            if normals + len(replicas) > self.replication_factor:
                raise RegistryError(
                    f"block {block_id} would exceed replication factor {self.replication_factor}"
                )
            self._replicas.setdefault(block_id, []).extend(replicas)
            self._record_counts[block_id] = record_count
            self._version += 1
            for info in replicas:
                if info.indexed_attribute is not None:
                    self._update_best(block_id, info.indexed_attribute)
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
        full pseudo replica), in which case it replaces the old entry, on
        whichever node that entry sits, and its count moves to the new node.
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
                    self._pseudo_counts[(existing.node_id, existing.indexed_attribute)] -= 1
                    break
            else:
                entry.append(info)
            self._update_best(block_id, info.indexed_attribute)
            self._version += 1
            key = (info.node_id, info.indexed_attribute)
            self._pseudo_counts[key] = self._pseudo_counts.get(key, 0) + 1
            self._append_journal(
                {"event": "register", "block_id": block_id, "replica": info.to_json()}
            )

    def register_pseudo(
        self, block_id: int, node_id: int, attribute: str, names: Iterable[str], path: Path | str
    ) -> None:
        """Register an adaptive replica on `attribute` that holds `names`, via
        `register_index`: pseudo when they cover the schema, else partial."""
        names = frozenset(names)
        full = names == set(self.schema.names)
        kind = ReplicaKind.PSEUDO if full else ReplicaKind.PARTIAL_PSEUDO
        self.register_index(block_id, BlockReplicaInfo(node_id, kind, attribute, names, str(path)))

    # -- lookup ------------------------------------------------------------

    @property
    def version(self) -> int:
        """The number of mutations so far: `add_block` calls, and
        `register_index` calls that changed an entry. Equal versions of one
        registry hold the same replicas."""
        with self._lock:
            return self._version

    @property
    def block_ids(self) -> list[int]:
        with self._lock:
            return sorted(self._replicas)

    @property
    def block_count(self) -> int:
        with self._lock:
            return len(self._replicas)

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
        """Best replica indexed on `attribute`: normal, then pseudo, then
        partial, then the lowest node id; None for an unknown block."""
        with self._lock:
            return self._best.get(attribute, _NO_BLOCKS).get(block_id)

    def best_replicas(self, attribute: str) -> dict[int, BlockReplicaInfo]:
        """A copy of `find_index`'s answers for `attribute`, block id to best
        replica, taken at one moment; blocks not indexed on it are absent."""
        with self._lock:
            return dict(self._best.get(attribute, _NO_BLOCKS))

    def indexed_block_count(self, attribute: str) -> int:
        with self._lock:
            return len(self._best.get(attribute, _NO_BLOCKS))

    def pseudo_count(self, node_id: int, attribute: str) -> int:
        """Pseudo/partial replicas indexed on `attribute` hosted on a node."""
        with self._lock:
            return self._pseudo_counts.get((node_id, attribute), 0)

    def iter_replicas(self) -> Iterator[tuple[int, BlockReplicaInfo]]:
        with self._lock:
            snapshot = [(b, list(rs)) for b, rs in self._replicas.items()]
        for block_id, rs in snapshot:
            for r in rs:
                yield block_id, r


def _read_journal(path: Path) -> list[tuple[int, object]]:
    """Parse a journal into (line number, record) pairs, dropping a torn last
    line left by a crash mid-append.

    Each append writes one record followed by its newline, so a crash can
    tear only the last line, which then has no newline: an unparsable one is
    truncated away and a complete one gets its newline back, so the next
    append starts on a clean line. An unparsable line anywhere else is
    corruption.
    """
    data = path.read_bytes()
    lines = data.split(b"\n")
    tail = lines.pop()  # b"" when the file ends with a newline
    records = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append((number, json.loads(line)))
        except ValueError as exc:
            raise RegistryError(f"journal {path} line {number} is corrupt: {exc}") from None
    if tail.strip():
        try:
            records.append((len(lines) + 1, json.loads(tail)))
        except ValueError:
            with open(path, "r+b") as f:
                f.truncate(len(data) - len(tail))
        else:
            with open(path, "ab") as f:
                f.write(b"\n")
    return records
