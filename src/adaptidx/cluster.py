"""Simulated cluster substrate: nodes, replica placement, and map waves.

Nodes are directories under one storage root. Map slots and waves are
simulated bookkeeping: tasks run one after another on the calling thread,
and a task's wave is its position in the plan divided by the slot count.
The real concurrency is one thread pool per cluster, as wide as the host
has cores. The upload writes the normal replicas on it, sorting and
indexing those with an upload-time index as HAIL does. After it, every
node's Adaptive Indexer builds and writes adaptive indexes on it beside the
map tasks, and `drain_indexers` registers what they did. `close` ends the
cluster: it drains the indexers, so every unit handed off has landed and
been registered, and stops the pool; a closed cluster runs and uploads
nothing. A cluster dropped without `close` takes its pool with it, and the
pool's threads then exit.

One cluster object owns a directory at a time (README, "Invariants"):
`Cluster.__init__` takes an exclusive `flock` on the root directory itself
and holds it until `close`, or until the cluster is collected.
`Cluster.__init__` is the one reader of a cluster directory; `Cluster.open`
only passes it the config the directory holds. Time is simulated
deterministically: a task costs its bytes read times a configured per-byte
cost, so the adaptive-indexing cost model can be checked exactly instead of
against noisy wall clocks.
"""

from __future__ import annotations

import dataclasses
import fcntl
import json
import math
import os
import shutil
import threading
import traceback
import weakref
from concurrent import futures
from dataclasses import InitVar, asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

from .blocks import DataBlock, Schema
from .blockfile import OpenReplicas, check_block_file, write_block
from .errors import AdaptidxError, BlockFormatError, ConfigError, RegistryError
from .execution import InputSplit, JobSpec, TaskContext, TaskResult, record_reader_scan
from . import indexer
from .indexer import AdaptiveIndexer, build_index
from .policy import load_json, save_json
from .registry import BlockReplicaInfo, ReplicaKind, ReplicaRegistry

REGISTRY_JOURNAL = "registry.journal"
UPLOAD_JOURNAL = f".{REGISTRY_JOURNAL}.tmp"  # renamed to REGISTRY_JOURNAL by the upload
CLUSTER_CONFIG = "cluster.json"
# Value types accepted per ClusterConfig field annotation; never a bool.
_VALUE_KINDS = {"int": int, "Optional[int]": (int, type(None)), "float": (int, float), "str": str}


def _check_kind(field: dataclasses.Field, value, what: str) -> None:
    """Refuse, with ConfigError naming it as `what`, a value of the wrong
    type for a ClusterConfig field."""
    if isinstance(value, bool) or not isinstance(value, _VALUE_KINDS[field.type]):
        raise ConfigError(f"{what} must be {field.type}, got {value!r}")


@dataclass
class ClusterConfig:
    node_count: int
    slots_per_node: int = 1
    replication_factor: int = 3
    block_records: int = 262_144
    block_bytes: Optional[int] = None  # overrides block_records when set
    max_blocks_per_split: int = 16
    page_size_records: int = 1024
    per_byte_cost: float = 1e-8  # simulated seconds per byte read
    per_block_index_cost: float = 0.05  # simulated seconds per block indexed
    projection_mode: str = "invisible"  # or "lazy"
    # Retired: accepted for older callers and ignored, and unknown keys in a
    # cluster.json; indexer.QUEUE_CAPACITY sizes the cluster's indexing slots.
    build_queue_capacity: InitVar[Optional[int]] = None
    write_queue_capacity: InitVar[Optional[int]] = None

    def __post_init__(self, *_retired) -> None:
        for field in dataclasses.fields(self):  # so cluster.json reads back what it holds
            _check_kind(field, getattr(self, field.name), field.name)
        if self.node_count < 1:
            raise ConfigError("need at least one node")
        if self.slots_per_node < 1:
            raise ConfigError("need at least one map slot per node")
        if self.replication_factor < 1 or self.replication_factor > self.node_count:
            raise ConfigError(
                f"replication factor {self.replication_factor} needs "
                f"{self.replication_factor} distinct nodes, have {self.node_count}"
            )
        if self.projection_mode not in ("invisible", "lazy"):
            raise ConfigError(f"unknown projection mode {self.projection_mode!r}")
        for name in ("block_records", "block_bytes", "max_blocks_per_split", "page_size_records"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be at least 1, got {value!r}")
        for name in ("per_byte_cost", "per_block_index_cost"):
            value = getattr(self, name)
            if not (value >= 0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be non-negative and finite, got {value!r}")

    @property
    def n_slots(self) -> int:
        return self.node_count * self.slots_per_node

    def records_per_block(self, schema: Schema) -> int:
        if self.block_bytes is not None:
            return max(1, self.block_bytes // schema.row_width)
        return self.block_records

    @classmethod
    def from_file(cls, path: Path | str) -> "ClusterConfig":
        """Load a JSON config; a malformed one raises ConfigError naming the key."""
        raw = load_json(path, "cluster config")
        if not isinstance(raw, dict):
            raise ConfigError(f"cluster config {path} must be a JSON object")
        aliases = {"nodes": "node_count", "replication": "replication_factor"}
        fields = {f.name: f for f in dataclasses.fields(cls)}  # the InitVars are not
        known, keys = {}, {}
        for key, value in raw.items():
            name = aliases.get(key, key)
            if name not in fields:
                raise ConfigError(f"unknown key {key!r} in cluster config {path}")
            if name in keys:
                raise ConfigError(
                    f"keys {keys[name]!r} and {key!r} in cluster config {path} name one field"
                )
            keys[name] = key
            _check_kind(fields[name], value, f"key {key!r} in cluster config {path}")
            known[name] = value
        if "node_count" not in known:
            raise ConfigError(f"cluster config {path} needs 'nodes'")
        return cls(**known)

    def save(self, path: Path | str) -> None:
        """Write the config through `save_json`, unless `path` holds its text already.

        So reopening a cluster leaves a canonical cluster.json untouched, and
        only a hand-written one, say with aliases, is replaced.
        """
        data = asdict(self)
        try:
            if Path(path).read_bytes() == json.dumps(data, indent=2).encode():
                return
        except FileNotFoundError:
            pass
        save_json(path, data)


class Cluster:
    def __init__(self, config: ClusterConfig, root: Path | str):
        """Open the cluster directory at `root`, creating it if needed.

        A root with a `registry.journal` holds a dataset: unless its
        cluster.json parses to an equal config (else ConfigError, and no file
        changes), the journal is replayed, `_repair` runs and the indexers
        start; a journal that places a replica on a node the config lacks
        raises RegistryError. A root without one holds no dataset, so the
        temp journal and replica files a crashed upload left are deleted.
        """
        self.config = config
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.root, os.O_RDONLY | os.O_DIRECTORY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise RegistryError(f"cluster {self.root} is already open elsewhere") from None
        self._unlock = weakref.finalize(self, os.close, fd)
        self._closed = False
        self.registry: Optional[ReplicaRegistry] = None
        self.indexers: dict[int, AdaptiveIndexer] = {}
        self.open_replicas = OpenReplicas()  # used by map tasks, which run on one thread
        width = os.cpu_count() or 1
        self.pool = futures.ThreadPoolExecutor(width)  # the upload's and every indexer's
        self._slots = threading.Semaphore(indexer.QUEUE_CAPACITY * width)
        try:
            journal = self.root / REGISTRY_JOURNAL
            has_dataset = journal.exists()
            if not has_dataset:
                self._remove_replica_files()
            elif ClusterConfig.from_file(self.root / CLUSTER_CONFIG) != config:
                raise ConfigError(
                    f"cluster {self.root} holds a dataset under another config; "
                    f"open it with its own {CLUSTER_CONFIG}"
                )
            for temp in self.root.glob(".*.json.tmp"):  # left by a crash in save_json
                temp.unlink()
            for k in range(config.node_count):
                (self.node_root(k) / "blocks").mkdir(parents=True, exist_ok=True)
            config.save(self.root / CLUSTER_CONFIG)
            if has_dataset:
                self.registry = ReplicaRegistry.load(journal)
                for block_id, info in self.registry.iter_replicas():
                    if info.node_id >= config.node_count:
                        raise RegistryError(
                            f"block {block_id} has a replica on node {info.node_id}, "
                            f"which cluster {self.root} lacks"
                        )
                self._repair()
                self._start_indexers()
        except BaseException:
            self._unlock()  # so a failed open leaves the root free to reopen
            raise

    @classmethod
    def open(cls, root: Path | str) -> "Cluster":
        """Reopen a cluster directory under the config its cluster.json holds."""
        return cls(ClusterConfig.from_file(Path(root) / CLUSTER_CONFIG), root)

    def _repair(self) -> None:
        """Reconcile each node's `pseudo/blk_*/*` files with the journal,
        when a root that holds a dataset is opened.

        A crash can come after a replica file is published, or a lazy
        completion renamed over it, and before the job's drain journals it,
        or while a new replica file or a completion's `.<attribute>.tmp` is
        written, leaving it short. Files are visited in (node, block id,
        attribute) order, so that the lines appended are deterministic:
        - a file whose (block, attribute) entry is on another node is deleted;
        - the file of a full pseudo entry on its node is left unread;
        - the file of a partial entry on its node is registered with what it
          holds, which widens the entry if the crash lost its completion;
        - any other file (an orphan, whole or short, or a temp file, whose
          name is no attribute) is registered if `_held_names` reads it and
          the registry takes it, and deleted otherwise.
        A directory no crash touched gains no journal byte and loses no file.
        """
        owners = {  # (block, attribute) -> (node, kind) of its adaptive entry
            (b, info.indexed_attribute): (info.node_id, info.kind)
            for b, info in self.registry.iter_replicas()
            if info.kind != ReplicaKind.NORMAL
        }
        for node in self.node_ids():
            pseudo = self.node_root(node) / "pseudo"
            blocks = [(int(d.name[4:]), d) for d in pseudo.glob("blk_*") if d.name[4:].isdigit()]
            for block_id, block_dir in sorted(blocks):
                for path in sorted(block_dir.iterdir()):
                    key = (block_id, path.name)
                    owner, kind = owners.get(key, (None, None))
                    if owner not in (None, node):
                        path.unlink()
                    elif kind != ReplicaKind.PSEUDO:
                        try:
                            names = _held_names(path, *key)
                            self.registry.register_pseudo(block_id, node, path.name, names, path)
                            owners[key] = (node, kind)
                        except (OSError, ValueError, AdaptidxError):
                            if owner is None:
                                path.unlink()

    def node_root(self, node_id: int) -> Path:
        return self.root / f"node_{node_id}"

    def node_ids(self) -> list[int]:
        return list(range(self.config.node_count))

    def _start_indexers(self) -> None:
        self.indexers = {
            k: AdaptiveIndexer(
                node_id=k,
                node_root=self.node_root(k),
                registry=self.registry,
                pool=self.pool,
                slots=self._slots,
                page_size_records=self.config.page_size_records,
            )
            for k in self.node_ids()
        }

    # -- upload --------------------------------------------------------------

    def upload_dataset(
        self, dataset, upload_index_attributes: Sequence[str] = ()
    ) -> ReplicaRegistry:
        """Split a dataset into blocks and place r normal replicas round-robin.

        Replica k of every block is sorted and indexed on
        upload_index_attributes[k] when given, mirroring upload-time index
        creation: as many clustered indexes as there are replicas. Replicas
        are indexed and written on the cluster's pool, as wide as the host
        has cores: more workers would only contend for the interpreter lock.
        Once every write is done, the calling thread registers every block in
        block order. The journal is written under a temp name in the root and
        renamed into place after the last block, so a crash mid-upload leaves
        no dataset, and the next open deletes the temp file and the replica
        files the crash left. The node indexers start only after the rename.
        If any replica fails, the registry is closed, the temp journal and
        every replica file are removed and the first error in block order is
        raised. A closed cluster raises AdaptidxError and touches no file.
        """
        self._check_open()
        schema: Schema = dataset.schema
        r = self.config.replication_factor
        if len(upload_index_attributes) > r:
            raise ConfigError(
                f"{len(upload_index_attributes)} upload indexes exceed replication factor {r}"
            )
        for attr in upload_index_attributes:
            schema.attribute(attr)  # raises SchemaError if unknown

        if self.registry is not None:
            raise RegistryError(f"cluster {self.root} already holds a dataset")
        self.registry = ReplicaRegistry(schema, r, journal_path=self.root / UPLOAD_JOURNAL)

        per_block = self.config.records_per_block(schema)
        total = dataset.row_count
        attrs = [*upload_index_attributes] + [None] * (r - len(upload_index_attributes))
        names = frozenset(schema.names)
        writes = []  # the replica writes on the pool, in block order
        blocks = []  # (block_id, record_count, replica infos), in block order

        def write_replica(block: DataBlock, attr: Optional[str], path: Path) -> None:
            if attr is not None:
                block = build_index(block, attr, self.config.page_size_records)[0]
            write_block(block, path)

        try:
            for block_id, start in enumerate(range(0, total, per_block)):
                stop = min(start + per_block, total)
                base = DataBlock(
                    block_id=block_id,
                    schema=schema,
                    columns={n: dataset.columns[n][start:stop] for n in schema.names},
                )
                infos = []
                for k, attr in enumerate(attrs):
                    node = (block_id + k) % self.config.node_count
                    path = self.node_root(node) / "blocks" / f"blk_{block_id}_r{k}"
                    writes.append(self.pool.submit(write_replica, base, attr, path))
                    infos.append(BlockReplicaInfo(node, ReplicaKind.NORMAL, attr, names, str(path)))
                blocks.append((block_id, stop - start, infos))
            for write in writes:
                write.result()
            for block_id, record_count, infos in blocks:
                self.registry.add_block(block_id, record_count, infos)
            self.registry.rename_journal(self.root / REGISTRY_JOURNAL)
        except BaseException:
            # Cancel the writes not yet started and wait for the rest, so
            # none lands after the cleanup below.
            for write in writes:
                write.cancel()
            futures.wait(writes)
            self.registry.close()
            self.registry = None
            self._remove_replica_files()
            raise
        self._start_indexers()
        return self.registry

    def _remove_replica_files(self) -> None:
        """Delete the upload's temp journal and the nodes' replica files;
        without a journal they belong to no dataset."""
        (self.root / UPLOAD_JOURNAL).unlink(missing_ok=True)
        for path in self.root.glob("node_*/blocks/blk_*"):
            path.unlink()
        for pseudo in self.root.glob("node_*/pseudo"):
            shutil.rmtree(pseudo)

    # -- execution -------------------------------------------------------------

    def run_wave(
        self,
        assignments: Sequence,
        job: JobSpec,
        will_offer_blocks: frozenset[int] = frozenset(),
    ) -> list[TaskResult]:
        """Run task assignments in plan order on the calling thread; a full
        scan offers its block only if it is in `will_offer_blocks`.

        Waves are simulated: n_slots tasks share a wave, so task i gets wave
        i // n_slots and wave count = ceil(tasks / n_slots). A hand-off that
        waits for an indexer slot cannot deadlock, because the pool's threads
        free it without the map thread. Task failures become
        failure results, not exceptions: there is no re-execution, the job
        simply fails. A closed cluster raises AdaptidxError and runs nothing.
        """
        self._check_open()
        ctx = TaskContext(self.registry, self.indexers, will_offer_blocks,
                          self.config.projection_mode, self.open_replicas)
        results: list[TaskResult] = []
        n_slots = self.config.n_slots
        for position, a in enumerate(assignments):
            res = self._run_task(a.split, job, ctx)
            res.wave_index = position // n_slots
            results.append(res)
        return results

    @staticmethod
    def _run_task(split: InputSplit, job: JobSpec, ctx: TaskContext) -> TaskResult:
        try:
            return record_reader_scan(split, job, ctx)
        except Exception as exc:  # noqa: BLE001 - task panics become failures
            res = TaskResult.for_split(split)
            res.failed = True
            res.error = f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=3)}"
            return res

    def drain_indexers(self) -> None:
        """Drain the indexers node by node; each drain registers what its
        units did, in hand-off order, so the journal's record order is fixed."""
        for node_indexer in self.indexers.values():
            node_indexer.drain()

    def _check_open(self) -> None:
        if self._closed:
            raise AdaptidxError(f"cluster {self.root} is closed")

    def close(self) -> None:
        """End the cluster: drain the indexers, so every unit handed off has
        landed and been registered, then stop the pool and close the
        registry's journal handle, every open replica and the directory
        lock. A second call does nothing."""
        if self._closed:
            return
        self.drain_indexers()
        self._closed = True
        self.pool.shutdown()
        if self.registry is not None:
            self.registry.close()
        self.open_replicas.close()
        self._unlock()


def _held_names(path: Path, block_id: int, attribute: str) -> tuple[str, ...]:
    """The attributes of the replica file at `path`. Raises unless it is a
    whole block file (`check_block_file`) whose header names `block_id` and
    is sorted on `attribute`."""
    header = check_block_file(path)
    if (header.block_id, header.sort_attribute) != (block_id, attribute):
        raise BlockFormatError(f"{path} is not block {block_id} sorted on {attribute!r}")
    return header.schema.names
