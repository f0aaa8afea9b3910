"""Simulated cluster substrate: nodes, replica placement, and map waves.

Nodes are directories under one storage root; "network transfer" is a byte
counter, not sockets. Map slots and waves are simulated bookkeeping: tasks run
one after another on the calling thread, and a task's wave is its position in
the plan divided by the slot count. The only real concurrency is each node's
indexer thread: it writes the node's normal replicas during the upload,
sorting and indexing those with an upload-time index as HAIL does, and then
builds and writes adaptive indexes beside the map tasks, leaving their
registration to the thread that drains it; `close` returns once every
indexer has landed and registered the work it accepted. Time is simulated
deterministically: a task costs its bytes read times a configured
per-byte cost, so the adaptive-indexing cost model can be checked exactly
instead of against noisy wall clocks.
"""

from __future__ import annotations

import json
import os
import traceback
from dataclasses import InitVar, asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

from .blocks import DataBlock, Schema
from .blockfile import HeaderCache, read_header
from .errors import ConfigError, RegistryError
from .execution import JobSpec, TaskContext, TaskResult, record_reader_scan
from .indexer import UPLOAD, AdaptiveIndexer, IndexWork
from .policy import save_json
from .registry import BlockReplicaInfo, ReplicaKind, ReplicaRegistry

# Not called here: the node indexers write and index the uploaded replicas.
# The names stay importable from this module, where bench/spans.py wraps them.
from .blockfile import write_block  # noqa: F401
from .indexer import build_index  # noqa: F401

REGISTRY_JOURNAL = "registry.journal"
CLUSTER_CONFIG = "cluster.json"
# Keys older cluster.json files may still carry; they are read and ignored.
RETIRED_CONFIG_KEYS = frozenset(
    {"balance_total_index_counts", "build_queue_capacity", "write_queue_capacity"}
)
# JSON value types accepted per ClusterConfig field annotation.
_VALUE_KINDS = {"int": int, "Optional[int]": (int, type(None)), "float": (int, float), "str": str}


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
    # Retired: accepted for older callers and ignored; indexer.QUEUE_CAPACITY
    # sizes every node's queue.
    build_queue_capacity: InitVar[Optional[int]] = None
    write_queue_capacity: InitVar[Optional[int]] = None

    def __post_init__(self, *_retired) -> None:
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
            if not value >= 0:  # also refuses NaN
                raise ConfigError(f"{name} must be non-negative, got {value!r}")

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
        with open(path) as f:
            try:
                raw = json.load(f)
            except ValueError as exc:
                raise ConfigError(f"cluster config {path} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"cluster config {path} must be a JSON object")
        aliases = {"nodes": "node_count", "replication": "replication_factor"}
        fields = cls.__dataclass_fields__
        known = {}
        for key, value in raw.items():
            if key in RETIRED_CONFIG_KEYS:
                continue
            name = aliases.get(key, key)
            if name not in fields:
                raise ConfigError(f"unknown key {key!r} in cluster config {path}")
            if isinstance(value, bool) or not isinstance(value, _VALUE_KINDS[fields[name].type]):
                raise ConfigError(
                    f"key {key!r} in cluster config {path} must be {fields[name].type}, "
                    f"got {value!r}"
                )
            known[name] = value
        if "node_count" not in known:
            raise ConfigError(f"cluster config {path} needs 'nodes'")
        return cls(**known)

    def save(self, path: Path | str) -> None:
        """Write the config through `save_json`, unless `path` holds its text already.

        So reopening a cluster leaves a canonical cluster.json untouched, and
        only an older one, say with retired keys, is replaced.
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
        self.config = config
        self.root = Path(root)
        self.registry: Optional[ReplicaRegistry] = None
        self.indexers: dict[int, AdaptiveIndexer] = {}
        self.headers = HeaderCache()  # read by map tasks, which run on one thread
        for k in range(config.node_count):
            (self.node_root(k) / "blocks").mkdir(parents=True, exist_ok=True)
        config.save(self.root / CLUSTER_CONFIG)

    @classmethod
    def open(cls, root: Path | str) -> "Cluster":
        """Reopen a cluster directory: config plus replayed registry journal,
        with each partial replica's entry widened to what its file holds."""
        root = Path(root)
        config = ClusterConfig.from_file(root / CLUSTER_CONFIG)
        cluster = cls(config, root)
        journal = root / REGISTRY_JOURNAL
        if journal.exists():
            cluster.registry = ReplicaRegistry.load(journal)
            cluster._register_completions()
            cluster._start_indexers()
        return cluster

    def _register_completions(self) -> None:
        """Register what each partial replica's file holds. A lazy completion
        renames the wider file into place during a job and is registered when
        the job drains, so a crash in between leaves the file wider than its
        entry; `register_index` ignores a registration that widens nothing."""
        for block_id, info in list(self.registry.iter_replicas()):
            if info.kind != ReplicaKind.PARTIAL_PSEUDO:
                continue
            fd = os.open(info.path, os.O_RDONLY)
            try:
                names = read_header(fd).schema.names
            finally:
                os.close(fd)
            self.registry.register_pseudo(
                block_id, info.node_id, info.indexed_attribute, names, info.path
            )

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
        creation: as many clustered indexes as there are replicas. Each
        replica is written, and indexed, by its node's indexer thread; the
        calling thread drains them and then registers every block in block
        order. If any replica fails, the indexers are closed, no block is
        registered, the journal is removed and the first error is raised.
        """
        schema: Schema = dataset.schema
        r = self.config.replication_factor
        if len(upload_index_attributes) > r:
            raise ConfigError(
                f"{len(upload_index_attributes)} upload indexes exceed replication factor {r}"
            )
        for attr in upload_index_attributes:
            schema.attribute(attr)  # raises SchemaError if unknown

        journal = self.root / REGISTRY_JOURNAL
        if self.registry is not None or journal.exists():
            raise RegistryError(f"cluster {self.root} already holds a dataset")
        self.registry = ReplicaRegistry(schema, r, journal_path=journal)
        self._start_indexers()

        per_block = self.config.records_per_block(schema)
        total = dataset.row_count
        attrs = [*upload_index_attributes] + [None] * (r - len(upload_index_attributes))
        names = frozenset(schema.names)
        units = []  # (node, upload unit), in block order
        blocks = []  # (block_id, record_count, replica infos), in block order
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
                    units.append((node, IndexWork(UPLOAD, attr, base, path)))
                    infos.append(BlockReplicaInfo(node, ReplicaKind.NORMAL, attr, names, str(path)))
                blocks.append((block_id, stop - start, infos))
            # The nodes share this host's cores, so replicas go to as many
            # nodes at a time as there are cores: more busy workers would
            # only contend for the interpreter lock. Each node still gets
            # its replicas in block order.
            cores = os.cpu_count() or 1
            for node, work in sorted(units, key=lambda unit: unit[0] // cores):
                self.indexers[node].hand_off(work)
            for indexer in self.indexers.values():
                indexer.drain()
            errors = [exc for ix in self.indexers.values() for exc in ix.upload_errors]
            if errors:
                raise errors[0]
        except BaseException:
            self.close()
            self.indexers = {}
            self.registry = None
            journal.unlink(missing_ok=True)
            raise

        for block_id, record_count, infos in blocks:
            self.registry.add_block(block_id, record_count, infos)
        return self.registry

    # -- execution -------------------------------------------------------------

    def run_wave(
        self,
        assignments: Sequence,
        job: JobSpec,
        will_offer_blocks: Optional[frozenset[int]] = None,
    ) -> list[TaskResult]:
        """Run task assignments in plan order on the calling thread.

        Waves are simulated: n_slots tasks share a wave, so task i gets wave
        i // n_slots and wave count = ceil(tasks / n_slots). A hand-off that
        waits for indexer queue space cannot deadlock, because the node's
        indexer thread frees it without the map thread. Task failures become
        failure results, not exceptions: there is no re-execution, the job
        simply fails.
        """
        contexts: dict[int, TaskContext] = {}
        results: list[TaskResult] = []
        n_slots = self.config.n_slots
        for position, a in enumerate(assignments):
            if a.node_id not in contexts:
                contexts[a.node_id] = TaskContext(
                    node_id=a.node_id,
                    schema=self.registry.schema,
                    registry=self.registry,
                    indexer=self.indexers.get(a.node_id),
                    will_offer_blocks=will_offer_blocks,
                    projection_mode=self.config.projection_mode,
                    headers=self.headers,
                )
            res = self._run_task(a, job, contexts[a.node_id])
            res.wave_index = position // n_slots
            res.elapsed = res.bytes_read * self.config.per_byte_cost
            results.append(res)
        return results

    @staticmethod
    def _run_task(assignment, job: JobSpec, ctx: TaskContext) -> TaskResult:
        try:
            return record_reader_scan(assignment.split, job, ctx)
        except Exception as exc:  # noqa: BLE001 - task panics become failures
            return TaskResult(
                node_id=assignment.node_id,
                scan_kind=assignment.split.scan_kind,
                block_ids=tuple(ref.block_id for ref in assignment.split.blocks),
                failed=True,
                error=f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=3)}",
            )

    def drain_indexers(self) -> None:
        """Drain the indexers node by node; each drain registers what its
        worker wrote, so the journal's record order is fixed."""
        for indexer in self.indexers.values():
            indexer.drain()

    def close(self) -> None:
        """Close every indexer, once it has landed its accepted work, then
        the registry's journal handle."""
        for indexer in self.indexers.values():
            indexer.close()
        if self.registry is not None:
            self.registry.close()
