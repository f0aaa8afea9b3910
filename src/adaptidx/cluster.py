"""Simulated cluster substrate: nodes, replica placement, and map waves.

Nodes are directories under one storage root; "network transfer" is a byte
counter, not sockets. Tasks run on real threads, one per map slot, with a
barrier between waves. Time is simulated deterministically: a task costs its
bytes read times a configured per-byte cost, so the adaptive-indexing cost
model can be checked exactly instead of against noisy wall clocks.
"""

from __future__ import annotations

import json
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Optional, Sequence

from .blocks import DataBlock, Schema
from .blockfile import write_block
from .errors import ConfigError, RegistryError
from .execution import JobSpec, TaskContext, TaskResult, record_reader_scan
from .indexer import AdaptiveIndexer, build_index
from .registry import BlockReplicaInfo, ReplicaKind, ReplicaRegistry

REGISTRY_JOURNAL = "registry.journal"
CLUSTER_CONFIG = "cluster.json"
# Keys older cluster.json files may still carry; they are read and ignored.
RETIRED_CONFIG_KEYS = frozenset({"balance_total_index_counts"})
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
    build_queue_capacity: int = 4
    write_queue_capacity: int = 4
    per_byte_cost: float = 1e-8  # simulated seconds per byte read
    per_block_index_cost: float = 0.05  # simulated seconds per block indexed
    projection_mode: str = "invisible"  # or "lazy"

    def __post_init__(self) -> None:
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
            name = aliases.get(key, key)
            if name not in fields:
                if key in RETIRED_CONFIG_KEYS:
                    continue
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
        with open(path, "w") as f:
            json.dump(asdict(self), f, indent=2)


class Cluster:
    def __init__(self, config: ClusterConfig, root: Path | str):
        self.config = config
        self.root = Path(root)
        self.registry: Optional[ReplicaRegistry] = None
        self.indexers: dict[int, AdaptiveIndexer] = {}
        for k in range(config.node_count):
            (self.node_root(k) / "blocks").mkdir(parents=True, exist_ok=True)
        config.save(self.root / CLUSTER_CONFIG)

    @classmethod
    def open(cls, root: Path | str) -> "Cluster":
        """Reopen a cluster directory: config plus replayed registry journal."""
        root = Path(root)
        config = ClusterConfig.from_file(root / CLUSTER_CONFIG)
        cluster = cls(config, root)
        journal = root / REGISTRY_JOURNAL
        if journal.exists():
            cluster.registry = ReplicaRegistry.load(journal)
            cluster._start_indexers()
        return cluster

    def node_root(self, node_id: int) -> Path:
        return self.root / f"node_{node_id}"

    def node_ids(self) -> list[int]:
        return list(range(self.config.node_count))

    def _start_indexers(self) -> None:
        for k in self.node_ids():
            if k not in self.indexers:
                self.indexers[k] = AdaptiveIndexer(
                    node_id=k,
                    node_root=self.node_root(k),
                    registry=self.registry,
                    build_capacity=self.config.build_queue_capacity,
                    write_capacity=self.config.write_queue_capacity,
                    page_size_records=self.config.page_size_records,
                )

    # -- upload --------------------------------------------------------------

    def upload_dataset(
        self, dataset, upload_index_attributes: Sequence[str] = ()
    ) -> ReplicaRegistry:
        """Split a dataset into blocks and place r normal replicas round-robin.

        Replica k of every block is sorted and indexed on
        upload_index_attributes[k] when given, mirroring upload-time index
        creation: as many clustered indexes as there are replicas.
        """
        schema: Schema = dataset.schema
        r = self.config.replication_factor
        if len(upload_index_attributes) > r:
            raise ConfigError(
                f"{len(upload_index_attributes)} upload indexes exceed replication factor {r}"
            )
        for attr in upload_index_attributes:
            schema.attribute(attr)  # raises SchemaError if unknown

        if self.registry is not None:
            raise RegistryError("cluster already holds a dataset")
        self.registry = ReplicaRegistry(
            schema, r, journal_path=self.root / REGISTRY_JOURNAL
        )

        per_block = self.config.records_per_block(schema)
        total = dataset.row_count
        block_id = 0
        for start in range(0, total, per_block):
            stop = min(start + per_block, total)
            base = DataBlock(
                block_id=block_id,
                schema=schema,
                columns={n: dataset.columns[n][start:stop] for n in schema.names},
            )
            infos = []
            for k in range(r):
                node = (block_id + k) % self.config.node_count
                path = self.node_root(node) / "blocks" / f"blk_{block_id}_r{k}"
                attr = (
                    upload_index_attributes[k]
                    if k < len(upload_index_attributes)
                    else None
                )
                if attr is not None:
                    replica, _, _ = build_index(base, attr, self.config.page_size_records)
                else:
                    replica = base
                write_block(replica, path)
                infos.append(
                    BlockReplicaInfo(
                        node_id=node,
                        kind=ReplicaKind.NORMAL,
                        indexed_attribute=attr,
                        available_attributes=frozenset(schema.names),
                        path=str(path),
                    )
                )
            self.registry.add_block(block_id, stop - start, infos)
            block_id += 1

        self._start_indexers()
        return self.registry

    # -- execution -------------------------------------------------------------

    def run_wave(
        self,
        assignments: Sequence,
        job: JobSpec,
        will_offer_blocks: Optional[frozenset[int]] = None,
    ) -> list[TaskResult]:
        """Run task assignments in waves of at most n_slots concurrent tasks.

        Slots form one cluster-wide pool: each wave takes the next n_slots
        pending tasks, runs them concurrently, and a barrier separates waves
        (so wave count = ceil(tasks / n_slots)). Task failures become failure
        results, not exceptions: there is no re-execution, the job simply
        fails.
        """
        assignments = list(assignments)
        contexts: dict[int, TaskContext] = {}
        for a in assignments:
            if a.node_id not in contexts:
                contexts[a.node_id] = TaskContext(
                    node_id=a.node_id,
                    schema=self.registry.schema,
                    registry=self.registry,
                    indexer=self.indexers.get(a.node_id),
                    will_offer_blocks=will_offer_blocks,
                    projection_mode=self.config.projection_mode,
                )

        results: list[TaskResult] = []
        n_slots = self.config.n_slots
        for wave_index, start in enumerate(range(0, len(assignments), n_slots)):
            wave = assignments[start : start + n_slots]
            with ThreadPoolExecutor(max_workers=len(wave)) as pool:
                futures = [
                    pool.submit(self._run_task, a, job, contexts[a.node_id])
                    for a in wave
                ]
                wave_results = [f.result() for f in futures]
            for res in wave_results:
                res.wave_index = wave_index
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
        for indexer in self.indexers.values():
            indexer.drain()

    def close(self) -> None:
        for indexer in self.indexers.values():
            indexer.close()
