import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import adaptidx.indexer as indexer_module
import adaptidx.registry as registry_module
from adaptidx.blocks import DataBlock, Schema
from adaptidx.cluster import Cluster, ClusterConfig
from adaptidx.indexer import DEFAULT_PAGE_SIZE, AdaptiveIndexer
from adaptidx.workloads import gen_synthetic


@pytest.fixture
def simple_schema() -> Schema:
    return Schema.of(("a", "int64"), ("b", "float64"), ("c", "string", 8), ("d", "int64"))


def make_block(schema: Schema, rows: int, seed: int = 0, block_id: int = 0) -> DataBlock:
    rng = np.random.default_rng(seed)
    columns = {}
    for attr in schema.attributes:
        if attr.kind == "int64":
            columns[attr.name] = rng.integers(-1000, 1000, rows, dtype="<i8")
        elif attr.kind == "float64":
            columns[attr.name] = rng.random(rows).astype("<f8")
        else:
            pool = np.array(
                [f"s{i:03d}".encode().ljust(attr.width, b"x")[: attr.width] for i in range(97)],
                dtype=f"S{attr.width}",
            )
            columns[attr.name] = pool[rng.integers(0, len(pool), rows)]
    return DataBlock(block_id=block_id, schema=schema, columns=columns)


@pytest.fixture
def block_factory():
    return make_block


def make_cluster(
    root,
    nodes: int = 4,
    slots: int = 2,
    replication: int = 2,
    block_records: int = 1000,
    page_size: int = 128,
    **overrides,
) -> Cluster:
    config = ClusterConfig(
        node_count=nodes,
        slots_per_node=slots,
        replication_factor=replication,
        block_records=block_records,
        page_size_records=page_size,
        **overrides,
    )
    return Cluster(config, root)


def make_indexer(node_id, node_root, registry, page_size_records=DEFAULT_PAGE_SIZE):
    """An AdaptiveIndexer on a pool of its own, two threads wide with
    QUEUE_CAPACITY slots per thread, as a Cluster gives its nodes one. The
    pool's threads exit once the indexer is collected."""
    slots = threading.Semaphore(indexer_module.QUEUE_CAPACITY * 2)
    return AdaptiveIndexer(node_id, node_root, registry, ThreadPoolExecutor(2), slots,
                           page_size_records)


@pytest.fixture
def small_cluster(tmp_path):
    cluster = make_cluster(tmp_path / "cluster")
    cluster.upload_dataset(gen_synthetic(10_000, seed=11))
    yield cluster
    cluster.close()


def track_journal_handles(monkeypatch) -> list:
    """Every file the registry module opens from now on, in order."""
    handles = []

    def tracking_open(*args, **kwargs):
        handles.append(open(*args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(registry_module, "open", tracking_open, raising=False)
    return handles
