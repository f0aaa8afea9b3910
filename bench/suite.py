"""The benchmark's workloads: cluster config, dataset and job sequence.

Every workload runs on 10 nodes x 2 map slots with replication 3, page size
256 and the default indexer queue capacities (4 build, 4 write). The queues
are deliberately left at their defaults: on lazy_uservisits a full queue
rejects a completion offer depending on thread timing, and the benchmark
reports that variation rather than hiding it.

The `tiny` size shrinks every dataset and sequence so the benchmark's own
tests run in seconds; it is never used for measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from adaptidx import ClusterConfig, JobSpec, OfferPolicy, Predicate
from adaptidx.workloads import (
    Dataset,
    gen_synthetic,
    gen_uservisits_like,
    search_word_predicate,
    SEARCH_WORD_VALUES,
)

RANGE_WIDTH = 0.002  # of the uniform [0, 1) attribute b: ~0.2% of the rows
MAX_CONVERGE_JOBS = 8  # a sequence that needs more has stalled

# Per dataset kind (blocks, rows per block); jobs in the warm sequence;
# nodes; rows per sparse-index page.
SIZES = {
    "full": {
        "synthetic": (400, 4096), "uservisits": (200, 2048), "warm_jobs": 100,
        "nodes": 10, "page": 256,
    },
    "tiny": {
        "synthetic": (20, 256), "uservisits": (20, 128), "warm_jobs": 12,
        "nodes": 4, "page": 32,
    },
}


GENERATORS = {"synthetic": gen_synthetic, "uservisits": gen_uservisits_like}


@dataclass(frozen=True)
class Workload:
    name: str
    dataset_kind: str  # a key of GENERATORS
    attribute: str  # every job's predicate attribute
    jobs: Callable[[np.random.Generator, Dataset, Callable[[], bool], str], Iterator[JobSpec]]
    projection_mode: str = "invisible"
    upload_index_attributes: tuple[str, ...] = ()

    def generate(self, seed: int, size: str) -> Dataset:
        blocks, rows = SIZES[size][self.dataset_kind]
        return GENERATORS[self.dataset_kind](blocks * rows, seed)

    def config(self, size: str) -> ClusterConfig:
        return ClusterConfig(
            node_count=SIZES[size]["nodes"],
            slots_per_node=2,
            replication_factor=3,
            block_records=SIZES[size][self.dataset_kind][1],
            page_size_records=SIZES[size]["page"],
            projection_mode=self.projection_mode,
        )


def _b_range(job_id: str, low: float, projection, rho: float = 0.0) -> JobSpec:
    return JobSpec(
        job_id=job_id,
        predicate=Predicate("b", low, low + RANGE_WIDTH),
        projection=tuple(projection),
        policy=OfferPolicy(rho=rho),
    )


def _cold_jobs(rng, dataset, converged, size) -> Iterator[JobSpec]:
    # Disjoint ranges: slot k covers [k * width, (k + 1) * width].
    slots = rng.choice(int(1 / RANGE_WIDTH) - 1, MAX_CONVERGE_JOBS + 1, replace=False)
    lows = [float(k) * RANGE_WIDTH for k in slots]
    names = dataset.schema.names
    for j in range(MAX_CONVERGE_JOBS):
        if converged():
            break
        yield _b_range(f"job{j + 1}", lows[j], names, rho=0.5)
    yield _b_range("index_scan", lows[-1], names)


def _warm_jobs(rng, dataset, converged, size) -> Iterator[JobSpec]:
    lows = rng.uniform(0.0, 1.0 - RANGE_WIDTH, SIZES[size]["warm_jobs"])
    for j, low in enumerate(lows):
        yield _b_range(f"job{j + 1}", float(low), ("b", "c"))


def _lazy_jobs(rng, dataset, converged, size) -> Iterator[JobSpec]:
    # Non-overlapping two-word ranges, one per job.
    starts = 2 * rng.choice(SEARCH_WORD_VALUES // 2, 6, replace=False)
    projections = [
        ("search_word", "ad_revenue"),
        ("search_word", "ad_revenue", "duration", "visit_date"),
    ] + [dataset.schema.names] * 4
    for j, (start, projection) in enumerate(zip(starts, projections)):
        low, high = search_word_predicate(int(start), 2)
        yield JobSpec(
            job_id=f"job{j + 1}",
            predicate=Predicate("search_word", low, high),
            projection=tuple(projection),
            policy=OfferPolicy(rho=1.0),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cold_converge", "synthetic", "b", _cold_jobs),
        Workload(
            "warm_index_scan", "synthetic", "b", _warm_jobs, upload_index_attributes=("b",)
        ),
        Workload(
            "lazy_uservisits", "uservisits", "search_word", _lazy_jobs, projection_mode="lazy"
        ),
    )
}
