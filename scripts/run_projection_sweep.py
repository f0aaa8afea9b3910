#!/usr/bin/env python3
"""Invisible-projection overhead sweep.

For a web-log-like dataset, compares bytes read with indexing disabled
against an offer rate of 25% while the job's projection grows one attribute
at a time. Offered blocks read the whole schema (so their index replica is
complete), so the relative overhead is largest when the job projects a single
small attribute and fades as the projected byte share approaches the full
row.

Usage: python scripts/run_projection_sweep.py [--rows N]
"""

import argparse
import tempfile
from pathlib import Path

from adaptidx.cluster import Cluster, ClusterConfig
from adaptidx.execution import JobSpec, Predicate
from adaptidx.indexer import OfferPolicy
from adaptidx.runner import WorkloadRunner
from adaptidx.workloads import USERVISITS_SCHEMA, gen_uservisits_like, search_word_predicate

PROJECTION_ORDER = [
    "country_code",
    "language_code",
    "duration",
    "source_ip",
    "user_agent",
    "dest_url",
    "visit_date",
    "ad_revenue",
]


def bytes_for(workdir: Path, dataset, proj, rho: float, tag: str) -> int:
    config = ClusterConfig(
        node_count=2,
        slots_per_node=2,
        replication_factor=2,
        block_records=max(dataset.row_count // 10, 1),
        page_size_records=256,
    )
    cluster = Cluster(config, workdir / tag)
    cluster.upload_dataset(dataset)
    low, high = search_word_predicate(start=120, words=2)
    metrics = (
        WorkloadRunner(cluster)
        .run_job(
            JobSpec(
                tag,
                Predicate("search_word", low, high),
                proj,
                policy=OfferPolicy(rho=rho),
                collect_output=False,
            )
        )
        .metrics
    )
    cluster.close()
    if metrics.failed:
        raise SystemExit(f"{tag} failed: {metrics.error}")
    return metrics.bytes_read


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=20_000)
    parser.add_argument("--workdir", type=Path, default=None)
    args = parser.parse_args()

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="projection_"))
    dataset = gen_uservisits_like(args.rows, seed=909)

    print(f"{'projected attributes':>22} {'byte share':>10} {'overhead':>9}")
    for k in range(1, len(PROJECTION_ORDER) + 1):
        proj = tuple(PROJECTION_ORDER[:k])
        share = sum(USERVISITS_SCHEMA.attribute(n).item_size for n in proj)
        share /= USERVISITS_SCHEMA.row_width
        plain = bytes_for(workdir, dataset, proj, 0.0, f"off_{k}")
        offered = bytes_for(workdir, dataset, proj, 0.25, f"on_{k}")
        overhead = (offered - plain) / plain
        print(f"{len(proj):>22} {share:>10.2f} {overhead:>8.1%}")


if __name__ == "__main__":
    main()
