#!/usr/bin/env python3
"""Eager adaptive indexing experiment.

First searches for a simulated timing profile under which the eager policy
converges to a complete index in four jobs from an initial 10% offer rate,
then replays that sequence next to constant-rate baselines and prints the
offer-rate trajectory and simulated runtimes: the eager run holds runtime
near the first job's while ramping the rate to 1, converging far sooner than
the constant 10% baseline.

Usage: python scripts/run_eager.py [--workdir DIR]
"""

import argparse
import tempfile
from pathlib import Path

from adaptidx.cluster import Cluster, ClusterConfig
from adaptidx.execution import JobSpec, Predicate
from adaptidx.indexer import EAGER, OFFER_RATE, OfferPolicy
from adaptidx.runner import WorkloadRunner, derive_eager_timing
from adaptidx.workloads import gen_synthetic

N_BLOCKS = 100
ROWS_PER_BLOCK = 512


def run_mode(workdir: Path, dataset, timing: dict, mode: str, rho: float, jobs: int):
    config = ClusterConfig(
        node_count=10,
        slots_per_node=1,
        replication_factor=2,
        block_records=ROWS_PER_BLOCK,
        page_size_records=64,
        per_byte_cost=timing["per_byte_cost"],
        per_block_index_cost=timing["per_block_index_cost"],
    )
    cluster = Cluster(config, workdir / f"{mode}_{rho}")
    cluster.upload_dataset(dataset)
    runner = WorkloadRunner(cluster)
    rows = []
    for j in range(1, jobs + 1):
        job = JobSpec(
            f"{mode}{j}",
            Predicate("b", 0.001 * j, 0.001 * j + 0.0004),
            cluster.registry.schema.names,
            policy=OfferPolicy(mode=mode, rho=rho),
            collect_output=False,
        )
        rows.append(runner.run_job(job).metrics)
    cluster.close()
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=Path, default=None)
    parser.add_argument("--jobs", type=int, default=8)
    args = parser.parse_args()

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="eager_"))
    print("searching for a timing profile with 4-job eager convergence ...")
    timing = derive_eager_timing(workdir / "search", target_jobs=4)
    print(
        f"  scan/index cost ratio {timing['scan_index_ratio']:.2f} "
        f"(per-block index cost {timing['per_block_index_cost']:.5f}s)\n"
    )

    dataset = gen_synthetic(N_BLOCKS * ROWS_PER_BLOCK, seed=97)
    runs = {
        "eager": run_mode(workdir, dataset, timing, EAGER, 0.1, args.jobs),
        "rate 0.1": run_mode(workdir, dataset, timing, OFFER_RATE, 0.1, args.jobs),
        "rate 1.0": run_mode(workdir, dataset, timing, OFFER_RATE, 1.0, args.jobs),
    }

    header = f"{'job':>4} " + "".join(f"{name:>22}" for name in runs)
    print(header)
    print(f"{'':>4} " + "".join(f"{'rate  idx%  T_sim':>22}" for _ in runs))
    for j in range(args.jobs):
        cells = []
        for rows in runs.values():
            if j < len(rows):
                m = rows[j]
                frac = m.blocks_indexed_after / m.blocks_total
                cells.append(f"{m.rho_used:5.2f} {frac:5.2f} {m.simulated_seconds:8.4f}")
            else:
                cells.append(" " * 20)
        print(f"{j + 1:>4} " + "".join(f"{c:>22}" for c in cells))


if __name__ == "__main__":
    main()
