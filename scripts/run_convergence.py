#!/usr/bin/env python3
"""Constant offer-rate convergence experiment.

Runs an 11-job same-attribute sequence at several offer rates and prints how
the indexed-block fraction and simulated runtime evolve: low rates pay little
per job but take ~1/rate jobs to cover the dataset, rate 1 indexes everything
in the first job.

Usage: python scripts/run_convergence.py [--workdir DIR] [--rows N]
"""

import argparse
import tempfile
from pathlib import Path

from adaptidx.cluster import Cluster, ClusterConfig
from adaptidx.execution import JobSpec, Predicate
from adaptidx.indexer import OFFER_RATE, OfferPolicy
from adaptidx.runner import WorkloadRunner, write_reports
from adaptidx.workloads import gen_synthetic


def run_sequence(workdir: Path, dataset, rho: float, jobs: int) -> list:
    config = ClusterConfig(
        node_count=10,
        slots_per_node=1,
        replication_factor=3,
        block_records=dataset.row_count // 40,
        page_size_records=256,
        per_byte_cost=1e-6,
        per_block_index_cost=0.012,
    )
    cluster = Cluster(config, workdir / f"rho_{rho}")
    cluster.upload_dataset(dataset)
    runner = WorkloadRunner(cluster)
    rows = []
    for j in range(1, jobs + 1):
        lo = 0.005 * j
        job = JobSpec(
            f"rho{rho}_job{j}",
            Predicate("b", lo, lo + 0.002),
            cluster.registry.schema.names,
            policy=OfferPolicy(mode=OFFER_RATE, rho=rho),
            collect_output=False,
        )
        rows.append(runner.run_job(job).metrics)
    cluster.close()
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=Path, default=None)
    parser.add_argument("--rows", type=int, default=40_000)
    parser.add_argument("--jobs", type=int, default=11)
    parser.add_argument("--report-dir", type=Path, default=None)
    args = parser.parse_args()

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="convergence_"))
    report_dir = args.report_dir or workdir / "reports"
    dataset = gen_synthetic(args.rows, seed=7)

    print(f"{'rate':>5} " + " ".join(f"job{j:<2}" for j in range(1, args.jobs + 1)))
    for rho in (0.1, 0.25, 0.5, 1.0):
        rows = run_sequence(workdir, dataset, rho, args.jobs)
        fractions = [m.blocks_indexed_after / m.blocks_total for m in rows]
        print(f"{rho:>5} " + " ".join(f"{f:5.2f}" for f in fractions))
        write_reports(rows, report_dir / f"convergence_rho_{rho}")

    print(f"\nreports under {report_dir}/, cluster dirs under {workdir}")


if __name__ == "__main__":
    main()
