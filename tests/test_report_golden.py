"""Byte-for-byte report regression: the simulated cost model must not move.

Two tiny sequences, a constant-rate cold one that indexes every block during
full scans and an upload-indexed warm one served by index scans, write their
CSV reports, which must equal the golden files in tests/data/. The simulated
seconds and bytes read in those reports come straight from the byte
accounting of the block readers, so a read-path rewrite that charges one
byte more or less fails here.

The golden files were written by an earlier engine, not by the code under
test. After a deliberate change to the cost model, regenerate them with

    PYTHONPATH=src python tests/test_report_golden.py
"""

import sys
from pathlib import Path

from adaptidx.execution import JobSpec, Predicate
from adaptidx.indexer import OfferPolicy
from adaptidx.runner import WorkloadRunner, write_reports
from adaptidx.workloads import gen_synthetic

sys.path.insert(0, str(Path(__file__).parent))
from conftest import make_cluster  # noqa: E402

DATA = Path(__file__).parent / "data"


def _job(job_id: str, low: float, projection, rho: float = 0.0) -> JobSpec:
    return JobSpec(
        job_id=job_id,
        predicate=Predicate("b", low, low + 0.01),
        projection=tuple(projection),
        policy=OfferPolicy(rho=rho),
        collect_output=False,
    )


def cold_jobs(names) -> list[JobSpec]:
    jobs = [_job(f"job{j}", 0.1 * j, names, rho=0.5) for j in range(1, 4)]
    return jobs + [_job("index_scan", 0.05, names)]


def warm_jobs(names) -> list[JobSpec]:
    return [_job(f"job{j}", 0.13 * j, ("b", "c")) for j in range(1, 7)]


SEQUENCES = {
    "cold": ((), cold_jobs),
    "warm": (("b",), warm_jobs),
}


def report(kind: str, work: Path) -> bytes:
    """Run one sequence on a fresh cluster; returns its CSV report."""
    upload_indexes, jobs = SEQUENCES[kind]
    cluster = make_cluster(work / kind, nodes=4, slots=2, replication=2, block_records=500, page_size=64)
    try:
        cluster.upload_dataset(gen_synthetic(10_000, seed=23), upload_indexes)  # 20 blocks
        runner = WorkloadRunner(cluster)
        rows = [runner.run_job(job).metrics for job in jobs(cluster.registry.schema.names)]
    finally:
        cluster.close()
    csv_path, _ = write_reports(rows, work / f"{kind}_report")
    return csv_path.read_bytes()


def test_cold_report_matches_golden(tmp_path):
    assert report("cold", tmp_path) == (DATA / "golden_cold.csv").read_bytes()


def test_warm_report_matches_golden(tmp_path):
    assert report("warm", tmp_path) == (DATA / "golden_warm.csv").read_bytes()


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for kind in SEQUENCES:
            (DATA / f"golden_{kind}.csv").write_bytes(report(kind, Path(work)))
