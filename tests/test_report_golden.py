"""Byte-for-byte report regression: the simulated cost model must not move.

Three tiny sequences write their CSV reports, which must equal the golden
files in tests/data/: a constant-rate cold one that indexes every block
during full scans, an upload-indexed warm one served by index scans, and a
lazy-projection one whose partial replicas are completed column by column.
The simulated seconds and bytes read in those reports come straight from the
byte accounting of the block readers, so a read-path rewrite that charges one
byte more or less fails here. In the lazy sequence, job 2's completions
rewrite replicas at the paths whose headers job 2 has just read, and job 3
reads them again, so a reader that served a stale header fails here too.

The cold and lazy sequences also pin what gets registered: the sorted lines
of their registry journals must equal golden_{cold,lazy}_journal.txt. The
goldens were written sorted, when the indexer threads still appended in an
order that followed thread timing. Now the thread that drains the indexers
writes every registration, node by node in hand-off order, so the journal's
order is fixed too: the same sequences run with one-slot queues and random
stalls in the indexer threads must leave byte-identical journals. Nor may
any output depend on how many replicas the cluster keeps open between jobs:
run with one open replica at a time, and with one-slot queues, the cold and
lazy sequences leave byte-identical reports, journals and pseudo replicas.

The golden files were written by an earlier engine, not by the code under
test. After a deliberate change to the cost model, regenerate them with

    PYTHONPATH=src python tests/test_report_golden.py
"""

import random
import sys
import time
from pathlib import Path

import pytest

import adaptidx.blockfile as blockfile
import adaptidx.indexer as indexer_module
from adaptidx.execution import JobSpec, Predicate
from adaptidx.indexer import AdaptiveIndexer, OfferPolicy
from adaptidx.registry import ReplicaKind
from adaptidx.runner import WorkloadRunner, write_reports
from adaptidx.workloads import gen_synthetic, gen_uservisits_like, search_word_predicate

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


def lazy_jobs(names) -> list[JobSpec]:
    four = ("search_word", "ad_revenue", "duration", "visit_date")
    projections = [("search_word", "ad_revenue"), four, four, names, names]
    jobs = []
    for j, projection in enumerate(projections, start=1):
        low, high = search_word_predicate(start=60 * j, words=2)
        jobs.append(
            JobSpec(
                job_id=f"job{j}",
                predicate=Predicate("search_word", low, high),
                projection=tuple(projection),
                policy=OfferPolicy(rho=1.0),
                collect_output=False,
            )
        )
    return jobs


# kind: (dataset, upload indexes, jobs, projection mode); 20 blocks each.
SEQUENCES = {
    "cold": (lambda: gen_synthetic(10_000, seed=23), (), cold_jobs, "invisible"),
    "warm": (lambda: gen_synthetic(10_000, seed=23), ("b",), warm_jobs, "invisible"),
    "lazy": (lambda: gen_uservisits_like(4_000, seed=23), (), lazy_jobs, "lazy"),
}


def pseudo_widths(registry) -> int:
    """Attributes held by pseudo replicas, summed over the cluster."""
    return sum(
        len(info.available_attributes)
        for _, info in registry.iter_replicas()
        if info.kind != ReplicaKind.NORMAL
    )


def report(kind: str, work: Path, widths: list | None = None) -> bytes:
    """Run one sequence on a fresh cluster; returns its CSV report.

    `widths`, when given, receives `pseudo_widths` after every job.
    """
    dataset, upload_indexes, jobs, mode = SEQUENCES[kind]
    data = dataset()
    cluster = make_cluster(
        work / kind, nodes=4, slots=2, replication=2, block_records=data.row_count // 20,
        page_size=64, projection_mode=mode,
    )
    try:
        cluster.upload_dataset(data, upload_indexes)
        runner = WorkloadRunner(cluster)
        rows = []
        for job in jobs(cluster.registry.schema.names):
            rows.append(runner.run_job(job).metrics)
            if widths is not None:
                widths.append(pseudo_widths(cluster.registry))
    finally:
        cluster.close()
    csv_path, _ = write_reports(rows, work / f"{kind}_report")
    return csv_path.read_bytes()


def sorted_journal(kind: str, work: Path) -> str:
    """The lines of the registry journal `report(kind, work)` left, sorted."""
    lines = (work / kind / "registry.journal").read_text().splitlines(keepends=True)
    return "".join(sorted(lines))


def test_cold_report_matches_golden(tmp_path):
    assert report("cold", tmp_path) == (DATA / "golden_cold.csv").read_bytes()
    assert sorted_journal("cold", tmp_path) == (DATA / "golden_cold_journal.txt").read_text()


def test_warm_report_matches_golden(tmp_path):
    assert report("warm", tmp_path) == (DATA / "golden_warm.csv").read_bytes()


def test_lazy_report_matches_golden(tmp_path):
    widths: list[int] = []
    assert report("lazy", tmp_path, widths) == (DATA / "golden_lazy.csv").read_bytes()
    # Job 2 completed replicas in place, so job 3 read rewritten files.
    assert widths[0] < widths[1] == widths[2] < widths[4]
    assert sorted_journal("lazy", tmp_path) == (DATA / "golden_lazy_journal.txt").read_text()


@pytest.mark.parametrize("kind", ["cold", "lazy"])
def test_journal_does_not_follow_thread_timing(tmp_path, monkeypatch, kind):
    report(kind, tmp_path / "undisturbed")
    monkeypatch.setattr(indexer_module, "QUEUE_CAPACITY", 1)
    stalls = random.Random(15)
    index_one = AdaptiveIndexer._index_one

    def stalled(self, work):
        time.sleep(stalls.random() * 0.003)
        return index_one(self, work)

    monkeypatch.setattr(AdaptiveIndexer, "_index_one", stalled)
    report(kind, tmp_path / "stalled")
    journals = [(tmp_path / run / kind / "registry.journal").read_bytes()
                for run in ("undisturbed", "stalled")]
    assert journals[0] == journals[1]


def run_outputs(kind: str, work: Path) -> dict[str, bytes]:
    """Every file `report(kind, work)` leaves that must not depend on pacing
    or on which replicas the cluster keeps open: the CSV and JSON reports,
    the registry journal and the pseudo replicas, by path under `work`."""
    report(kind, work)
    files = [work / f"{kind}_report.csv", work / f"{kind}_report.json",
             work / kind / "registry.journal", *sorted((work / kind).glob("node_*/pseudo/*/*"))]
    return {str(path.relative_to(work)): path.read_bytes() for path in files}


@pytest.mark.parametrize("kind", ["cold", "lazy"])
def test_outputs_do_not_depend_on_open_replicas_or_queue_capacity(tmp_path, monkeypatch, kind):
    # With one open replica every header read opens and parses its file;
    # with one-slot queues every hand-off waits for its indexer.
    default = run_outputs(kind, tmp_path / "default")
    monkeypatch.setattr(blockfile, "MAX_OPEN_REPLICAS", 1)
    one_open = run_outputs(kind, tmp_path / "one_open")
    monkeypatch.setattr(indexer_module, "QUEUE_CAPACITY", 1)
    one_slot = run_outputs(kind, tmp_path / "one_slot")
    assert any("/pseudo/" in name for name in default)
    assert one_open == default
    assert one_slot == default


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for kind in SEQUENCES:
            (DATA / f"golden_{kind}.csv").write_bytes(report(kind, Path(work)))
        for kind in ("cold", "lazy"):
            (DATA / f"golden_{kind}_journal.txt").write_text(sorted_journal(kind, Path(work)))
