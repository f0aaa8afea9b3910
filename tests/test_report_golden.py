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
order is fixed too: the same sequences run with one slot per pool thread
(`QUEUE_CAPACITY` 1) and random stalls before each indexing unit must leave
byte-identical journals. Nor may any output depend on how many replicas the
cluster keeps open between jobs: run with one open replica at a time, and
with one slot per pool thread, the cold and
lazy sequences leave byte-identical reports, journals and pseudo replicas,
and so they do when the cluster is closed halfway through and reopened from
another working directory. A property test draws clusters and job sequences
beyond these three and checks the same for each: undisturbed, with one slot
per pool thread, more threads than cores and seeded stalls before every
unit, and reopened halfway; their indexer stats must agree too.

The golden files were written by an earlier engine, not by the code under
test. After a deliberate change to the cost model, regenerate them with

    PYTHONPATH=src python tests/test_report_golden.py
"""

import dataclasses
import os
import random
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import adaptidx.blockfile as blockfile
import adaptidx.indexer as indexer_module
from adaptidx.cluster import REGISTRY_JOURNAL, Cluster
from adaptidx.execution import JobSpec, Predicate
from adaptidx.indexer import EAGER, OFFER_RATE, SELECTIVITY, AdaptiveIndexer, OfferPolicy
from adaptidx.registry import ReplicaKind
from adaptidx.runner import WorkloadRunner, write_reports
from adaptidx.workloads import (
    SYNTHETIC_SCHEMA,
    gen_synthetic,
    gen_uservisits_like,
    search_word_predicate,
)

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


def report(kind: str, work: Path, widths: list | None = None, reopen: bool = False) -> bytes:
    """Run one sequence on a fresh cluster; returns its CSV report.

    `widths`, when given, receives `pseudo_widths` after every job. With
    `reopen`, the cluster is closed halfway through the sequence and reopened
    with `Cluster.open` from `work`, by a relative path, and a new runner
    runs the rest.
    """
    dataset, upload_indexes, jobs, mode = SEQUENCES[kind]
    data = dataset()
    cluster = make_cluster(
        work / kind, nodes=4, slots=2, replication=2, block_records=data.row_count // 20,
        page_size=64, projection_mode=mode,
    )
    cwd = os.getcwd()
    try:
        cluster.upload_dataset(data, upload_indexes)
        runner = WorkloadRunner(cluster)
        rows = []
        sequence = jobs(cluster.registry.schema.names)
        for j, job in enumerate(sequence):
            if reopen and j == len(sequence) // 2:
                cluster.close()
                os.chdir(work)
                cluster = Cluster.open(kind)
                runner = WorkloadRunner(cluster)
            rows.append(runner.run_job(job).metrics)
            if widths is not None:
                widths.append(pseudo_widths(cluster.registry))
    finally:
        cluster.close()
        os.chdir(cwd)
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


def run_outputs(kind: str, work: Path, reopen: bool = False) -> dict[str, bytes]:
    """Every file `report(kind, work, reopen=reopen)` leaves that must not
    depend on pacing, on which replicas the cluster keeps open or on a
    reopen: the CSV and JSON reports, the registry journal and the pseudo
    replicas, by path under `work`."""
    report(kind, work, reopen=reopen)
    files = [work / f"{kind}_report.csv", work / f"{kind}_report.json",
             work / kind / "registry.journal", *sorted((work / kind).glob("node_*/pseudo/*/*"))]
    return {str(path.relative_to(work)): path.read_bytes() for path in files}


@pytest.mark.parametrize("kind", ["cold", "lazy"])
def test_outputs_do_not_depend_on_open_replicas_or_queue_capacity(tmp_path, monkeypatch, kind):
    # With one open replica every header read opens and parses its file;
    # with one-slot queues every hand-off waits for its indexer. A reopened
    # cluster starts with no replica open, replays the journal and repairs
    # the directory, and its new runner loads the saved calibration.
    default = run_outputs(kind, tmp_path / "default")
    reopened = run_outputs(kind, tmp_path / "reopened", reopen=True)
    monkeypatch.setattr(blockfile, "MAX_OPEN_REPLICAS", 1)
    one_open = run_outputs(kind, tmp_path / "one_open")
    monkeypatch.setattr(indexer_module, "QUEUE_CAPACITY", 1)
    one_slot = run_outputs(kind, tmp_path / "one_slot")
    assert any("/pseudo/" in name for name in default)
    assert reopened == default
    assert one_open == default
    assert one_slot == default


@st.composite
def drawn_sequences(draw):
    """A cluster layout and 2-5 jobs over 20 synthetic blocks: each job draws
    its offer mode, rate and threshold, its predicate range on an integer or
    a float attribute, and its projection."""
    nodes = draw(st.integers(2, 4))
    layout = {
        "nodes": nodes,
        "replication": draw(st.integers(1, min(3, nodes))),
        "projection_mode": draw(st.sampled_from(["invisible", "lazy"])),
    }
    jobs = []
    for j in range(draw(st.integers(2, 5))):
        attribute = draw(st.sampled_from(["a", "b", "c"]))
        if attribute == "a":  # integers 1..10
            low = draw(st.integers(1, 10))
            high = draw(st.integers(low, 10))
        else:  # floats in [0, 1)
            low = draw(st.integers(0, 99)) / 100
            high = low + draw(st.integers(0, 100)) / 100
        policy = OfferPolicy(
            mode=draw(st.sampled_from([OFFER_RATE, EAGER, SELECTIVITY])),
            rho=draw(st.sampled_from([0.0, 0.3, 1.0])),
            selectivity_threshold=draw(st.sampled_from([0.0, 0.5])),
        )
        projection = draw(st.lists(st.sampled_from(SYNTHETIC_SCHEMA.names), min_size=1,
                                   max_size=6, unique=True))
        jobs.append(JobSpec(f"job{j}", Predicate(attribute, low, high), tuple(projection),
                            policy=policy, collect_output=False))
    return layout, jobs


def drawn_outputs(work: Path, layout: dict, jobs: list, reopen: bool = False) -> dict:
    """Run `jobs` on a new cluster under `work`, closing and reopening it
    halfway with `reopen`, and check at each close that every adaptive
    replica sits on a node holding a normal replica of its block; returns
    the files `run_outputs` compares and the indexer stats summed over the
    cluster's nodes and both openings."""
    root = work / "c"
    cluster = make_cluster(root, slots=1, block_records=100, page_size=32, **layout)
    rows, stats = [], Counter()

    def close(cluster):
        cluster.close()
        for ix in cluster.indexers.values():
            stats.update(dataclasses.asdict(ix.stats))
        # Invariant 6: an adaptive replica sits beside a normal replica of its block.
        registry = cluster.registry
        for block_id, info in registry.iter_replicas():
            if info.kind != ReplicaKind.NORMAL:
                nodes = {r.node_id for r in registry.normal_replicas(block_id)}
                assert info.node_id in nodes, (block_id, info)

    try:
        cluster.upload_dataset(gen_synthetic(2_000, seed=41))
        runner = WorkloadRunner(cluster)
        for j, job in enumerate(jobs):
            if reopen and j == len(jobs) // 2:
                close(cluster)
                cluster = Cluster.open(root)
                runner = WorkloadRunner(cluster)
            rows.append(runner.run_job(job).metrics)
    finally:
        close(cluster)
    write_reports(rows, work / "report")
    files = [work / "report.csv", work / "report.json", root / REGISTRY_JOURNAL,
             *sorted(root.glob("node_*/pseudo/*/*"))]
    return {"stats": stats} | {str(path.relative_to(work)): path.read_bytes() for path in files}


@settings(max_examples=30, deadline=None)
@given(drawn_sequences(), st.integers(0, 2**32 - 1))
def test_drawn_sequences_do_not_depend_on_pacing_or_reopening(sequence, seed):
    layout, jobs = sequence
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        undisturbed = drawn_outputs(work / "undisturbed", layout, jobs)
        reopened = drawn_outputs(work / "reopened", layout, jobs, reopen=True)
        stalls = random.Random(seed)
        index_one = AdaptiveIndexer._index_one

        def stalled(self, work):
            time.sleep(stalls.random() * 0.002)
            return index_one(self, work)

        # Four pool threads, more than a two-core host has, one slot each,
        # and a short thread switch interval.
        interval = sys.getswitchinterval()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(os, "cpu_count", lambda: 4)
            m.setattr(indexer_module, "QUEUE_CAPACITY", 1)
            m.setattr(AdaptiveIndexer, "_index_one", stalled)
            sys.setswitchinterval(1e-5)
            try:
                paced = drawn_outputs(work / "paced", layout, jobs)
            finally:
                sys.setswitchinterval(interval)
    assert paced == undisturbed
    assert reopened == undisturbed


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for kind in SEQUENCES:
            (DATA / f"golden_{kind}.csv").write_bytes(report(kind, Path(work)))
        for kind in ("cold", "lazy"):
            (DATA / f"golden_{kind}_journal.txt").write_text(sorted_journal(kind, Path(work)))
