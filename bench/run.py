"""Wall-clock benchmark for adaptidx.

    python3 bench/run.py --workload cold_converge --seed 1 --seconds 35 --trace 0

One client thread drives the engine through its public API in a closed loop:
job n+1 is submitted only after ``WorkloadRunner.run_job`` returns for job n.
A run repeats (set up, run the job sequence, tear down) until ``--seconds``
is spent, every repetition on the dataset and jobs the seed generates, and
reports medians, with wall times rescaled to a reference host speed by the
host-speed gauge (gauge.py). It checks every job's output against numpy over
the generated columns and compares the simulated reports of its repetitions.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced repetitions and prints the per-layer metrics,
taken from spans recorded around the engine's layer boundaries (see
spans.py) and written to ``.bench_work/trace-<workload>-s<seed>.jsonl``.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics. The exit code is nonzero when any output is wrong.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BENCHMARK = ROOT / "BENCHMARK.json"
MIN_SETUPS = 8
SETUP_GAUGE_SAMPLES = 5
TASK_COUNTERS = ("records_read", "records_emitted", "completions_skipped", "remote_column_reads")


@dataclass
class Rep:
    """One repetition: set-up, then the whole job sequence."""

    setup_s: float  # generate + upload
    upload_s: float
    traced: bool = False
    job_walls: list[float] = field(default_factory=list)
    jobs_to_converge: Optional[int] = None
    rows: list[dict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    failed_jobs: int = 0
    disk_bytes_per_user_byte: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def jobs(self) -> int:
        return len(self.rows)

    @property
    def sequence_wall_s(self) -> float:
        return sum(self.job_walls)


def load_engine() -> None:
    """Put the checkout's own src/ first on the path, or fail."""
    init = SRC / "adaptidx" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: no engine source at {init.parent}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import adaptidx

    if Path(adaptidx.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported adaptidx from {adaptidx.__file__}, not {init}")


def complete_coverage(registry, attribute: str) -> int:
    """Blocks with a complete (normal or full pseudo) replica indexed on `attribute`."""
    from adaptidx import ReplicaKind

    return len(
        {
            block_id
            for block_id, info in registry.iter_replicas()
            if info.indexed_attribute == attribute and info.kind != ReplicaKind.PARTIAL_PSEUDO
        }
    )


def tree_bytes(root: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(d, name)) for d, _, names in os.walk(root) for name in names
    )


def check_output(job, outcome, dataset) -> list[str]:
    """Compare a job's output with numpy over the generated columns."""
    m = outcome.metrics
    if m.failed:
        return [f"{m.job_id}: failed: {m.error.splitlines()[0] if m.error else '?'}"]
    bounds = (job.predicate.low, job.predicate.high)
    lo, hi = (v.encode() if isinstance(v, str) else v for v in bounds)
    column = dataset.columns[job.predicate.attribute]
    mask = (column >= lo) & (column <= hi)
    expected = int(mask.sum())
    if m.records_emitted != expected:
        return [f"{m.job_id}: emitted {m.records_emitted} records, expected {expected}"]
    problems = []
    for name in job.projection:
        got = [part[name] for r in outcome.results for part in r.emitted]
        want = np.sort(dataset.columns[name][mask])
        got = np.sort(np.concatenate(got)) if got else want[:0]
        if not np.array_equal(got, want):
            problems.append(f"{m.job_id}: emitted values of {name!r} differ from the dataset")
    return problems


def run_rep(
    workload, seed: int, size: str, root: Path, gauge, tracer=None, setup_only=False
) -> Rep:
    from adaptidx import Cluster
    from adaptidx.cluster import REGISTRY_JOURNAL

    def call(name, fn, *args):
        return tracer.call(name, fn, *args) if tracer else fn(*args)

    gc.collect()  # so that garbage of the previous repetition is not timed here
    start = time.perf_counter()
    dataset = call("workloads.generate", workload.generate, seed, size)
    upload_start = time.perf_counter()
    cluster = Cluster(workload.config(size), root)
    cluster.upload_dataset(dataset, workload.upload_index_attributes)
    end = time.perf_counter()
    rep = Rep(setup_s=end - start, upload_s=end - upload_start, traced=tracer is not None)
    gauge.sample(SETUP_GAUGE_SAMPLES)
    try:
        if not setup_only:
            journal_after_upload = (root / REGISTRY_JOURNAL).stat().st_size
            gc.collect()
            run_sequence(workload, seed, size, cluster, dataset, rep, gauge, tracer)
            rep.disk_bytes_per_user_byte = tree_bytes(root) / sum(
                c.nbytes for c in dataset.columns.values()
            )
            rep.counters["registry.journal_bytes"] = (
                (root / REGISTRY_JOURNAL).stat().st_size - journal_after_upload
            )
    finally:
        cluster.close()
    for indexer in cluster.indexers.values():
        for key, value in dataclasses.asdict(indexer.stats).items():
            rep.counters[f"indexer.{key}"] = rep.counters.get(f"indexer.{key}", 0) + value
    return rep


def run_sequence(workload, seed, size, cluster, dataset, rep, gauge, tracer) -> None:
    """Run the job sequence; only the run_job calls are timed.

    Checking a job's output and the index coverage happens between jobs,
    outside the timed region, and the job's output is dropped after it; so
    does a sample of the host-speed gauge.
    """
    from adaptidx import WorkloadRunner

    registry = cluster.registry
    total = registry.block_count
    converged = [complete_coverage(registry, workload.attribute) == total]
    runner = WorkloadRunner(cluster)
    rng = np.random.default_rng([seed, 1])
    indexed = 0
    for job in workload.jobs(rng, dataset, lambda: converged[0], size):
        if tracer:
            tracer.job_id = job.job_id
        start = time.perf_counter()
        outcome = runner.run_job(job)
        rep.job_walls.append(time.perf_counter() - start)

        m = outcome.metrics
        rep.rows.append(m.row())
        problems = check_output(job, outcome, dataset)
        if m.blocks_indexed_after < max(indexed, m.blocks_indexed_before):
            problems.append(f"{m.job_id}: indexed blocks dropped to {m.blocks_indexed_after}")
        indexed = m.blocks_indexed_after
        rep.failures += problems
        rep.failed_jobs += bool(problems)
        for key in TASK_COUNTERS:
            rep.counters[key] = rep.counters.get(key, 0) + sum(
                getattr(r, key) for r in outcome.results
            )
        converged[0] = complete_coverage(registry, workload.attribute) == total
        if converged[0] and rep.jobs_to_converge is None:
            rep.jobs_to_converge = rep.jobs
        gauge.sample()
    if rep.jobs_to_converge is None:
        rep.failures.append(
            f"sequence ended with {complete_coverage(registry, workload.attribute)}"
            f"/{total} blocks completely indexed"
        )


def determinism(reps: list[Rep]) -> tuple[str, bool]:
    """Compare the simulated reports of all sequences of one seed.

    Returns a printable line and whether a difference is unexplained, that
    is, seen without any indexer queue rejection to account for it.
    """
    from adaptidx.runner import CSV_COLUMNS

    sequences = [r for r in reps if r.rows]
    if len(sequences) < 2:
        return f"determinism: {len(sequences)} sequence, nothing to compare", False
    first = sequences[0].rows
    differing = set()
    for other in sequences[1:]:
        if len(other.rows) != len(first):
            differing.add("job count")
        for a, b in zip(first, other.rows):
            differing.update(c for c in CSV_COLUMNS if a[c] != b[c])
    if not differing:
        return f"determinism: simulated reports identical across {len(sequences)} sequences", False
    rejected = [int(r.counters.get("indexer.rejected_full", 0)) for r in sequences]
    skipped = [int(r.counters.get("completions_skipped", 0)) for r in sequences]
    line = (
        f"determinism: reports differ across {len(sequences)} sequences in "
        f"{sorted(differing)}; indexer.rejected_full per sequence {rejected}; "
        f"execution.completions_skipped per sequence {skipped}"
    )
    return line, not any(rejected)


def typical_job_walls(reps: list[Rep]) -> list[float]:
    """Each job position's median wall across the run's sequences.

    Percentiles are taken over these rather than over all walls pooled:
    sequences mix slow full-scan jobs with fast index-scan jobs, and a pooled
    percentile that falls between the two groups jumps with single outliers.
    """
    by_position: dict[int, list[float]] = {}
    for r in reps:
        for i, wall in enumerate(r.job_walls):
            by_position.setdefault(i, []).append(wall)
    return [statistics.median(walls) for walls in by_position.values()]


def end_to_end(
    reps: list[Rep], setups: list[Rep], single: float = 1.0, job: float = 1.0
) -> dict[str, float]:
    """The end-to-end metrics, wall times multiplied by the gauge's factors:
    `single` for set-up, `job` for jobs (1.0: as measured)."""
    walls = [w * job for w in typical_job_walls(reps)]
    med = statistics.median
    return {
        "setup_s": med([r.setup_s for r in setups]) * single,
        "sequence_wall_s": med([r.sequence_wall_s for r in reps]) * job,
        # Median upload plus median job time to convergence, so that every
        # set-up of the run counts: on warm_index_scan the upload is the part
        # that converges and the run has room for only one sequence.
        "converge_wall_s": med([r.upload_s for r in setups]) * single
        + med([sum(r.job_walls[: r.jobs_to_converge or r.jobs]) for r in reps]) * job,
        # A mean: on lazy_uservisits the count moves between 3 and 4 with
        # indexer queue rejections, and a median of such counts flips.
        "jobs_to_converge": statistics.fmean(r.jobs_to_converge or r.jobs for r in reps),
        "job_wall_s.p50": float(np.percentile(walls, 50)),
        "job_wall_s.p90": float(np.percentile(walls, 90)),
        "jobs_per_s": med([r.jobs / r.sequence_wall_s for r in reps]) / job,
        "sim_s_total": med([sum(row["simulated_seconds"] for row in r.rows) for r in reps]),
        "bytes_read_total": med([sum(row["bytes_read"] for row in r.rows) for r in reps]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "disk_bytes_per_user_byte": med([r.disk_bytes_per_user_byte for r in reps]),
    }


def layer_metrics(tracer, rep: Rep, names: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, by BENCHMARK.json name.

    A name <span>.<stat> reads a span statistic (tasks = calls, bytes = the
    summed span sizes); the rest come from the engine's own counters.
    """
    summary = tracer.summary()
    rewrites = {s[0] for s in tracer.spans if s[2] == "lazy.append_aligned_columns"}
    c = rep.counters
    derived = {
        "cluster.waves": summary.get("cluster.run_wave", {}).get("n", 0),
        "lazy.bytes_rewritten": sum(
            s[7] for s in tracer.spans if s[2] == "blockfile.write_block" and s[1] in rewrites
        ),
        "execution.rows_read_per_row_emitted": c["records_read"] / max(c["records_emitted"], 1),
        "execution.completions_skipped": c["completions_skipped"],
        "execution.remote_column_reads": c["remote_column_reads"],
        "indexer.written_per_enqueued": (c["indexer.written"] + c["indexer.completed"])
        / max(c["indexer.enqueued"], 1),
    }
    out = {}
    for name in names:
        if name in derived or name in c:
            out[name] = derived.get(name, c.get(name))
            continue
        span, stat = name.rsplit(".", 1)
        stat = {"tasks": "calls", "bytes": "n"}.get(stat, stat)
        out[name] = summary.get(span, {}).get(stat, 0)
    return out


def parse_args(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a seconds-long smoke run for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    load_engine()
    from gauge import Gauge
    from spans import Tracer
    from suite import WORKLOADS

    spec = json.loads(BENCHMARK.read_text())
    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    trace_path = WORK / f"trace-{workload.name}-s{args.seed}.jsonl"
    if args.trace:
        trace_path.unlink(missing_ok=True)

    reps: list[Rep] = []
    extra_setups: list[Rep] = []  # set-up only, when too few sequences fit
    started = time.perf_counter()
    try:
        gauge = Gauge(run_dir)
        while True:
            tracer = Tracer() if args.trace and len(reps) % 2 == 1 else None
            rep_start = time.perf_counter()
            if tracer:
                tracer.install()
            try:
                rep = run_rep(
                    workload, args.seed, args.size, run_dir / f"rep{len(reps)}", gauge, tracer
                )
            finally:
                if tracer:
                    tracer.uninstall()
            shutil.rmtree(run_dir / f"rep{len(reps)}")
            if tracer:
                rep.layers = layer_metrics(tracer, rep, [m["name"] for m in spec["per_layer"]])
                tracer.write_jsonl(trace_path, rep=len(reps))
            reps.append(rep)
            now = time.perf_counter()
            wants_trace = args.trace and not any(r.traced for r in reps)
            # Another sequence, plus the set-ups still owed after it, must fit.
            owed = max(MIN_SETUPS - len(reps) - 1, 0) * rep.setup_s
            if not wants_trace and now - started + (now - rep_start) + owed > args.seconds:
                break
        while len(reps) + len(extra_setups) < MIN_SETUPS:
            root = run_dir / f"setup{len(extra_setups)}"
            extra_setups.append(
                run_rep(workload, args.seed, args.size, root, gauge, setup_only=True)
            )
            shutil.rmtree(root)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    plain = [r for r in reps if not r.traced]
    raw = end_to_end(plain, plain + extra_setups)
    e2e = end_to_end(plain, plain + extra_setups, gauge.single_factor(), gauge.job_factor())
    failures = [f for r in reps for f in r.failures]
    det_line, unexplained = determinism(reps)
    if unexplained:
        failures.append("simulated reports differ without any queue rejection")
    attempted = sum(r.jobs for r in reps)
    failed = sum(r.failed_jobs for r in reps)

    print(f"workload {workload.name} seed {args.seed} size {args.size}: "
          f"{len(reps)} sequences ({sum(r.traced for r in reps)} traced), "
          f"{len(reps) + len(extra_setups)} set-ups, {attempted} jobs, "
          f"{time.perf_counter() - started:.1f} s")
    print(f"  gauge over {len(gauge.single)} samples: single-threaded "
          f"{statistics.median(gauge.single) * 1e3:.3f} ms, threaded "
          f"{statistics.median(gauge.threaded) * 1e3:.3f} ms; factors: set-up "
          f"{gauge.single_factor():.4f}, jobs {gauge.job_factor():.4f}")
    if extra_setups:
        print("  set-up only: " + " ".join(f"{r.setup_s:.3f}" for r in extra_setups) + " s")
    for i, r in enumerate(reps):
        print(f"  sequence {i}{' traced' if r.traced else ''}: set-up {r.setup_s:.3f} s, "
              f"{r.jobs} jobs in {r.sequence_wall_s:.3f} s, converged after job "
              f"{r.jobs_to_converge}, upload {r.upload_s:.3f} s, job walls "
              f"{' '.join(f'{w:.3f}' for w in r.job_walls[:8])}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in spec["per_layer"]})
    print(f"  {'metric':<28} {'reference host':>14} {'measured':>14}")
    for name, value in e2e.items():
        print(f"  {name:<28} {value:>14.6g} {raw[name]:>14.6g} {units.get(name, '')}")
    print(f"  {'job_fail_ratio':<28} {failed / attempted:>14.6g} {'':>14} ratio")
    print(det_line)
    for failure in failures:
        print(f"FAIL {failure}")

    if args.trace:
        traced = [r for r in reps if r.traced]
        metrics = {
            name: statistics.median(r.layers[name] for r in traced)
            for name in traced[0].layers
        }
        metrics["trace.overhead_ratio"] = statistics.median(
            r.sequence_wall_s for r in traced
        ) / raw["sequence_wall_s"]
        for name, value in metrics.items():
            print(f"  {name:<44} {value:>14.6g} {units.get(name, '')}")
        print(f"spans: {trace_path.relative_to(ROOT)}")
    else:
        metrics = e2e
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if args.trace else "end_to_end"]
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
