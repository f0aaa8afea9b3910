"""Workload orchestration: run job sequences and report per-job metrics.

Each job runs in two phases. Indexed splits go first, which yields the
measured index-scan time T_is; the offer rate for the remaining full scans is
then fixed by the job's `OfferPolicy.mode` (constant, eager via the cost
model, or selectivity-driven) and the full-scan waves run with it. A job
whose index-scan phase fails skips the full scans. Every planned job then
ends the same way: the node indexers drain, so its accepted index work has
landed and the next job plans from a settled registry; the registry gives
the blocks indexed; and a job with no failed task calibrates the cost model
at the fraction of the blocks it offered. A runner makes a new plan only
when the registry has changed since its last one, or the predicate
attribute has.

Simulated job time = T_is + sum of full-scan wave times + indexing overhead,
where each wave costs its slowest task and the overhead charges the
configured per-block indexing cost amortized over the cluster's map slots
(indexing runs in parallel with scanning on every node, so the net job
extension scales with offered blocks per slot, not per block).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields, asdict, replace
from pathlib import Path
from typing import Optional, Sequence

from .cluster import Cluster, ClusterConfig
from .errors import AdaptidxError
from .execution import JobSpec, Predicate, ScanKind, TaskResult
from .indexer import EAGER, SELECTIVITY, OfferPolicy
from .policy import Calibration, CostModelParams, check_time, compute_rho, predict_T_job
from .scheduler import TaskAssignment, choose_offer_blocks, full_scan_blocks_per_node, plan_job

CALIBRATION_FILE = "calibration.json"


@dataclass
class JobMetrics:
    job_id: str
    predicate_attribute: str
    mode: str
    index_scan_tasks: int = 0
    full_scan_tasks: int = 0
    blocks_total: int = 0
    blocks_indexed_before: int = 0
    blocks_indexed_after: int = 0
    blocks_offered: int = 0
    rho_used: Optional[float] = None
    t_is_seconds: float = 0.0
    predicted_seconds: Optional[float] = None
    simulated_seconds: float = 0.0
    records_emitted: int = 0
    bytes_read: int = 0
    failed: bool = False
    error: str = ""
    warnings: list[str] = field(default_factory=list)

    def row(self) -> dict:
        d = asdict(self)
        return {k: d[k] for k in CSV_COLUMNS}


# The CSV report's columns: every metric but the text the JSON report adds.
CSV_COLUMNS = [f.name for f in fields(JobMetrics) if f.name not in ("error", "warnings")]


@dataclass
class JobOutcome:
    metrics: JobMetrics
    results: list[TaskResult]
    plan: tuple[TaskAssignment, ...]  # in plan order; () for a job that failed validation


def _phase_time(results: Sequence[TaskResult], per_byte_cost: float) -> float:
    """Sum of wave times; a wave costs its slowest task, the one that read
    the most bytes, at `per_byte_cost` per byte."""
    waves: dict[int, int] = {}
    for r in results:
        waves[r.wave_index] = max(waves.get(r.wave_index, 0), r.bytes_read)
    return sum(n * per_byte_cost for n in waves.values())


class WorkloadRunner:
    def __init__(self, cluster: Cluster):
        if cluster.registry is None:
            raise AdaptidxError("cluster has no dataset; upload one first")
        self.cluster = cluster
        self._plan: tuple = (None, ())  # the last plan made: (its key, its assignments)
        self._cal_path = cluster.root / CALIBRATION_FILE
        self.calibration = Calibration.load(self._cal_path)
        self._persisted = replace(self.calibration)  # what calibration.json holds

    def apply_policy_overrides(
        self,
        t_fsw: Optional[float] = None,
        t_idx_overhead: Optional[float] = None,
        target_seconds: Optional[float] = None,
    ) -> None:
        """User-supplied cost-model values take precedence over measurement.
        Each must be a finite non-negative number, as in calibration.json,
        else ConfigError and no value changes."""
        given = {"t_fsw": t_fsw, "t_idx_overhead": t_idx_overhead, "target_seconds": target_seconds}
        for name, value in given.items():
            if value is not None:
                check_time(value, f"policy {name!r}", "non-negative")
        if t_fsw is not None:
            self.calibration.t_fsw = t_fsw
        if t_idx_overhead is not None:
            self.calibration.t_idx_overhead = t_idx_overhead
        if target_seconds is not None:
            self.calibration.t_target = target_seconds

    # -- single job ----------------------------------------------------------

    def run_job(self, job: JobSpec) -> JobOutcome:
        registry = self.cluster.registry
        config = self.cluster.config
        attr = job.predicate.attribute

        metrics = JobMetrics(
            job_id=job.job_id,
            predicate_attribute=attr,
            mode=job.policy.mode,
            blocks_total=registry.block_count,
        )
        try:
            job.validate(registry.schema)
        except AdaptidxError as exc:
            metrics.failed = True
            metrics.error = str(exc)
            return JobOutcome(metrics=metrics, results=[], plan=())
        metrics.blocks_indexed_before = registry.indexed_block_count(attr)

        # A plan depends on the registry's replicas, the attribute and the
        # split bound alone, so an unchanged registry reuses the last one.
        key = (registry, registry.version, attr, config.max_blocks_per_split)
        if self._plan[0] != key:
            planned = plan_job(job, registry, max_blocks_per_split=config.max_blocks_per_split)
            self._plan = (key, tuple(planned))
        assignments = self._plan[1]
        index_assignments = [a for a in assignments if a.split.scan_kind == ScanKind.INDEX_SCAN]
        full_assignments = [a for a in assignments if a.split.scan_kind == ScanKind.FULL_SCAN]
        metrics.index_scan_tasks = len(index_assignments)
        metrics.full_scan_tasks = len(full_assignments)

        # Phase 1: serve indexed blocks and measure T_is.
        results = self.cluster.run_wave(index_assignments, job)
        t_is = _phase_time(results, config.per_byte_cost)
        full_results: list[TaskResult] = []
        if not self._collect_failures(results, metrics):
            # Phase 2: full scans, offering the picked blocks to the indexers
            # as they finish. Selectivity mode picks every full-scanned block.
            metrics.rho_used = self._decide_rate(job, metrics, t_is)
            quota = len(full_assignments)
            if metrics.rho_used is not None:
                quota = min(math.ceil(metrics.rho_used * metrics.blocks_total), quota)
            will_offer = choose_offer_blocks(full_scan_blocks_per_node(full_assignments), quota)
            full_results = self.cluster.run_wave(full_assignments, job, will_offer)
            results += full_results
            self._collect_failures(full_results, metrics)

        self.cluster.drain_indexers()  # lands the job's offers and handed-off completions

        metrics.blocks_offered = sum(r.blocks_offered for r in full_results)
        metrics.blocks_indexed_after = registry.indexed_block_count(attr)

        t_scan = _phase_time(full_results, config.per_byte_cost)
        t_overhead = metrics.blocks_offered * config.per_block_index_cost / config.n_slots
        metrics.t_is_seconds = t_is
        metrics.simulated_seconds = t_is + t_scan + t_overhead
        metrics.records_emitted = sum(r.records_emitted for r in results)
        metrics.bytes_read = sum(r.bytes_read for r in results)

        if not metrics.failed:
            # The cost model sees the fraction of the blocks the job offered.
            rho = metrics.blocks_offered / metrics.blocks_total if metrics.blocks_total else 0.0
            cal = self.calibration
            # fill reads only the counts, and takes no T_is, which may have overflowed
            cal.fill(self._cost_params(metrics, 0.0), rho, t_scan, t_overhead,
                     metrics.simulated_seconds)
            if cal != self._persisted:  # only a filled-in field or an override
                cal.save(self._cal_path)
                self._persisted = replace(cal)
            if cal.t_fsw is not None and cal.t_idx_overhead is not None and math.isfinite(t_is):
                metrics.predicted_seconds = predict_T_job(self._cost_params(metrics, t_is), rho)
        return JobOutcome(metrics=metrics, results=results, plan=assignments)

    def _cost_params(self, metrics: JobMetrics, t_is: float) -> CostModelParams:
        cal = self.calibration
        return CostModelParams(
            n_slots=self.cluster.config.n_slots,
            n_blocks=metrics.blocks_total,
            n_idx_blocks=metrics.blocks_indexed_before,
            t_fsw=cal.t_fsw or 0.0,
            t_idx_overhead=cal.t_idx_overhead or 0.0,
            T_is=t_is,
            T_target=cal.t_target or 0.0,
        )

    def _decide_rate(self, job: JobSpec, metrics: JobMetrics, t_is: float) -> Optional[float]:
        """The job's offer rate; None in selectivity mode, which has none."""
        if job.policy.mode == SELECTIVITY:
            return None
        if job.policy.mode != EAGER:
            return job.policy.rho
        if not self.calibration.usable:
            # The first job (or the user) sets the target, and calibration.json
            # keeps it, so a reopened cluster warns as an unclosed one would.
            if self.calibration.t_target is not None:
                metrics.warnings.append(
                    "eager mode without calibration; falling back to constant rate"
                )
            return job.policy.rho
        if not math.isfinite(t_is):  # the index scans alone overran any budget
            return 0.0
        return compute_rho(self._cost_params(metrics, t_is))

    @staticmethod
    def _collect_failures(results: Sequence[TaskResult], metrics: JobMetrics) -> bool:
        failures = [r for r in results if r.failed]
        if failures:
            metrics.failed = True
            metrics.error = failures[0].error
        return bool(failures)


def derive_eager_timing(
    work_dir: Path | str,
    n_blocks: int = 100,
    node_count: int = 10,
    rows_per_block: int = 512,
    initial_rho: float = 0.1,
    target_jobs: int = 4,
    per_byte_cost: float = 1e-6,
) -> dict:
    """Search for simulated timing that makes eager indexing converge in
    exactly `target_jobs` jobs from `initial_rho`, with a non-decreasing rate
    hitting 1.0 on the final job.

    The scan-to-index cost ratio is the only free knob: the candidate
    per-block indexing costs sweep a ratio grid, each candidate replays the
    whole eager sequence on a fresh cluster, and the first one that meets the
    convergence shape is returned together with its rate trajectory.
    """
    from .workloads import gen_synthetic

    work_dir = Path(work_dir)
    dataset = gen_synthetic(n_blocks * rows_per_block, seed=97)
    block_bytes = rows_per_block * dataset.schema.row_width
    t_fsw_estimate = block_bytes * per_byte_cost
    # Eager jobs on b over disjoint, highly selective ranges of a uniform attribute.
    jobs = [
        JobSpec(
            job_id=f"job{j}",
            predicate=Predicate("b", 0.001 * j, 0.001 * j + 0.0004),
            projection=dataset.schema.names,
            policy=OfferPolicy(mode=EAGER, rho=initial_rho),
            collect_output=False,
        )
        for j in range(1, target_jobs + 4)
    ]

    for i, ratio in enumerate(r / 100 for r in range(118, 155, 2)):
        candidate = t_fsw_estimate / ratio
        root = work_dir / f"cand_{i}"
        config = ClusterConfig(
            node_count=node_count,
            slots_per_node=1,
            replication_factor=2,
            block_records=rows_per_block,
            page_size_records=64,
            per_byte_cost=per_byte_cost,
            per_block_index_cost=candidate,
        )
        cluster = Cluster(config, root)
        cluster.upload_dataset(dataset)
        runner = WorkloadRunner(cluster)
        rows: list[JobMetrics] = []
        for job in jobs:
            rows.append(runner.run_job(job).metrics)
            last = rows[-1]
            if last.failed or last.blocks_indexed_after >= last.blocks_total:
                break
        cluster.close()
        rhos = [m.rho_used for m in rows]
        if (
            not last.failed
            and last.blocks_indexed_after >= last.blocks_total
            and len(rows) == target_jobs
            and all(b >= a - 1e-12 for a, b in zip(rhos, rhos[1:]))
            and abs(rhos[-1] - 1.0) < 1e-9
        ):
            return {
                "per_byte_cost": per_byte_cost,
                "per_block_index_cost": candidate,
                "scan_index_ratio": ratio,
                "rho_sequence": rhos,
                "jobs_to_converge": target_jobs,
            }
    raise AdaptidxError(
        f"no per-block index cost in the searched grid converges in {target_jobs} jobs"
    )


def write_reports(rows: Sequence[JobMetrics], prefix: Path | str) -> tuple[Path, Path]:
    """Write <prefix>.csv and <prefix>.json, the prefix kept whole (dots
    included); returns both paths."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    csv_path = prefix.with_name(prefix.name + ".csv")
    json_path = prefix.with_name(prefix.name + ".json")
    with open(csv_path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for m in rows:
            writer.writerow(m.row())
    with open(json_path, "w") as f:
        json.dump({"jobs": [m.row() | {"warnings": m.warnings, "error": m.error} for m in rows]}, f, indent=2)
    return csv_path, json_path
