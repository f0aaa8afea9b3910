"""Workload orchestration: run job sequences and report per-job metrics.

Each job runs in two phases. Indexed splits go first, which yields the
measured index-scan time T_is; the offer rate for the remaining full scans is
then fixed by the job's `OfferPolicy.mode` (constant, eager via the cost
model, or selectivity-driven) and the full-scan waves run with it. After the
node indexers drain, the registry delta gives the blocks actually indexed by
the job. A job whose index-scan phase fails skips the full scans but still
drains, so every job's accepted index work has landed when it returns and the
next job plans from a settled registry.

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
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path
from typing import Optional, Sequence

from .cluster import Cluster, ClusterConfig
from .errors import AdaptidxError
from .execution import JobSpec, Predicate, ScanKind, TaskResult
from .indexer import EAGER, SELECTIVITY, OfferPolicy
from .policy import Calibration, CostModelParams, compute_rho, predict_T_job
from .scheduler import (
    choose_offer_blocks,
    format_plan,
    full_scan_blocks_per_node,
    plan_job,
)

CALIBRATION_FILE = "calibration.json"

CSV_COLUMNS = [
    "job_id",
    "predicate_attribute",
    "mode",
    "index_scan_tasks",
    "full_scan_tasks",
    "blocks_total",
    "blocks_indexed_before",
    "blocks_indexed_after",
    "blocks_offered",
    "blocks_enqueued",
    "blocks_rejected",
    "rho_used",
    "t_is_seconds",
    "predicted_seconds",
    "simulated_seconds",
    "records_emitted",
    "bytes_read",
    "failed",
]


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
    blocks_enqueued: int = 0
    blocks_rejected: int = 0
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


@dataclass
class JobOutcome:
    metrics: JobMetrics
    results: list[TaskResult]


def _phase_time(results: Sequence[TaskResult]) -> float:
    """Sum of wave times; a wave costs its slowest task."""
    waves: dict[int, float] = {}
    for r in results:
        waves[r.wave_index] = max(waves.get(r.wave_index, 0.0), r.elapsed)
    return sum(waves.values())


def _wave_count(results: Sequence[TaskResult]) -> int:
    return len({r.wave_index for r in results})


class WorkloadRunner:
    def __init__(self, cluster: Cluster):
        if cluster.registry is None:
            raise AdaptidxError("cluster has no dataset; upload one first")
        self.cluster = cluster
        self._cal_path = cluster.root / CALIBRATION_FILE
        if self._cal_path.exists():
            self.calibration = Calibration.load(self._cal_path)
            self._persisted: Optional[Calibration] = replace(self.calibration)
        else:
            self.calibration = Calibration()
            self._persisted = None  # what calibration.json holds, None if absent
        self._jobs_run = 0

    def apply_policy_overrides(
        self,
        t_fsw: Optional[float] = None,
        t_idx_overhead: Optional[float] = None,
        target_seconds: Optional[float] = None,
    ) -> None:
        """User-supplied cost-model values take precedence over measurement."""
        if t_fsw is not None:
            self.calibration.t_fsw = t_fsw
        if t_idx_overhead is not None:
            self.calibration.t_idx_overhead = t_idx_overhead
        if target_seconds is not None:
            self.calibration.t_target = target_seconds

    # -- single job ----------------------------------------------------------

    def run_job(self, job: JobSpec, plan_dump: bool = False) -> JobOutcome:
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
            return JobOutcome(metrics=metrics, results=[])
        metrics.blocks_indexed_before = registry.indexed_block_count(attr)

        assignments = plan_job(
            job, registry, max_blocks_per_split=config.max_blocks_per_split
        )
        if plan_dump:
            print(format_plan(assignments))
        index_assignments = [a for a in assignments if a.split.scan_kind == ScanKind.INDEX_SCAN]
        full_assignments = [a for a in assignments if a.split.scan_kind == ScanKind.FULL_SCAN]
        metrics.index_scan_tasks = len(index_assignments)
        metrics.full_scan_tasks = len(full_assignments)

        results: list[TaskResult] = []

        # Phase 1: serve indexed blocks and measure T_is.
        index_results = self.cluster.run_wave(index_assignments, job)
        results.extend(index_results)
        t_is = _phase_time(index_results)
        metrics.t_is_seconds = t_is
        if self._collect_failures(index_results, metrics):
            self.cluster.drain_indexers()  # land handed-off completions
            return self._finalize(job, metrics, results)

        # Decide the offer rate for the full-scan phase.
        rho_used = self._decide_rate(job, metrics, t_is)
        will_offer = None
        if job.policy.mode != SELECTIVITY:
            metrics.rho_used = rho_used
            quota = min(
                math.ceil(rho_used * metrics.blocks_total), len(full_assignments)
            )
            will_offer = choose_offer_blocks(
                full_scan_blocks_per_node(full_assignments), quota
            )

        # Phase 2: full scans, offering blocks to the indexers as they finish.
        full_results = self.cluster.run_wave(full_assignments, job, will_offer)
        results.extend(full_results)
        t_scan = _phase_time(full_results)
        failed = self._collect_failures(full_results, metrics)

        self.cluster.drain_indexers()

        metrics.blocks_offered = sum(r.blocks_offered for r in full_results)
        metrics.blocks_rejected = sum(r.blocks_rejected for r in full_results)
        metrics.blocks_enqueued = metrics.blocks_offered - metrics.blocks_rejected
        metrics.records_emitted = sum(r.records_emitted for r in results)
        metrics.bytes_read = sum(r.bytes_read for r in results)
        metrics.blocks_indexed_after = registry.indexed_block_count(attr)

        t_overhead = (
            metrics.blocks_enqueued * config.per_block_index_cost / config.n_slots
        )
        metrics.simulated_seconds = t_is + t_scan + t_overhead

        if not failed:
            self._update_calibration(metrics, full_results, t_scan, t_overhead, rho_used)
            metrics.predicted_seconds = self._predict(metrics, t_is, rho_used)
        self._jobs_run += 1
        return self._finalize(job, metrics, results)

    def _cost_params(self, metrics: JobMetrics, t_is: float) -> CostModelParams:
        cal = self.calibration
        return CostModelParams(
            n_slots=self.cluster.config.n_slots,
            n_blocks=metrics.blocks_total,
            n_idx_blocks=metrics.blocks_indexed_before,
            t_fsw=cal.t_fsw,
            t_idx_overhead=cal.t_idx_overhead,
            T_is=t_is,
            T_target=cal.t_target or 0.0,
        )

    def _decide_rate(self, job: JobSpec, metrics: JobMetrics, t_is: float) -> float:
        if job.policy.mode != EAGER:
            return job.policy.rho
        if not self.calibration.usable:
            if self._jobs_run > 0:
                metrics.warnings.append(
                    "eager mode without calibration; falling back to constant rate"
                )
            return job.policy.rho
        return compute_rho(self._cost_params(metrics, t_is))

    def _update_calibration(
        self,
        metrics: JobMetrics,
        full_results: Sequence[TaskResult],
        t_scan: float,
        t_overhead: float,
        rho_used: float,
    ) -> None:
        cal = self.calibration
        waves = _wave_count(full_results)
        if cal.t_fsw is None and waves > 0:
            cal.t_fsw = t_scan / waves
        if cal.t_idx_overhead is None and t_overhead > 0:
            slots = self.cluster.config.n_slots
            unindexed_waves = math.ceil(
                (metrics.blocks_total - metrics.blocks_indexed_before) / slots
            )
            wave_equivalents = min(
                rho_used * math.ceil(metrics.blocks_total / slots), unindexed_waves
            )
            if wave_equivalents > 0:
                cal.t_idx_overhead = t_overhead / wave_equivalents
        if cal.t_target is None:
            cal.t_target = metrics.simulated_seconds
        if cal != self._persisted:  # only a filled-in field or an override
            cal.save(self._cal_path)
            self._persisted = replace(cal)

    def _predict(self, metrics: JobMetrics, t_is: float, rho_used: float) -> Optional[float]:
        cal = self.calibration
        if cal.t_fsw is None or cal.t_idx_overhead is None:
            return None
        return predict_T_job(
            self._cost_params(metrics, t_is), min(max(rho_used, 0.0), 1.0)
        )

    @staticmethod
    def _collect_failures(results: Sequence[TaskResult], metrics: JobMetrics) -> bool:
        failures = [r for r in results if r.failed]
        if failures:
            metrics.failed = True
            metrics.error = failures[0].error
        return bool(failures)

    def _finalize(self, job: JobSpec, metrics: JobMetrics, results: list[TaskResult]) -> JobOutcome:
        if metrics.failed:
            metrics.records_emitted = sum(r.records_emitted for r in results)
            metrics.bytes_read = sum(r.bytes_read for r in results)
        return JobOutcome(metrics=metrics, results=results)


def run_eager_sequence(
    cluster: Cluster,
    attribute: str,
    initial_rho: float,
    max_jobs: int,
    predicate_for_job,
) -> list[JobMetrics]:
    """Run eager-mode jobs on one attribute until the index completes."""
    runner = WorkloadRunner(cluster)
    rows: list[JobMetrics] = []
    schema = cluster.registry.schema
    for j in range(1, max_jobs + 1):
        low, high = predicate_for_job(j)
        job = JobSpec(
            job_id=f"job{j}",
            predicate=Predicate(attribute, low, high),
            projection=schema.names,
            policy=OfferPolicy(mode=EAGER, rho=initial_rho),
            collect_output=False,
        )
        outcome = runner.run_job(job)
        rows.append(outcome.metrics)
        if outcome.metrics.failed:
            break
        if outcome.metrics.blocks_indexed_after >= outcome.metrics.blocks_total:
            break
    return rows


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

    def predicate_for_job(j: int) -> tuple[float, float]:
        # disjoint, highly selective ranges on a uniform attribute
        return 0.001 * j, 0.001 * j + 0.0004

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
        rows = run_eager_sequence(
            cluster, "b", initial_rho, target_jobs + 3, predicate_for_job
        )
        cluster.close()
        if any(m.failed for m in rows):
            continue
        rhos = [m.rho_used for m in rows]
        converged_at = next(
            (
                m_idx + 1
                for m_idx, m in enumerate(rows)
                if m.blocks_indexed_after >= m.blocks_total
            ),
            None,
        )
        ok = (
            converged_at == target_jobs
            and all(b >= a - 1e-12 for a, b in zip(rhos, rhos[1:]))
            and abs(rhos[target_jobs - 1] - 1.0) < 1e-9
        )
        if ok:
            return {
                "per_byte_cost": per_byte_cost,
                "per_block_index_cost": candidate,
                "scan_index_ratio": ratio,
                "rho_sequence": rhos,
                "jobs_to_converge": converged_at,
            }
    raise AdaptidxError(
        f"no per-block index cost in the searched grid converges in {target_jobs} jobs"
    )


def write_reports(rows: Sequence[JobMetrics], prefix: Path | str) -> tuple[Path, Path]:
    """Write <prefix>.csv and <prefix>.json; returns both paths."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    csv_path = prefix.with_suffix(".csv")
    json_path = prefix.with_suffix(".json")
    with open(csv_path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for m in rows:
            writer.writerow(m.row())
    with open(json_path, "w") as f:
        json.dump({"jobs": [m.row() | {"warnings": m.warnings, "error": m.error} for m in rows]}, f, indent=2)
    return csv_path, json_path
