"""Command-line surface: dataset generation, upload, workload runs, reports.

Subcommands:
  gen-synthetic   write a numeric dataset file
  gen-uservisits  write a web-log-like dataset file
  upload          split a dataset into blocks across a cluster directory
  run             execute a jobs file against an uploaded cluster
  report          pretty-print a JSON run report

A jobs file is a JSON document: either a list of job objects or
{"policy": {...}, "jobs": [...]}. Each job object:

    {
      "id": "job1",                      # optional
      "predicate": {"attribute": "a", "low": 3, "high": 4},
      "projection": ["a", "b"] | "all",
      "offer_rate": 0.25                 # constant-rate job
      | "eager": true                    # cost-model-driven rate
      | "selectivity_threshold": 0.8     # selectivity-driven offers
    }

The workload-level "policy" object supplies defaults: mode
(constant|eager|selectivity, the values of the report's mode column; any
other value is an error), rho, target_seconds, t_fsw, t_idx_overhead,
selectivity_threshold. A key outside these lists, in the document, a job
object or the policy object, is an error (exit status 2), and so is a
missing or mistyped one.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .cluster import CLUSTER_CONFIG, REGISTRY_JOURNAL, Cluster, ClusterConfig
from .errors import AdaptidxError, ConfigError, RegistryError
from .execution import JobSpec, Predicate
from .indexer import EAGER, OFFER_RATE, SELECTIVITY, OfferPolicy
from .policy import load_json
from .runner import WorkloadRunner, write_reports
from .scheduler import format_plan
from .workloads import Dataset, gen_synthetic, gen_uservisits_like


def _cmd_gen(args: argparse.Namespace) -> int:
    dataset = args.generate(args.rows, args.seed)
    size = dataset.to_file(args.out)
    print(f"wrote {args.rows} rows ({size} bytes) to {args.out}")
    return 0


def _need_file(path: Path, what: str) -> None:
    """Refuse a missing input before anything is opened or created."""
    if not path.is_file():
        raise ConfigError(f"{what} not found: {path}")


def _cmd_upload(args: argparse.Namespace) -> int:
    _need_file(args.config, "cluster config")
    _need_file(args.dataset, "dataset")
    if (args.root / REGISTRY_JOURNAL).exists():
        # Refused before the dataset file is read, with one message whatever
        # the config: Cluster() would replay the journal first, or refuse a
        # different config with its own error.
        raise RegistryError(f"cluster {args.root} already holds a dataset")
    config = ClusterConfig.from_file(args.config)
    dataset = Dataset.from_file(args.dataset)
    cluster = Cluster(config, args.root)
    attrs = [a for a in (args.index_attrs or "").split(",") if a]
    try:
        registry = cluster.upload_dataset(dataset, attrs)
    finally:
        cluster.close()
    print(
        f"uploaded {registry.block_count} blocks x {config.replication_factor} replicas "
        f"({registry.total_records} records) to {args.root}"
    )
    return 0


JOB_KEYS = frozenset(
    {"id", "predicate", "projection", "rho", "offer_rate", "eager", "selectivity_threshold"}
)
POLICY_KEYS = frozenset(
    {"mode", "rho", "selectivity_threshold", "t_fsw", "t_idx_overhead", "target_seconds"}
)


def _check_keys(doc: dict, allowed: frozenset[str], where: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ConfigError(
                f"unknown key {key!r} in {where} (allowed: {', '.join(sorted(allowed))})"
            )


def _number(value, key: str, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: {key!r} must be a number, got {value!r}")
    if not math.isfinite(value):  # JSON as Python reads it has NaN and Infinity
        raise ConfigError(f"{where}: {key!r} must be finite, got {value!r}")
    return float(value)


def _parse_job(doc: dict, index: int, defaults: dict, schema) -> JobSpec:
    where = f"job {index}"
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    _check_keys(doc, JOB_KEYS, where)
    pred = doc.get("predicate")
    if not isinstance(pred, dict):
        raise ConfigError(f"{where} needs a 'predicate' object")
    for key in ("attribute", "low", "high"):
        if key not in pred:
            raise ConfigError(f"{where}: predicate needs {key!r}")
    predicate = Predicate(pred["attribute"], pred["low"], pred["high"])
    projection = doc.get("projection", "all")
    if projection != "all" and not (
        isinstance(projection, list) and all(isinstance(n, str) for n in projection)
    ):
        raise ConfigError(f"{where}: 'projection' must be \"all\" or a list of attribute names")
    mode = defaults.get("mode", OFFER_RATE)
    rho = _number(doc.get("rho", defaults.get("rho", 0.1)), "rho", where)
    threshold = _number(
        doc.get("selectivity_threshold", defaults.get("selectivity_threshold", 0.8)),
        "selectivity_threshold", where,
    )
    eager = doc.get("eager", False)
    if not isinstance(eager, bool):  # "false" and 0 would pick a mode by truthiness
        raise ConfigError(f"{where}: 'eager' must be true or false, got {eager!r}")
    if "offer_rate" in doc:
        mode, rho = OFFER_RATE, _number(doc["offer_rate"], "offer_rate", where)
    elif eager:
        mode = EAGER
    elif "selectivity_threshold" in doc:
        mode = SELECTIVITY
    return JobSpec(
        job_id=str(doc.get("id", f"job{index}")),
        predicate=predicate,
        projection=schema.names if projection == "all" else tuple(projection),
        policy=OfferPolicy(mode=mode, rho=rho, selectivity_threshold=threshold),
        collect_output=False,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    _need_file(args.root / CLUSTER_CONFIG, "cluster config")
    _need_file(args.jobs, "jobs file")
    cluster = Cluster.open(args.root)
    try:
        if cluster.registry is None:
            print(f"error: no dataset uploaded under {args.root}", file=sys.stderr)
            return 2
        raw = load_json(args.jobs, "jobs file")
        if isinstance(raw, dict):
            _check_keys(raw, frozenset({"policy", "jobs"}), "jobs file")
            docs, defaults = raw.get("jobs"), raw.get("policy", {})
        else:
            docs, defaults = raw, {}
        if not isinstance(docs, list):
            raise ConfigError("jobs file must be a list of jobs or {\"jobs\": [...]}")
        if not isinstance(defaults, dict):
            raise ConfigError("'policy' in the jobs file must be a JSON object")
        _check_keys(defaults, POLICY_KEYS, "policy")
        for key in POLICY_KEYS - {"mode"}:
            if key in defaults:
                _number(defaults[key], key, "policy")

        schema = cluster.registry.schema
        jobs = [
            _parse_job(doc, i, defaults, schema) for i, doc in enumerate(docs, start=1)
        ]

        runner = WorkloadRunner(cluster)
        runner.apply_policy_overrides(
            t_fsw=defaults.get("t_fsw"),
            t_idx_overhead=defaults.get("t_idx_overhead"),
            target_seconds=defaults.get("target_seconds"),
        )

        rows = []
        failed = False
        for job in jobs:
            outcome = runner.run_job(job)
            rows.append(outcome.metrics)
            if args.plan_dump and outcome.plan:
                print(format_plan(outcome.plan))
            print(
                f"{outcome.metrics.job_id}: indexed {outcome.metrics.blocks_indexed_after}"
                f"/{outcome.metrics.blocks_total} blocks, "
                f"emitted {outcome.metrics.records_emitted} records, "
                f"simulated {outcome.metrics.simulated_seconds:.3f}s"
            )
            if outcome.metrics.failed:
                print(f"{outcome.metrics.job_id} failed: {outcome.metrics.error}", file=sys.stderr)
                failed = True
                break

        csv_path, json_path = write_reports(rows, args.report)
        print(f"report: {csv_path} {json_path}")
        return 1 if failed else 0
    finally:
        cluster.close()


def _cmd_report(args: argparse.Namespace) -> int:
    _need_file(args.json, "report")
    data = load_json(args.json, "report")
    rows = data.get("jobs") if isinstance(data, dict) else None
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise ConfigError(f"report {args.json} must be {{\"jobs\": [<job objects>]}}")
    if not rows:
        print("empty report")
        return 0
    cols = [
        "job_id",
        "mode",
        "blocks_indexed_after",
        "blocks_total",
        "rho_used",
        "predicted_seconds",
        "simulated_seconds",
        "records_emitted",
        "bytes_read",
    ]
    widths = {c: max(len(c), *(len(_fmt(r.get(c))) for r in rows)) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(_fmt(r.get(c)).ljust(widths[c]) for c in cols))
    return 0


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptidx",
        description="Adaptive block-level clustered indexing on a simulated cluster",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, what, generate in (
        ("gen-synthetic", "numeric", gen_synthetic),
        ("gen-uservisits", "web-log-like", gen_uservisits_like),
    ):
        g = sub.add_parser(name, help=f"generate the {what} dataset")
        g.add_argument("--rows", type=int, required=True)
        g.add_argument("--seed", type=int, default=0)
        g.add_argument("--out", type=Path, required=True)
        g.set_defaults(fn=_cmd_gen, generate=generate)

    up = sub.add_parser("upload", help="split a dataset into blocks on a cluster")
    up.add_argument("--dataset", type=Path, required=True)
    up.add_argument("--root", type=Path, required=True)
    up.add_argument("--config", type=Path, required=True)
    up.add_argument(
        "--index-attrs",
        default="",
        help="comma-separated attributes indexed at upload, one per replica",
    )
    up.set_defaults(fn=_cmd_upload)

    r = sub.add_parser("run", help="run a jobs file against an uploaded cluster")
    r.add_argument("--root", type=Path, required=True)
    r.add_argument("--jobs", type=Path, required=True)
    r.add_argument("--report", type=Path, default=Path("run_report"))
    r.add_argument("--plan-dump", action="store_true", help="print each job's planned blocks")
    r.set_defaults(fn=_cmd_run)

    rep = sub.add_parser("report", help="pretty-print a JSON run report")
    rep.add_argument("--json", type=Path, required=True)
    rep.set_defaults(fn=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except AdaptidxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
