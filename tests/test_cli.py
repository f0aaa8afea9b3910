import csv
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from adaptidx.blocks import Schema
from adaptidx.cli import main
from adaptidx.cluster import Cluster
from adaptidx.execution import JobSpec, Predicate
from adaptidx.registry import ReplicaRegistry
from adaptidx.runner import WorkloadRunner
from adaptidx.scheduler import format_plan, plan_job
from adaptidx.workloads import Dataset


def write_config(path, **overrides):
    config = {
        "nodes": 3,
        "slots_per_node": 2,
        "replication": 2,
        "block_records": 500,
        "page_size_records": 64,
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


def write_jobs(path, docs, policy=None):
    payload = {"jobs": docs}
    if policy:
        payload["policy"] = policy
    path.write_text(json.dumps(payload))
    return path


def gen_and_upload(tmp_path, rows=4_000, index_attrs=""):
    data = tmp_path / "data.adxd"
    assert main(["gen-synthetic", "--rows", str(rows), "--seed", "7", "--out", str(data)]) == 0
    config = write_config(tmp_path / "config.json")
    root = tmp_path / "cluster"
    args = [
        "upload", "--dataset", str(data), "--root", str(root), "--config", str(config),
    ]
    if index_attrs:
        args += ["--index-attrs", index_attrs]
    assert main(args) == 0
    return root


def test_gen_upload_run_report_pipeline(tmp_path, capsys):
    root = gen_and_upload(tmp_path)
    jobs = write_jobs(
        tmp_path / "jobs.json",
        [
            {"id": "first", "predicate": {"attribute": "b", "low": 0.1, "high": 0.3},
             "projection": "all", "offer_rate": 0.5},
            {"id": "second", "predicate": {"attribute": "b", "low": 0.4, "high": 0.6},
             "projection": ["a", "b"], "offer_rate": 0.5},
        ],
    )
    report = tmp_path / "out" / "report"
    code = main(["run", "--root", str(root), "--jobs", str(jobs), "--report", str(report)])
    assert code == 0
    assert report.with_suffix(".csv").exists()
    assert report.with_suffix(".json").exists()

    with open(report.with_suffix(".csv")) as f:
        rows = list(csv.DictReader(f))
    assert [r["job_id"] for r in rows] == ["first", "second"]
    assert int(rows[0]["blocks_indexed_after"]) == 4  # ceil(0.5 * 8)
    assert int(rows[1]["blocks_indexed_after"]) == 8

    assert main(["report", "--json", str(report.with_suffix(".json"))]) == 0
    out = capsys.readouterr().out
    assert "first" in out and "second" in out


def test_run_on_a_cluster_open_elsewhere_exits_2(tmp_path, capsys):
    root = gen_and_upload(tmp_path)
    jobs = write_jobs(tmp_path / "jobs.json", [
        {"id": "j", "predicate": {"attribute": "b", "low": 0.1, "high": 0.3}, "offer_rate": 0.5},
    ])
    journal = (root / "registry.journal").read_bytes()
    owner = Cluster.open(root)
    try:
        assert main(["run", "--root", str(root), "--jobs", str(jobs)]) == 2
    finally:
        owner.close()
    assert capsys.readouterr().err.startswith(f"error: cluster {root} is already open")
    assert (root / "registry.journal").read_bytes() == journal
    report = tmp_path / "report"
    assert main(["run", "--root", str(root), "--jobs", str(jobs), "--report", str(report)]) == 0


def test_run_is_deterministic(tmp_path):
    jobs_doc = [
        {"predicate": {"attribute": "b", "low": 0.2, "high": 0.5}, "projection": "all",
         "offer_rate": 0.25},
        {"predicate": {"attribute": "b", "low": 0.6, "high": 0.8}, "projection": ["b", "c"],
         "offer_rate": 0.25},
    ]
    outputs = []
    for run in ("one", "two"):
        base = tmp_path / run
        base.mkdir()
        root = gen_and_upload(base)
        jobs = write_jobs(base / "jobs.json", jobs_doc)
        report = base / "report"
        assert main(["run", "--root", str(root), "--jobs", str(jobs), "--report", str(report)]) == 0
        outputs.append(report.with_suffix(".csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_empty_jobs_file(tmp_path):
    root = gen_and_upload(tmp_path)
    jobs = write_jobs(tmp_path / "jobs.json", [])
    report = tmp_path / "report"
    assert main(["run", "--root", str(root), "--jobs", str(jobs), "--report", str(report)]) == 0
    with open(report.with_suffix(".csv")) as f:
        assert list(csv.DictReader(f)) == []


def test_job_failure_nonzero_exit_partial_report(tmp_path):
    root = gen_and_upload(tmp_path)
    jobs = write_jobs(
        tmp_path / "jobs.json",
        [
            {"id": "ok", "predicate": {"attribute": "b", "low": 0.1, "high": 0.2},
             "projection": "all", "offer_rate": 0.0},
            {"id": "bad", "predicate": {"attribute": "nope", "low": 0, "high": 1},
             "projection": "all", "offer_rate": 0.0},
            {"id": "never", "predicate": {"attribute": "b", "low": 0.1, "high": 0.2},
             "projection": "all", "offer_rate": 0.0},
        ],
    )
    report = tmp_path / "report"
    code = main(["run", "--root", str(root), "--jobs", str(jobs), "--report", str(report)])
    assert code == 1
    with open(report.with_suffix(".csv")) as f:
        rows = list(csv.DictReader(f))
    assert [r["job_id"] for r in rows] == ["ok", "bad"]  # partial report flushed
    assert rows[1]["failed"] == "True"


def test_unknown_policy_mode_exits_2(tmp_path, capsys):
    root = gen_and_upload(tmp_path)
    jobs = write_jobs(
        tmp_path / "jobs.json",
        [{"predicate": {"attribute": "b", "low": 0.1, "high": 0.2}, "projection": "all"}],
        policy={"mode": "eagre"},
    )
    report = tmp_path / "report"
    code = main(["run", "--root", str(root), "--jobs", str(jobs), "--report", str(report)])
    assert code == 2
    assert "error: unknown offer mode 'eagre'" in capsys.readouterr().err
    assert not report.with_suffix(".csv").exists()


def test_unknown_job_key_exits_2(tmp_path, capsys):
    root = gen_and_upload(tmp_path)
    # "mode" is a policy key; a job picks its mode through offer_rate, eager
    # or selectivity_threshold.
    jobs = write_jobs(
        tmp_path / "jobs.json",
        [{"predicate": {"attribute": "b", "low": 0.1, "high": 0.2}, "projection": "all",
          "mode": "selectivity"}],
    )
    report = tmp_path / "report"
    code = main(["run", "--root", str(root), "--jobs", str(jobs), "--report", str(report)])
    assert code == 2
    assert "error: unknown key 'mode' in job 1" in capsys.readouterr().err
    assert not report.with_suffix(".csv").exists()

    good = {"predicate": {"attribute": "b", "low": 0.1, "high": 0.2}, "projection": "all"}
    for bad, message in [
        ({"projection": "all"}, "job 2 needs a 'predicate' object"),
        ({"predicate": ["b", 0.1, 0.2]}, "job 2 needs a 'predicate' object"),
        ({"predicate": {"attribute": "b", "low": 0.1}}, "job 2: predicate needs 'high'"),
        ("job", "job 2 must be a JSON object"),
        (dict(good, rho="x"), "job 2: 'rho' must be a number, got 'x'"),
        (dict(good, projection=5), "job 2: 'projection' must be \"all\" or a list"),
        # Python's json reads NaN and Infinity; a NaN rate once crashed the
        # run with a traceback, and a NaN threshold offered nothing.
        (dict(good, offer_rate=float("nan")), "job 2: 'offer_rate' must be finite, got nan"),
        (dict(good, rho=float("inf")), "job 2: 'rho' must be finite, got inf"),
        (dict(good, selectivity_threshold=float("nan")),
         "job 2: 'selectivity_threshold' must be finite, got nan"),
        (dict(good, offer_rate=-3), "rho must be in [0, 1], got -3.0"),
        (dict(good, offer_rate=1.5), "rho must be in [0, 1], got 1.5"),
        (dict(good, selectivity_threshold=-0.1), "selectivity_threshold must be in [0, 1]"),
        # A truthy string once ran the job in eager mode, and 0 in constant mode.
        (dict(good, eager="false"), "job 2: 'eager' must be true or false, got 'false'"),
        (dict(good, eager=0), "job 2: 'eager' must be true or false, got 0"),
    ]:
        write_jobs(jobs, [good, bad])
        code = main(["run", "--root", str(root), "--jobs", str(jobs), "--report", str(report)])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not report.with_suffix(".csv").exists()


def test_unknown_policy_key_exits_2(tmp_path, capsys):
    root = gen_and_upload(tmp_path)
    eager = {"predicate": {"attribute": "b", "low": 0.1, "high": 0.2}, "projection": "all",
             "eager": True}
    jobs = write_jobs(
        tmp_path / "jobs.json",
        [{"predicate": {"attribute": "b", "low": 0.1, "high": 0.2}, "projection": "all"}],
        policy={"mode": "constant", "offer_rate": 0.5},
    )
    code = main(["run", "--root", str(root), "--jobs", str(jobs),
                 "--report", str(tmp_path / "report")])
    assert code == 2
    assert "error: unknown key 'offer_rate' in policy" in capsys.readouterr().err

    jobs.write_text(json.dumps({"polcy": {"mode": "eager"}, "jobs": []}))
    code = main(["run", "--root", str(root), "--jobs", str(jobs),
                 "--report", str(tmp_path / "report")])
    assert code == 2
    assert "error: unknown key 'polcy' in jobs file" in capsys.readouterr().err

    for raw, message in [
        ({"policy": {}}, "jobs file must be a list of jobs or {\"jobs\": [...]}"),
        (5, "jobs file must be a list of jobs"),
        ({"jobs": {"predicate": {}}}, "jobs file must be a list of jobs"),
        ({"policy": [], "jobs": []}, "'policy' in the jobs file must be a JSON object"),
        ({"policy": {"t_fsw": "x"}, "jobs": []}, "policy: 't_fsw' must be a number, got 'x'"),
        # A negative t_fsw once failed the first eager job after its
        # index-scan phase, and no report was written.
        ({"policy": {"t_fsw": -1}, "jobs": [eager]}, "policy 't_fsw' must be non-negative, got -1"),
        ({"policy": {"t_idx_overhead": -0.5}, "jobs": [eager]},
         "policy 't_idx_overhead' must be non-negative, got -0.5"),
        ({"policy": {"target_seconds": -2}, "jobs": [eager]},
         "policy 'target_seconds' must be non-negative, got -2"),
        ({"policy": {"target_seconds": float("nan")}, "jobs": [eager]},
         "policy: 'target_seconds' must be finite, got nan"),
        ({"policy": {"rho": float("-inf")}, "jobs": [eager]}, "policy: 'rho' must be finite"),
        ({"policy": {"rho": 2}, "jobs": [eager]}, "rho must be in [0, 1], got 2.0"),
        ({"policy": {"selectivity_threshold": 1.01}, "jobs": [eager]},
         "selectivity_threshold must be in [0, 1], got 1.01"),
    ]:
        jobs.write_text(json.dumps(raw))
        code = main(["run", "--root", str(root), "--jobs", str(jobs),
                     "--report", str(tmp_path / "report")])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    jobs.write_text('{"jobs": [')
    assert main(["run", "--root", str(root), "--jobs", str(jobs)]) == 2
    assert "is not valid JSON" in capsys.readouterr().err

    # A damaged calibration.json beside the registry, under an eager job.
    write_jobs(jobs, [{"predicate": {"attribute": "b", "low": 0.1, "high": 0.2},
                       "projection": "all", "eager": True}])
    calibration = root / "calibration.json"
    for text, message in [
        ('{"t_fsw": 0.1, "t_idx', "is not valid JSON"),
        ("[0.1, 0.2]", "must be a JSON object"),
        ('{"t_fsw": "fast"}', "'t_fsw' must be null or a non-negative number, got 'fast'"),
        ('{"t_target": true}', "'t_target' must be null or a non-negative number, got True"),
        ('{"t_idx_overhead": -1}', "'t_idx_overhead' must be null or a non-negative number"),
        ('{"t_fsw": Infinity}', "'t_fsw' must be finite, got inf"),
    ]:
        calibration.write_text(text)
        code = main(["run", "--root", str(root), "--jobs", str(jobs),
                     "--report", str(tmp_path / "report")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: calibration {calibration}") and message in err
    calibration.unlink()

    # The same malformed documents, read as run reports.
    for text, message in [
        ('{"jobs": [', "is not valid JSON"),
        ("{}", 'must be {"jobs": [<job objects>]}'),
        ('{"jobs": 5}', 'must be {"jobs": [<job objects>]}'),
        ('{"jobs": [5]}', 'must be {"jobs": [<job objects>]}'),
        ("[]", 'must be {"jobs": [<job objects>]}'),
    ]:
        jobs.write_text(text)
        assert main(["report", "--json", str(jobs)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: report {jobs} ") and message in err
    missing = tmp_path / "nope.json"
    assert main(["report", "--json", str(missing)]) == 2
    assert capsys.readouterr().err == f"error: report not found: {missing}\n"


def test_malformed_cluster_config_exits_2(tmp_path, capsys):
    data = tmp_path / "data.adxd"
    assert main(["gen-synthetic", "--rows", "1000", "--out", str(data)]) == 0
    config = tmp_path / "config.json"
    root = tmp_path / "cluster"
    for raw, message in [
        ({"slots_per_node": 2}, "needs 'nodes'"),
        ({"nodes": "2"}, "key 'nodes' in cluster config"),
        ({"nodes": 3, "block_records": 1.5}, "key 'block_records' in cluster config"),
        ({"nodes": 3, "projection_mode": None}, "key 'projection_mode' in cluster config"),
        ({"nodes": 3, "block_records": -5}, "block_records must be at least 1, got -5"),
        ({"nodes": 3, "block_records": 0}, "block_records must be at least 1, got 0"),
        ({"nodes": 3, "block_bytes": 0}, "block_bytes must be at least 1, got 0"),
        ({"nodes": 3, "page_size_records": 0}, "page_size_records must be at least 1"),
        ({"nodes": 3, "max_blocks_per_split": 0}, "max_blocks_per_split must be at least 1"),
        ({"nodes": 3, "per_byte_cost": -1e-8}, "per_byte_cost must be non-negative"),
        ({"nodes": 3, "per_byte_cost": float("nan")}, "per_byte_cost must be non-negative"),
        ({"nodes": 3, "per_block_index_cost": -0.5}, "per_block_index_cost must be non-negative"),
        # An infinite cost once wrote Infinity into calibration.json, and the
        # next eager job died on a NaN rate.
        ({"nodes": 3, "per_byte_cost": float("inf")},
         "per_byte_cost must be non-negative and finite, got inf"),
        ({"nodes": 3, "per_block_index_cost": float("inf")},
         "per_block_index_cost must be non-negative and finite, got inf"),
        ({"nodes": 2, "node_count": 3}, "keys 'nodes' and 'node_count' in cluster config"),
        ({"nodes": 3, "replication_factor": 2, "replication": 3},
         "keys 'replication_factor' and 'replication' in cluster config"),
        ([3], "must be a JSON object"),
    ]:
        config.write_text(json.dumps(raw))
        code = main(["upload", "--dataset", str(data), "--root", str(root), "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not root.exists()

    write_config(config)
    missing = tmp_path / "nope"
    for dataset, cfg, message in [
        (missing, config, f"error: dataset not found: {missing}"),
        (data, missing, f"error: cluster config not found: {missing}"),
    ]:
        code = main(["upload", "--dataset", str(dataset), "--root", str(root), "--config", str(cfg)])
        assert code == 2
        assert capsys.readouterr().err == message + "\n"
        assert not root.exists()

    # A second upload into a root that holds a dataset leaves it untouched.
    upload = ["upload", "--dataset", str(data), "--root", str(root), "--config", str(config)]
    assert main(upload) == 0
    before = [(root / name).read_bytes() for name in ("cluster.json", "registry.journal")]
    write_config(config, replication=3)
    assert main(upload) == 2
    assert capsys.readouterr().err == f"error: cluster {root} already holds a dataset\n"
    assert [(root / name).read_bytes() for name in ("cluster.json", "registry.journal")] == before
    jobs = write_jobs(
        tmp_path / "jobs.json",
        [{"predicate": {"attribute": "b", "low": 0.1, "high": 0.3}, "projection": "all",
          "offer_rate": 0.5}],
    )
    assert main(["run", "--root", str(root), "--jobs", str(jobs),
                 "--report", str(tmp_path / "report")]) == 0


@pytest.mark.parametrize("keep", [10, 200, -8 * 10, -3])
def test_truncated_dataset_upload_exits_2(tmp_path, capsys, keep):
    data = tmp_path / "data.adxd"
    assert main(["gen-synthetic", "--rows", "1000", "--out", str(data)]) == 0
    data.write_bytes(data.read_bytes()[:keep])
    root = tmp_path / "cluster"
    config = write_config(tmp_path / "config.json")
    code = main(["upload", "--dataset", str(data), "--root", str(root), "--config", str(config)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: truncated block file")
    assert not root.exists()


def test_upload_of_a_dataset_with_a_path_as_attribute_name_exits_2(tmp_path, capsys):
    # Pseudo replicas are stored at pseudo/blk_<id>/<attribute>, so such a
    # name would put them outside every pseudo directory, all at one path.
    data = tmp_path / "data.adxd"
    placeholder, name = b"zzzzzzzzzzzzzzzz", b"../../../escaped"
    Dataset(Schema.of(("a", "int64"), (placeholder.decode(), "float64")),
            {"a": np.arange(1000), placeholder.decode(): np.linspace(0, 1, 1000)}).to_file(data)
    raw = data.read_bytes()
    assert raw.count(placeholder) == 1
    data.write_bytes(raw.replace(placeholder, name))
    config = write_config(tmp_path / "config.json", nodes=2, replication=1)
    (tmp_path / "work").mkdir()
    root = tmp_path / "work" / "deep" / "cluster"
    before = sorted(tmp_path.rglob("*"))
    code = main(["upload", "--dataset", str(data), "--root", str(root), "--config", str(config)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: attribute name '../../../escaped' is not a valid file name\n"
    )
    assert sorted(tmp_path.rglob("*")) == before


def test_run_without_upload_fails(tmp_path, capsys):
    (tmp_path / "cluster").mkdir()
    write_config(tmp_path / "config.json")
    # config exists but no dataset was uploaded
    from adaptidx.cluster import ClusterConfig, Cluster

    Cluster(ClusterConfig.from_file(tmp_path / "config.json"), tmp_path / "cluster").close()
    jobs = write_jobs(tmp_path / "jobs.json", [])
    code = main(["run", "--root", str(tmp_path / "cluster"), "--jobs", str(jobs)])
    assert code == 2
    assert "error: no dataset uploaded under" in capsys.readouterr().err

    missing, report = tmp_path / "nothere", tmp_path / "report"
    for root, jobs_file, message in [
        (missing, jobs, f"cluster config not found: {missing / 'cluster.json'}"),
        (tmp_path / "cluster", missing, f"jobs file not found: {missing}"),
    ]:
        code = main(["run", "--root", str(root), "--jobs", str(jobs_file),
                     "--report", str(report)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not report.with_suffix(".csv").exists()
    assert not missing.exists()


def test_upload_with_index_attrs_enables_index_scans(tmp_path):
    root = gen_and_upload(tmp_path, index_attrs="a,b")
    jobs = write_jobs(
        tmp_path / "jobs.json",
        [{"predicate": {"attribute": "a", "low": 10, "high": 10}, "projection": "all",
          "offer_rate": 0.0}],
    )
    report = tmp_path / "report"
    assert main(["run", "--root", str(root), "--jobs", str(jobs), "--report", str(report)]) == 0
    with open(report.with_suffix(".json")) as f:
        data = json.load(f)
    job = data["jobs"][0]
    assert job["full_scan_tasks"] == 0
    assert job["blocks_indexed_before"] == job["blocks_total"]


def test_uservisits_string_predicate_pipeline(tmp_path):
    data = tmp_path / "uv.adxd"
    assert main(["gen-uservisits", "--rows", "20000", "--seed", "3", "--out", str(data)]) == 0
    config = write_config(tmp_path / "config.json", block_records=2000)
    root = tmp_path / "cluster"
    assert main(["upload", "--dataset", str(data), "--root", str(root), "--config", str(config)]) == 0
    jobs = write_jobs(
        tmp_path / "jobs.json",
        [
            {"id": "words", "predicate": {"attribute": "search_word",
                                          "low": "w_00100", "high": "w_00101"},
             "projection": ["search_word", "duration"], "offer_rate": 1.0},
            {"id": "again", "predicate": {"attribute": "search_word",
                                          "low": "w_00100", "high": "w_00101"},
             "projection": ["search_word", "duration"], "offer_rate": 0.0},
        ],
    )
    report = tmp_path / "report"
    assert main(["run", "--root", str(root), "--jobs", str(jobs), "--report", str(report)]) == 0
    with open(report.with_suffix(".json")) as f:
        rows = json.load(f)["jobs"]
    emitted = rows[0]["records_emitted"]
    assert emitted == rows[1]["records_emitted"]  # index scans emit the same rows
    assert 0.0035 * 20000 <= emitted <= 0.0045 * 20000  # ~0.4% of rows
    assert rows[1]["full_scan_tasks"] == 0
    assert rows[1]["bytes_read"] < rows[0]["bytes_read"]


def test_eager_and_selectivity_job_parsing(tmp_path):
    root = gen_and_upload(tmp_path)
    jobs = write_jobs(
        tmp_path / "jobs.json",
        [
            {"id": "e1", "predicate": {"attribute": "b", "low": 0.0, "high": 0.1},
             "projection": "all", "eager": True, "rho": 0.25},
            {"id": "e2", "predicate": {"attribute": "b", "low": 0.2, "high": 0.3},
             "projection": "all", "eager": True},
            {"id": "s1", "predicate": {"attribute": "a", "low": 10, "high": 10},
             "projection": "all", "selectivity_threshold": 0.8},
        ],
    )
    report = tmp_path / "report"
    assert main(["run", "--root", str(root), "--jobs", str(jobs), "--report", str(report)]) == 0
    with open(report.with_suffix(".json")) as f:
        rows = json.load(f)["jobs"]
    assert rows[0]["mode"] == "eager"
    assert rows[1]["mode"] == "eager"
    assert rows[2]["mode"] == "selectivity"
    assert rows[2]["rho_used"] is None
    # value 10 covers ~90% of rows: every scanned block clears the 0.8 threshold
    assert rows[2]["blocks_offered"] == rows[2]["full_scan_tasks"]


def test_cluster_uploaded_with_relative_root_runs_from_another_directory(tmp_path, monkeypatch):
    data = tmp_path / "data.adxd"
    assert main(["gen-synthetic", "--rows", "4000", "--seed", "7", "--out", str(data)]) == 0
    config = write_config(tmp_path / "config.json")
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    monkeypatch.chdir(tmp_path / "a")
    upload = ["upload", "--dataset", str(data), "--root", "cl", "--config", str(config)]
    assert main(upload) == 0

    monkeypatch.chdir(tmp_path / "b")
    jobs = write_jobs(
        tmp_path / "jobs.json",
        [{"predicate": {"attribute": "b", "low": 0.1, "high": 0.3}, "projection": "all",
          "offer_rate": 0.5}] * 2,
    )
    code = main(["run", "--root", "../a/cl", "--jobs", str(jobs), "--report", "report"])
    assert code == 0
    with open("report.csv") as f:
        rows = list(csv.DictReader(f))
    assert [r["failed"] for r in rows] == ["False", "False"]
    assert int(rows[1]["blocks_indexed_after"]) == 8

    # The pseudo replicas the run registered reopen from yet another directory.
    monkeypatch.chdir(tmp_path)
    code = main(["run", "--root", "a/cl", "--jobs", str(jobs), "--report", "again"])
    assert code == 0
    with open("again.csv") as f:
        rows = list(csv.DictReader(f))
    assert rows[0]["index_scan_tasks"] != "0" and rows[0]["failed"] == "False"


def _run_args(tmp_path, root):
    jobs = write_jobs(
        tmp_path / "jobs.json",
        [{"predicate": {"attribute": "b", "low": 0.1, "high": 0.3}, "offer_rate": 0.5}],
    )
    return ["run", "--root", str(root), "--jobs", str(jobs), "--report", str(tmp_path / "r")]


def test_a_pre_marker_journal_exits_2_naming_it(tmp_path, capsys):
    # Engines before the `paths` marker journaled replica paths as given.
    root = gen_and_upload(tmp_path)
    journal = root / "registry.journal"
    records = [json.loads(line) for line in journal.read_text().splitlines()]
    del records[0]["paths"]
    journal.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    before = journal.read_bytes()
    capsys.readouterr()
    assert main(_run_args(tmp_path, root)) == 2
    assert capsys.readouterr().err == (
        f"error: journal {journal} predates its path marker; cannot open it\n"
    )
    assert journal.read_bytes() == before


def test_a_malformed_journal_record_exits_2_naming_its_line(tmp_path, capsys):
    root = gen_and_upload(tmp_path)
    journal = root / "registry.journal"
    with open(journal, "a") as f:
        f.write('{"event": "register", "block_id": 0}\n')
    line = len(journal.read_text().splitlines())
    before = journal.read_bytes()
    capsys.readouterr()
    assert main(_run_args(tmp_path, root)) == 2
    assert capsys.readouterr().err == (
        f"error: journal {journal} line {line} is malformed: KeyError: 'replica'\n"
    )
    assert journal.read_bytes() == before


def test_a_journal_replica_on_a_node_the_config_lacks_exits_2_naming_it(tmp_path, capsys):
    # The journal loads; before, `run` then died with a raw KeyError from
    # the wave that looked up node 7's indexer.
    root = gen_and_upload(tmp_path)
    journal = root / "registry.journal"
    replica = {"node_id": 7, "kind": "pseudo", "indexed_attribute": "b",
               "available_attributes": ["a", "b", "c", "d", "e", "f"],
               "path": "node_7/pseudo/blk_0/b"}
    with open(journal, "a") as f:
        f.write(json.dumps({"event": "register", "block_id": 0, "replica": replica}) + "\n")
    before = journal.read_bytes()
    capsys.readouterr()
    assert main(_run_args(tmp_path, root)) == 2
    assert capsys.readouterr().err == (
        f"error: block 0 has a replica on node 7, which cluster {root} lacks\n"
    )
    assert journal.read_bytes() == before
    assert not (root / "node_7").exists()


@pytest.mark.parametrize("key", ["balance_total_index_counts", "build_queue_capacity"])
def test_a_retired_cluster_config_key_exits_2_as_unknown(tmp_path, capsys, key):
    root = gen_and_upload(tmp_path)
    config = root / "cluster.json"
    config.write_text(json.dumps({**json.loads(config.read_text()), key: 4}))
    capsys.readouterr()
    assert main(_run_args(tmp_path, root)) == 2
    assert capsys.readouterr().err == f"error: unknown key {key!r} in cluster config {config}\n"


def test_fractional_and_infinite_int64_bounds_run_and_nan_fails_the_job(tmp_path, capsys):
    from adaptidx.workloads import Dataset

    root = gen_and_upload(tmp_path, index_attrs="a")
    column = Dataset.from_file(tmp_path / "data.adxd").columns["a"]
    cases = [(9.2, float("inf")), (float("-inf"), 9.5), (9.2, 9.9)]
    jobs = write_jobs(
        tmp_path / "jobs.json",
        [{"id": f"j{i}", "predicate": {"attribute": "a", "low": lo, "high": hi},
          "projection": "all", "offer_rate": 0.0} for i, (lo, hi) in enumerate(cases)],
    )
    assert "Infinity" in jobs.read_text()
    report = tmp_path / "report"
    assert main(["run", "--root", str(root), "--jobs", str(jobs), "--report", str(report)]) == 0
    with open(report.with_suffix(".json")) as f:
        rows = json.load(f)["jobs"]
    expected = [int(((column >= lo) & (column <= hi)).sum()) for lo, hi in cases]
    assert [r["records_emitted"] for r in rows] == expected
    assert expected[0] > 0 and expected[1] > 0 and expected[2] == 0

    jobs = write_jobs(
        tmp_path / "nan.json",
        [{"id": "nan", "predicate": {"attribute": "a", "low": float("nan"), "high": 3},
          "projection": "all"}],
    )
    capsys.readouterr()
    assert main(["run", "--root", str(root), "--jobs", str(jobs), "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert "nan failed: NaN bound for int64 attribute 'a'" in err
    assert "Traceback" not in err


def test_a_bound_of_the_wrong_type_fails_the_job_and_names_the_bound(tmp_path, capsys):
    root = gen_and_upload(tmp_path)
    jobs = write_jobs(
        tmp_path / "jobs.json",
        [{"id": "text", "predicate": {"attribute": "b", "low": "0.1", "high": 0.2},
          "projection": "all"}],
    )
    capsys.readouterr()
    report = tmp_path / "report"
    assert main(["run", "--root", str(root), "--jobs", str(jobs), "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert "text failed: cannot compare '0.1' with float64 attribute 'b'" in err
    assert "Traceback" not in err


def test_run_repairs_a_crashed_cluster_directory(tmp_path):
    root = gen_and_upload(tmp_path)  # 8 blocks
    journal = root / "registry.journal"
    uploaded = journal.stat().st_size
    jobs = write_jobs(
        tmp_path / "jobs.json",
        [{"predicate": {"attribute": "b", "low": 0.1, "high": 0.3}, "projection": "all",
          "offer_rate": 0.5}],
    )
    run = ["run", "--root", str(root), "--jobs", str(jobs), "--report"]
    assert main([*run, str(tmp_path / "first")]) == 0
    # A crash lost the job's journal lines, mid-append of the first, and
    # left a temp file beside one of its four replicas.
    lines = journal.read_bytes()[uploaded:]
    with open(journal, "r+b") as f:
        f.truncate(uploaded)
        f.seek(uploaded)
        f.write(lines[:40])
    orphans = sorted(root.glob("node_*/pseudo/blk_*/b"))
    assert len(orphans) == 4
    orphans[0].with_name(".b.tmp").write_bytes(b"half a replica")

    assert main([*run, str(tmp_path / "second")]) == 0
    with open(tmp_path / "second.csv") as f:
        (row,) = csv.DictReader(f)
    assert (row["blocks_indexed_before"], row["blocks_indexed_after"]) == ("4", "8")
    assert not list(root.rglob(".*"))
    assert journal.read_bytes().endswith(b"\n")
    registry = ReplicaRegistry.load(journal)
    assert registry.indexed_block_count("b") == 8 == len(list(root.glob("node_*/pseudo/blk_*/b")))


def test_run_plan_dump_prints_each_jobs_planned_blocks_before_its_summary(tmp_path, capsys):
    root = gen_and_upload(tmp_path)
    first = {"id": "first", "predicate": {"attribute": "b", "low": 0.1, "high": 0.3},
             "projection": "all", "offer_rate": 0.5}
    jobs = write_jobs(tmp_path / "jobs.json", [first])
    report = tmp_path / "report"
    assert main(["run", "--root", str(root), "--jobs", str(jobs), "--report", str(report)]) == 0
    capsys.readouterr()

    # Half the blocks are indexed on b now, so the next plan has both kinds.
    cluster = Cluster.open(root)
    try:
        job = JobSpec("second", Predicate("b", 0.4, 0.6), ("b",))
        plan = plan_job(job, cluster.registry,
                        max_blocks_per_split=cluster.config.max_blocks_per_split)
        blocks = cluster.registry.block_count
    finally:
        cluster.close()
    expected = format_plan(plan).splitlines()
    assert len(expected) == blocks
    assert {line.split()[2] for line in expected} == {"kind=index", "kind=full"}

    # A job that fails validation has no plan, so no plan line.
    second = dict(first, id="second", predicate={"attribute": "b", "low": 0.4, "high": 0.6})
    bad = dict(first, id="bad", predicate={"attribute": "zz", "low": 0, "high": 1})
    write_jobs(jobs, [second, bad])
    code = main(["run", "--root", str(root), "--jobs", str(jobs), "--report", str(report),
                 "--plan-dump"])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:blocks] == expected
    assert all(re.fullmatch(r"block=\d+ node=\d+ kind=(index|full)", line) for line in expected)
    assert lines[blocks].startswith("second: indexed ")
    assert lines[blocks + 1].startswith("bad: indexed ")
    assert lines[blocks + 2].startswith("report: ") and len(lines) == blocks + 3


_BLOCKS = 20  # of the property's dataset: 2_000 rows of 100
_COSTS = st.sampled_from([0.0, 1e-8, 0.05, sys.float_info.max]) | st.floats(0, sys.float_info.max)
# 0, 1, the subnormals and one ulp either side of each block boundary k / _BLOCKS
_RATES = st.sampled_from([0.0, 1.0, 5e-324, 1e-320]) | st.integers(1, _BLOCKS - 1).flatmap(
    lambda k: st.sampled_from([math.nextafter(k / _BLOCKS, 0), k / _BLOCKS,
                               math.nextafter(k / _BLOCKS, 1)])
)
_MODES = ("offer_rate", "eager", "selectivity_threshold")


@pytest.fixture(scope="module")
def property_dataset(tmp_path_factory):
    data = tmp_path_factory.mktemp("property") / "data.adxd"
    assert main(["gen-synthetic", "--rows", "2000", "--seed", "5", "--out", str(data)]) == 0
    return data


@settings(max_examples=12, deadline=None)
@given(
    costs=st.tuples(_COSTS, _COSTS),
    slots=st.integers(1, 2),
    jobs=st.lists(st.tuples(st.sampled_from(_MODES), _RATES), min_size=1, max_size=2),
    policy=st.fixed_dictionaries(
        {}, optional={"t_fsw": _COSTS, "t_idx_overhead": _COSTS, "target_seconds": _COSTS}
    ),
)
@example(costs=(1e-8, 0.05), slots=1, jobs=[("offer_rate", 1e-320), ("offer_rate", 0.3)],
         policy={})
@example(costs=(1e-8, sys.float_info.max), slots=1, jobs=[("offer_rate", 0.5)], policy={})
@example(costs=(sys.float_info.max, 0.05), slots=1, jobs=[("eager", 0.5)], policy={})
@example(costs=(sys.float_info.max, 0.05), slots=1, jobs=[("offer_rate", 0.5), ("eager", 0.5)],
         policy={"t_fsw": 1.0, "t_idx_overhead": 1.0, "target_seconds": 1.0})
@example(costs=(1e-8, 0.05), slots=2, jobs=[("eager", 0.5)],
         policy={"t_fsw": sys.float_info.max, "t_idx_overhead": sys.float_info.max,
                 "target_seconds": sys.float_info.max})
def test_whatever_a_run_writes_reopens_and_reports(property_dataset, costs, slots, jobs, policy):
    # Any public input a run accepts leaves a cluster directory and a report
    # that every later command can read.
    per_byte_cost, per_block_index_cost = costs
    docs = [
        {"predicate": {"attribute": "b", "low": 0.1 * j, "high": 0.1 * j + 0.05},
         "projection": "all", "rho": rate} | {mode: True if mode == "eager" else rate}
        for j, (mode, rate) in enumerate(jobs)
    ]
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        config = write_config(work / "config.json", slots_per_node=slots, block_records=100,
                              per_byte_cost=per_byte_cost,
                              per_block_index_cost=per_block_index_cost)
        root, report = work / "cluster", work / "report"
        assert main(["upload", "--dataset", str(property_dataset), "--root", str(root),
                     "--config", str(config)]) == 0
        write_jobs(work / "jobs.json", docs, policy)
        assert main(["run", "--root", str(root), "--jobs", str(work / "jobs.json"),
                     "--report", str(report)]) == 0
        cluster = Cluster.open(root)
        try:
            WorkloadRunner(cluster)
        finally:
            cluster.close()
        assert main(["report", "--json", f"{report}.json"]) == 0


def test_report_of_a_run_with_no_jobs_says_it_is_empty(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"jobs": []}))
    assert main(["report", "--json", str(report)]) == 0
    assert capsys.readouterr().out == "empty report\n"
