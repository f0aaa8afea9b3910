#!/usr/bin/env python3
"""List the function-body lines of `src/adaptidx` that no run executes.

By default the script traces, in this one process, the runs that use the
package outside its tests:

- every workload of `BENCHMARK.json` through `bench/run.py --size tiny
  --seconds 1`, untraced and with `--trace 1`;
- each experiment script at the small sizes its smoke test uses, each with
  a temporary `--workdir`;
- a CLI session: `gen-synthetic`, `gen-uservisits`, `upload` with and
  without `--index-attrs`, `run` of constant, eager and selectivity jobs with
  `--plan-dump` on an invisible and a lazy cluster, and `report`.

With `--tests` it traces `pytest -q tests` instead, from a temporary working
directory.

`sys.settrace` and `threading.settrace` record the line events of every frame
whose code lives under `src/adaptidx`. A statement of a function body (its
docstring aside) counts as run when an event fired on one of its own lines:
all of a simple statement's lines, or a compound statement's header, up to
its first inner statement. A nested function's body counts as its own.

Per module, the script prints each unrun line with its function and source;
its last line is a JSON summary. The runs' own output goes to stderr. It
removes its temporary directories and writes nothing into the tree, apart
from what `bench/run.py` leaves under `.bench_work/`.

Usage: python scripts/line_census.py [--tests]
"""

import argparse
import ast
import contextlib
import importlib.util
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "adaptidx"
# The sizes `tests/test_scripts.py` runs the experiment scripts at.
EXPERIMENTS = {
    "run_convergence.py": ["--rows", "4000", "--jobs", "2"],
    "run_projection_sweep.py": ["--rows", "2000"],
    "run_eager.py": ["--jobs", "2"],
}


def trace(runs) -> tuple[set, dict]:
    """Call each `(name, fn)` of `runs` under the tracer, with its stdout sent
    to stderr; returns the (file, line) pairs executed under the package and
    each run's outcome: its return value, or the exception it raised."""
    prefix = str(PACKAGE) + os.sep
    executed: set = set()
    ours: dict = {}  # co_filename -> resolved path under the package, or None

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            path = os.path.realpath(name)
            ours[name] = path if path.startswith(prefix) else None
        return local if ours[name] else None

    outcomes = {}
    outer = sys.gettrace(), threading.gettrace()  # a census that runs this one
    for name, fn in runs:
        print(f"census: {name}", file=sys.stderr)
        threading.settrace(tracer)
        sys.settrace(tracer)
        try:
            with contextlib.redirect_stdout(sys.stderr):
                outcomes[name] = repr(fn())
        except (Exception, SystemExit) as exc:  # a failed run is reported, not fatal
            outcomes[name] = f"{type(exc).__name__}: {exc}"
        finally:
            sys.settrace(outer[0])
            threading.settrace(outer[1])
    return {(ours[f], line) for f, line in executed}, outcomes


def _own_lines(stmt: ast.stmt) -> range:
    """The lines whose events show that `stmt` itself ran."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(first, body[0].lineno)
    return range(first, stmt.end_lineno + 1)


def function_lines(tree: ast.Module) -> list[tuple[int, str, ast.stmt]]:
    """(line, function, statement) for each function-body statement of a
    module, in source order. Docstrings, other constant expressions and
    `global`/`nonlocal` declarations are left out: they compile to no code."""
    out = []

    def body_of(stmts, scope, in_function):
        for stmt in stmts:
            constant = isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            if constant or isinstance(stmt, (ast.Global, ast.Nonlocal)):
                continue
            if in_function:
                out.append((stmt.lineno, scope, stmt))
            visit(stmt, scope, in_function)

    def visit(node, scope, in_function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{scope}.{node.name}" if scope else node.name
            body_of(node.body, name, not isinstance(node, ast.ClassDef))
            return
        for field in ("body", "orelse", "finalbody"):
            body_of(getattr(node, field, None) or [], scope, in_function)
        for inner in getattr(node, "handlers", []) + getattr(node, "cases", []):
            body_of(inner.body, scope, in_function)

    body_of(tree.body, "", False)
    return sorted(out, key=lambda item: item[0])


def unrun(executed: set) -> dict[str, tuple[int, list[tuple[int, str, str]]]]:
    """Per module of the package: its count of function-body statements, and
    (line, function, source) of each that `executed` holds no own line of."""
    result = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        key = str(path.resolve())
        statements = function_lines(ast.parse(source))
        missing = [
            (line, function, lines[line - 1].strip())
            for line, function, stmt in statements
            if not any((key, n) in executed for n in _own_lines(stmt))
        ]
        result[path.name] = (len(statements), missing)
    return result


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def _bench_run(workload: str, traced: int):
    if str(REPO / "bench") not in sys.path:  # for run.py's own imports
        sys.path.insert(0, str(REPO / "bench"))
    run = _load(REPO / "bench" / "run.py", "line_census_bench_run")
    return run.main(["--workload", workload, "--seed", "1", "--seconds", "1",
                     "--size", "tiny", "--trace", str(traced)])


def _experiment(name: str, args: list[str]):
    main = _load(REPO / "scripts" / name, f"line_census_{Path(name).stem}").main
    argv = sys.argv
    with tempfile.TemporaryDirectory() as workdir:
        sys.argv = [name, "--workdir", workdir, *args]
        try:
            return main()
        finally:
            sys.argv = argv


def cli_session(workdir: Path, rows: int = 4000) -> list[int]:
    """Drive `adaptidx` through a session in `workdir`; returns the exit
    status of each command."""
    from adaptidx.cli import main

    workdir = Path(workdir)
    synthetic, visits = workdir / "synthetic.bin", workdir / "visits.bin"
    codes = [
        main(["gen-synthetic", "--rows", str(rows), "--seed", "1", "--out", str(synthetic)]),
        main(["gen-uservisits", "--rows", str(rows), "--seed", "1", "--out", str(visits)]),
    ]
    # Per dataset, two jobs files: a list, then a document with a policy,
    # so the second `run` also reloads the first one's calibration.
    jobs = {
        "synthetic": (
            [{"predicate": {"attribute": "a", "low": 0, "high": 400}, "projection": ["a", "b"],
              "offer_rate": 0.5}],
            {"policy": {"mode": "eager", "rho": 0.2, "target_seconds": 1.0},
             "jobs": [{"predicate": {"attribute": "b", "low": 0.1, "high": 0.2}, "eager": True},
                      {"predicate": {"attribute": "c", "low": 0.0, "high": 0.9},
                       "projection": ["c"], "selectivity_threshold": 0.5}]},
        ),
        "visits": (
            [{"predicate": {"attribute": "duration", "low": 1, "high": 2000},
              "projection": ["duration", "ad_revenue"], "offer_rate": 1.0}],
            {"policy": {"rho": 0.5},
             "jobs": [{"predicate": {"attribute": "duration", "low": 1, "high": 2000},
                       "projection": ["duration", "country_code"], "eager": True},
                      {"predicate": {"attribute": "visit_date", "low": "2011-03-01",
                                     "high": "2011-06-28"},
                       "projection": ["ad_revenue"], "selectivity_threshold": 0.5}]},
        ),
    }
    clusters = [("invisible", synthetic, "synthetic", ""), ("lazy", visits, "visits", "visit_date")]
    for mode, dataset, name, index_attrs in clusters:
        root = workdir / mode
        config = workdir / f"{mode}.json"
        config.write_text(json.dumps({"node_count": 3, "replication_factor": 2,
                                      "block_records": max(rows // 8, 1),
                                      "page_size_records": 64,
                                      "projection_mode": mode}))
        codes.append(main(["upload", "--dataset", str(dataset), "--root", str(root),
                           "--config", str(config), "--index-attrs", index_attrs]))
        for i, doc in enumerate(jobs[name]):
            jobs_file = workdir / f"{name}_jobs{i}.json"
            jobs_file.write_text(json.dumps(doc))
            report = workdir / f"{mode}_report{i}"
            codes.append(main(["run", "--root", str(root), "--jobs", str(jobs_file),
                               "--report", str(report), "--plan-dump"]))
            codes.append(main(["report", "--json", f"{report}.json"]))
    return codes


def _with_tempdir(fn):
    def run():
        with tempfile.TemporaryDirectory() as workdir:
            return fn(Path(workdir))
    return run


def _pytest(workdir: Path):
    import pytest

    cwd = os.getcwd()
    os.chdir(workdir)  # so the test run's caches land in the temporary directory
    try:
        return int(pytest.main(["-q", "-p", "no:cacheprovider", str(REPO / "tests")]))
    finally:
        os.chdir(cwd)


def default_runs() -> list:
    workloads = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]
    runs = [(f"bench {w} trace={t}", lambda w=w, t=t: _bench_run(w, t))
            for w in workloads for t in (0, 1)]
    runs += [(name, lambda name=name, args=args: _experiment(name, args))
             for name, args in EXPERIMENTS.items()]
    runs.append(("cli session", _with_tempdir(cli_session)))
    return runs


def report(executed: set, outcomes: dict) -> None:
    """Print each module's unrun lines, then the JSON summary."""
    modules = {}
    total = 0
    for name, (count, missing) in unrun(executed).items():
        total += count
        modules[name] = len(missing)
        print(f"{name}: {len(missing)} of {count} function-body lines unrun")
        for line, function, source in missing:
            print(f"  {line:>5}  {function}  {source}")
    print(json.dumps({"runs": outcomes, "function_lines": total,
                      "unrun": sum(modules.values()), "modules": modules}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tests", action="store_true", help="trace `pytest -q tests` instead")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(REPO / "src"))  # imported by the first run, under the tracer
    runs = [("pytest tests", _with_tempdir(_pytest))] if args.tests else default_runs()
    report(*trace(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
