#!/usr/bin/env python3
"""Hash the outputs the benchmark's workloads leave behind, for one source tree.

Runs each workload of the tree's `bench/suite.py` once through its
`bench/run.py` `run_rep`, on the tree's own `src/`, into a new temporary
directory, and writes the jobs' reports there with `write_reports`. Then it
prints, per workload, the number of files and one sha256 over every file's
path (relative to that directory) and bytes, in path order: the CSV and
JSON reports, `registry.journal`, `cluster.json`, `calibration.json` when a
job wrote one, the block files and `pseudo/`. The last line is the digest
over all workloads. Nothing is written under the tree.

Two trees whose outputs are byte-identical print the same lines. With
`--base REV`, the script compares a git revision of this repository with
`--src` in one command: it extracts REV with `git archive` into a temporary
directory, hashes that tree and `--src` each in a subprocess of its own,
prints both sets of lines, then `identical`, or `differ:` and the workloads
whose digests differ, and exits 1 on a difference:

    python scripts/hash_outputs.py --base HEAD~1

Usage: python scripts/hash_outputs.py [--src DIR] [--base REV] [--size full|tiny] [--seed 7]
"""

import argparse
import hashlib
import importlib.util
import io
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


class _NoGauge:
    """Stands in for the benchmark's host-speed gauge: nothing here is timed."""

    def sample(self, n: int = 1) -> None:
        pass


def _load_bench(src: Path):
    """The tree's `bench/run.py` as a module, with its `src/` and `bench/`
    first on the path; raises SystemExit if `adaptidx` comes from elsewhere."""
    sys.path.insert(0, str(src / "bench"))
    spec = importlib.util.spec_from_file_location("hash_outputs_bench_run", src / "bench" / "run.py")
    run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(run)
    run.load_engine()
    return run


def digest_tree(root: Path, digest) -> int:
    """Feed every file under `root` to `digest`, in path order; returns the count."""
    files = sorted(p for p in root.rglob("*") if p.is_file())
    for path in files:
        name = path.relative_to(root).as_posix().encode()
        data = path.read_bytes()
        digest.update(b"%d:%s%d:" % (len(name), name, len(data)))
        digest.update(data)
    return len(files)


def compare(base: str, src: Path, size: str, seed: int) -> int:
    """Print the digests of revision `base` and of tree `src`, then whether
    they are identical; returns 0 if they are, else 1."""
    digests = []
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(REPO), "archive", base],
                                 check=True, stdout=subprocess.PIPE).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        for label, tree in ((f"base {base}", Path(tmp)), (f"src {src}", src)):
            out = subprocess.run(
                [sys.executable, __file__, "--src", str(tree), "--size", size, "--seed", str(seed)],
                check=True, stdout=subprocess.PIPE, text=True,
            ).stdout
            print(label)
            print(out, end="")
            digests.append(dict(line.split(" ", 1) for line in out.splitlines()))
    old, new = digests
    differ = sorted(n for n in old.keys() | new.keys() if n != "all" and old.get(n) != new.get(n))
    print("differ: " + " ".join(differ) if differ else "identical")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=REPO,
                        help="the source tree whose bench/ and src/ run (default: this one)")
    parser.add_argument("--base", metavar="REV",
                        help="also hash git revision REV of this repository and compare")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.base is not None:
        return compare(args.base, args.src.resolve(), args.size, args.seed)

    run = _load_bench(args.src.resolve())
    from suite import WORKLOADS
    from adaptidx.runner import WorkloadRunner, write_reports

    # Keep each job's metrics, which the reports are written from; the run
    # itself is unchanged.
    metrics = []
    run_job = WorkloadRunner.run_job

    def recording(self, *a, **kw):
        outcome = run_job(self, *a, **kw)
        metrics.append(outcome.metrics)
        return outcome

    total, count = hashlib.sha256(), 0
    WorkloadRunner.run_job = recording
    try:
        for name, workload in sorted(WORKLOADS.items()):
            metrics.clear()
            with tempfile.TemporaryDirectory() as work:
                work = Path(work)
                rep = run.run_rep(workload, args.seed, args.size, work / "cluster", _NoGauge())
                for failure in rep.failures:  # the benchmark's own output check
                    print(f"{name}: FAIL {failure}", file=sys.stderr)
                write_reports(metrics, work / "report")
                digest = hashlib.sha256()
                files = digest_tree(work, digest)
            print(f"{name} {files} files sha256 {digest.hexdigest()}")
            total.update(f"{name} {files} {digest.hexdigest()}\n".encode())
            count += files
    finally:
        WorkloadRunner.run_job = run_job
    print(f"all {count} files sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
