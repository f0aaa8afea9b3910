"""The scripts import only names the library still provides, the experiment
scripts run end to end on small inputs, the line counter partitions every
line of the package and compares it with a revision, the output hasher
gives one tree one digest, and the line census tells run lines from unrun
ones."""

import ast
import importlib.util
import io
import subprocess
import sys
import tarfile
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((REPO / "scripts").glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # main() only runs under __main__
    return module


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    assert callable(_load(path).main)


@pytest.mark.parametrize(
    "name, args, header, reports",
    [
        ("run_convergence.py", ["--rows", "4000", "--jobs", "2"], "rate job1 job2",
         [f"convergence_rho_{rho}.csv" for rho in ("0.1", "0.25", "0.5", "1.0")]),
        ("run_projection_sweep.py", ["--rows", "2000"], "projected attributes byte share overhead",
         []),
        ("run_eager.py", ["--jobs", "2"], "job eager rate 0.1 rate 1.0", []),
    ],
    ids=["convergence", "projection_sweep", "eager"],
)
def test_experiment_script_runs_end_to_end(
    tmp_path, monkeypatch, capsys, name, args, header, reports
):
    main = _load(REPO / "scripts" / name).main
    monkeypatch.setattr(sys, "argv", [name, "--workdir", str(tmp_path), *args])
    main()
    lines = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()]
    assert header in lines
    # One CSV report per rate: a dotted name once lost its rate to the suffix.
    assert sorted(p.name for p in (tmp_path / "reports").glob("*.csv")) == reports


def test_line_counts_partition_every_module():
    count_lines = _load(REPO / "scripts" / "count_lines.py").count_lines
    modules = sorted((REPO / "src" / "adaptidx").glob("*.py"))
    assert modules
    for path in modules:
        source = path.read_text()
        counts = count_lines(source)
        assert sum(counts.values()) == len(source.splitlines()), path.name
        assert counts["code"] > 0


def test_line_counts_of_a_hand_counted_module():
    source = (
        '"""Module\n'
        "\n"
        'docstring."""\n'
        "\n"
        "# a comment\n"
        "x = '''not a\n"
        "docstring'''  # code wins\n"
        "\n"
        "def f():\n"
        '    """Doc."""\n'
        "    return 1\n"
    )
    count_lines = _load(REPO / "scripts" / "count_lines.py").count_lines
    assert count_lines(source) == {"code": 4, "docstring": 4, "comment": 1, "blank": 2}


def test_line_counts_of_a_revision_against_its_own_archive(tmp_path, capsys):
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "HEAD", "src/adaptidx"],
                             capture_output=True)
    if archive.returncode:
        pytest.skip("the source tree is not a git checkout")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(tmp_path, filter="data")
    script = _load(REPO / "scripts" / "count_lines.py")
    script.main(["--base", "HEAD", str(tmp_path / "src" / "adaptidx")])
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = sorted((tmp_path / "src" / "adaptidx").glob("*.py"))
    assert lines[0] == ["module", "HEAD", "src", "delta"]
    assert [row[0] for row in lines[1:]] == [p.name for p in modules] + ["total"]
    assert all(row[1] == row[2] and row[3] == "+0" for row in lines[1:])
    assert lines[-1][1] == str(sum(script.count_lines(p.read_text())["code"] for p in modules))


def test_hash_outputs_prints_the_same_digests_on_two_runs_of_one_tree(capsys):
    main = _load(REPO / "scripts" / "hash_outputs.py").main
    outputs = []
    for _ in range(2):
        main(["--size", "tiny"])
        out, err = capsys.readouterr()
        assert "FAIL" not in err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert [line.split()[0] for line in lines] == [
        "cold_converge", "lazy_uservisits", "warm_index_scan", "all",
    ]


def test_hash_outputs_finds_a_revision_identical_to_its_own_archive(tmp_path, capsys):
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "HEAD"], capture_output=True)
    if archive.returncode:
        pytest.skip("the source tree is not a git checkout")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(tmp_path, filter="data")
    main = _load(REPO / "scripts" / "hash_outputs.py").main
    assert main(["--base", "HEAD", "--src", str(tmp_path), "--size", "tiny"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "base HEAD" and lines[5] == f"src {tmp_path.resolve()}"
    assert lines[1:5] == lines[6:10] and lines[-1] == "identical"


def test_line_census_of_a_cli_session(tmp_path):
    census = _load(REPO / "scripts" / "line_census.py")
    executed, outcomes = census.trace([("cli", lambda: census.cli_session(tmp_path))])
    assert outcomes == {"cli": repr([0] * 12)}
    unrun = census.unrun(executed)

    def statements(module, function):
        tree = ast.parse((census.PACKAGE / module).read_text())
        return [(line, stmt) for line, name, stmt in census.function_lines(tree) if name == function]

    def unrun_lines(module, function):
        return [line for line, name, _ in unrun[module][1] if name == function]

    # Nothing in the engine checksums a block; the report prints every row.
    checksum = statements("blocks.py", "DataBlock.checksum")
    assert checksum and unrun_lines("blocks.py", "DataBlock.checksum") == [l for l, _ in checksum]
    [(loop, stmt)] = [(l, s) for l, s in statements("cli.py", "_cmd_report") if isinstance(s, ast.For)]
    rows = {loop} | {inner.lineno for inner in stmt.body}
    assert not rows & set(unrun_lines("cli.py", "_cmd_report"))
