"""The scripts import only names the library still provides, the experiment
scripts run end to end on small inputs, the line counter partitions every
line of the package, and the output hasher gives one tree one digest."""

import importlib.util
import sys
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
    "name, args, header",
    [
        ("run_convergence.py", ["--rows", "4000", "--jobs", "2"], "rate job1 job2"),
        ("run_projection_sweep.py", ["--rows", "2000"], "projected attributes byte share overhead"),
        ("run_eager.py", ["--jobs", "2"], "job eager rate 0.1 rate 1.0"),
    ],
    ids=["convergence", "projection_sweep", "eager"],
)
def test_experiment_script_runs_end_to_end(tmp_path, monkeypatch, capsys, name, args, header):
    main = _load(REPO / "scripts" / name).main
    monkeypatch.setattr(sys, "argv", [name, "--workdir", str(tmp_path), *args])
    main()
    lines = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()]
    assert header in lines


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
