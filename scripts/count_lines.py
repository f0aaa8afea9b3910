#!/usr/bin/env python3
"""Count the code, docstring, comment and blank lines of a package.

Each line of each module falls in exactly one class, found with `tokenize`:
code if any token on it is neither a comment nor a docstring, else docstring
if a docstring covers it (blank lines inside one included), else comment if
it holds one, else blank. A docstring is a string literal that is a whole
statement. So the four counts of a module add up to its line count.

With `--base REV`, the script extracts `src/adaptidx` of git revision REV of
this repository with `git archive` into a temporary directory and prints,
per module, the code lines of REV, of PACKAGE_DIR and the difference:

    python scripts/count_lines.py --base HEAD~1

Usage: python scripts/count_lines.py [PACKAGE_DIR] [--base REV]   (default: src/adaptidx)
"""

import argparse
import io
import subprocess
import tarfile
import tempfile
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "adaptidx"

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
_RANK = {kind: rank for rank, kind in enumerate(reversed(KINDS))}


def count_lines(source: str) -> dict[str, int]:
    """The number of lines of `source` in each of `KINDS`."""
    lines = source.splitlines()
    kinds = ["blank"] * len(lines)
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    significant = [t for t in tokens if t.type not in (tokenize.NL, tokenize.COMMENT)]
    docstrings = set()
    for i, tok in enumerate(significant):
        if tok.type != tokenize.STRING:
            continue
        before = significant[i - 1].type if i else tokenize.NEWLINE
        after = significant[i + 1].type if i + 1 < len(significant) else tokenize.ENDMARKER
        if before in _LAYOUT and after in (tokenize.NEWLINE, tokenize.ENDMARKER):
            docstrings.add(tok.start)
    for tok in tokens:
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.COMMENT:
            kind = "comment"
        elif tok.start in docstrings:
            kind = "docstring"
        else:
            kind = "code"
        for number in range(tok.start[0], tok.end[0] + 1):
            if _RANK[kind] > _RANK[kinds[number - 1]]:
                kinds[number - 1] = kind
    return {kind: kinds.count(kind) for kind in KINDS}


def count_package(package: Path) -> dict[str, dict[str, int]]:
    """Module file name to its `count_lines`, for each module of `package`."""
    return {path.name: count_lines(path.read_text()) for path in sorted(package.glob("*.py"))}


def compare(base: str, package: Path) -> None:
    """Print each module's code lines at revision `base`, in `package`, and
    the difference; a module missing from one side counts 0 there."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(REPO), "archive", base, PACKAGE.as_posix()],
                                 check=True, stdout=subprocess.PIPE).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        old = count_package(Path(tmp) / PACKAGE)
    new = count_package(package)
    print(f"{'module':<16}{base:>10}{'src':>10}{'delta':>10}")
    rows = [(name, old.get(name, {}).get("code", 0), new.get(name, {}).get("code", 0))
            for name in sorted(old.keys() | new.keys())]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    for name, before, after in rows:
        print(f"{name:<16}{before:>10}{after:>10}{after - before:>+10}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("package", type=Path, nargs="?", default=REPO / PACKAGE)
    parser.add_argument("--base", metavar="REV",
                        help="compare code lines with src/adaptidx of git revision REV")
    args = parser.parse_args(argv)
    if args.base is not None:
        compare(args.base, args.package)
        return

    totals = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{kind:>10}" for kind in KINDS) + f"{'total':>10}")
    for name, counts in count_package(args.package).items():
        for kind in KINDS:
            totals[kind] += counts[kind]
        row = "".join(f"{counts[kind]:>10}" for kind in KINDS)
        print(f"{name:<16}{row}{sum(counts.values()):>10}")
    row = "".join(f"{totals[kind]:>10}" for kind in KINDS)
    print(f"{'total':<16}{row}{sum(totals.values()):>10}")


if __name__ == "__main__":
    main()
