#!/usr/bin/env python3
"""Count the code, docstring, comment and blank lines of a package.

Each line of each module falls in exactly one class, found with `tokenize`:
code if any token on it is neither a comment nor a docstring, else docstring
if a docstring covers it (blank lines inside one included), else comment if
it holds one, else blank. A docstring is a string literal that is a whole
statement. So the four counts of a module add up to its line count.

Usage: python scripts/count_lines.py [PACKAGE_DIR]   (default: src/adaptidx)
"""

import argparse
import io
import tokenize
from pathlib import Path

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


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    default = Path(__file__).resolve().parent.parent / "src" / "adaptidx"
    parser.add_argument("package", type=Path, nargs="?", default=default)
    args = parser.parse_args(argv)

    totals = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{kind:>10}" for kind in KINDS) + f"{'total':>10}")
    for path in sorted(args.package.glob("*.py")):
        counts = count_lines(path.read_text())
        for kind in KINDS:
            totals[kind] += counts[kind]
        row = "".join(f"{counts[kind]:>10}" for kind in KINDS)
        print(f"{path.name:<16}{row}{sum(counts.values()):>10}")
    row = "".join(f"{totals[kind]:>10}" for kind in KINDS)
    print(f"{'total':<16}{row}{sum(totals.values()):>10}")


if __name__ == "__main__":
    main()
