"""Count the lines of the ``repro`` package, subpackage by subpackage.

For each subpackage of ``src/repro`` (modules directly under it count as
``repro``) print its files, its physical lines and its code lines: the
lines that are not blank and hold more than comments and docstrings (a
bare string statement — a module, class, function or attribute docstring —
is prose, not code).  Run from anywhere::

    python tools/loc.py                  # this checkout's src/repro
    python tools/loc.py other/src/repro  # any other tree, to compare

The counts are informational; nothing fails on them.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of ``source`` holding a token that is neither a comment nor
    part of a bare string statement."""
    prose = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            prose.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - prose)


def count(package: Path) -> Dict[str, List[int]]:
    """Per subpackage: ``[files, physical lines, code lines]``."""
    totals: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package).parts
        source = path.read_text(encoding="utf-8")
        row = totals[parts[0] if len(parts) > 1 else package.name]
        row[0] += 1
        row[1] += len(source.splitlines())
        row[2] += code_lines(source)
    return dict(totals)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("package", nargs="?", type=Path, default=PACKAGE,
                        help="the package directory to count (default: src/repro)")
    totals = count(parser.parse_args().package)
    print(f"{'package':<12} {'files':>5} {'physical':>9} {'code':>7}")
    for name, (files, physical, code) in sorted(totals.items()):
        print(f"{name:<12} {files:>5} {physical:>9} {code:>7}")
    files, physical, code = (sum(column) for column in zip(*totals.values()))
    print(f"{'total':<12} {files:>5} {physical:>9} {code:>7}")


if __name__ == "__main__":
    main()
