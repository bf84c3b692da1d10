#!/usr/bin/env python3
"""Check that the repo's Markdown files point at things that exist.

Two kinds of reference are checked in every ``*.md`` file:

* inline links — relative targets must exist on disk (external
  ``http(s)``/``mailto`` links and pure in-page anchors are skipped);
* backticked code references ``path.py:name`` (``name`` may be dotted, as
  in ``core/store.py:RDFStore.open``) — the file must exist under the repo
  root, ``src/repro`` or ``benchmarks/e2e``, and define the last dotted part
  of ``name`` as a ``def``, a ``class`` or an assignment.  References by
  line number (``planner/planner.py:130``) are not checked.

The files named in ``tools/doc_links_skip.txt`` (the change log and the
other records that describe code as it was) are skipped.  Exits non-zero
listing every broken reference — used by CI's docs job and runnable locally:

    python tools/check_doc_links.py
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_REF_PATTERN = re.compile(r"`([\w./-]+\.py):([A-Za-z_][\w.]*)`")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
SKIP_DIRS = {".git", ".github", "node_modules", "__pycache__", ".pytest_cache"}
SKIP_LIST = Path(__file__).resolve().parent / "doc_links_skip.txt"
SKIP_FILES = frozenset(line.strip() for line in SKIP_LIST.read_text(encoding="utf-8").splitlines()
                       if line.strip() and not line.lstrip().startswith("#"))
CODE_ROOTS = (".", "src/repro", "benchmarks/e2e")


def markdown_files(root: Path):
    for path in sorted(root.rglob("*.md")):
        if not SKIP_DIRS.intersection(part for part in path.parts) and path.name not in SKIP_FILES:
            yield path


def defined_names(path: Path) -> frozenset:
    """Every name a module defines: functions, classes and assignment
    targets (``x = …``, ``x: T = …``, ``self.x = …``), at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
                    elif isinstance(leaf, ast.Attribute):
                        names.add(leaf.attr)
    return frozenset(names)


def code_reference_resolves(root: Path, file: str, name: str) -> bool:
    for base in CODE_ROOTS:
        path = root / base / file
        if path.is_file() and name.rsplit(".", 1)[-1] in defined_names(path):
            return True
    return False


def check_file(path: Path, root: Path) -> list:
    """The broken references of one Markdown file, as written in it; code
    references are looked up in the tree at ``root``."""
    broken = []
    text = path.read_text(encoding="utf-8")
    for match in LINK_PATTERN.finditer(text):
        target = match.group(1)
        if target.startswith(SKIP_PREFIXES):
            continue
        target = target.split("#", 1)[0]  # drop in-page anchors
        if not target:
            continue
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            broken.append(match.group(1))
    for match in CODE_REF_PATTERN.finditer(text):
        if not code_reference_resolves(root, match.group(1), match.group(2)):
            broken.append(f"{match.group(1)}:{match.group(2)}")
    return broken


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    broken = []
    checked = 0
    for path in markdown_files(root):
        checked += 1
        broken.extend((path.relative_to(root), target) for target in check_file(path, root))
    if broken:
        print(f"broken references in {checked} markdown files:")
        for source, target in broken:
            print(f"  {source}: {target}")
        return 1
    print(f"ok: all relative links and code references resolve across {checked} markdown files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
