"""The docs checker (``tools/check_doc_links.py``) reports a stale code
reference and only that."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _checker():
    spec = importlib.util.spec_from_file_location("check_doc_links",
                                                  ROOT / "tools" / "check_doc_links.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_only_the_stale_code_reference_is_reported(tmp_path):
    notes = tmp_path / "notes.md"
    notes.write_text("The star order is `planner/planner.py:Planner._order_stars`;\n"
                     "the search was `planner/optimizer.py:QueryOptimizer.order_stars`.\n")
    assert _checker().check_file(notes, ROOT) == [
        "planner/optimizer.py:QueryOptimizer.order_stars"]
