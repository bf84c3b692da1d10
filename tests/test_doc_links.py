"""The docs checker (``tools/check_doc_links.py``) reports a stale code
reference, or a name a Python example calls that the code does not define,
and only that."""

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


def test_only_the_missing_name_in_a_python_block_is_reported(tmp_path):
    notes = tmp_path / "notes.md"
    notes.write_text("```python\n"
                     "with store.snapshot() as snap:\n"
                     "    rows = snap.decode_rows(snap.sparql(query))\n"
                     "server.submit_query(query).result()\n"
                     "store.ask(query)  # no such method\n"
                     "```\n"
                     "Prose may say store.ask; only code blocks are checked.\n")
    assert _checker().check_file(notes, ROOT) == ["store.ask"]
