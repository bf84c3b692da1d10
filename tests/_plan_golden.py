"""Golden SPARQL plan shapes.

``render`` produces the ``explain()`` tree (operators, pushed ranges,
``est=``) of every query of the ``test_batch_differential`` corpus under
the three plan schemes, zone-map push-down off and on.
``golden_sparql_plans.txt`` is that text as generated at commit 572736c,
the last one with a planner per front end, and regenerated twice since:
when zone-map pruning stopped being a star-operator switch (the
`` (zonemaps)`` suffix went) and an index scan with both a subject and an
object range started narrowing by the subject range alone (the ``est=`` of
those scans and of the operators above them moved); and when the
cost-based star order went, so every ``optimized`` section is the
``rdfscan`` section of its query.
``tests/test_frontends.py`` holds the shared planner to it byte for byte.
Regenerate (only when a plan change is intended) with::

    PYTHONPATH=src:tests python tests/_plan_golden.py
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

from _datasets import (
    build_book_store,
    build_dblp_store,
    build_rdfh_parseorder_store,
    build_rdfh_store,
    tiny_tpch,
)
from repro import PlannerOptions, RDFStore
from test_batch_differential import BOOK_QUERIES, DBLP_QUERIES, RDFH_QUERIES

GOLDEN_PATH = Path(__file__).with_name("golden_sparql_plans.txt")

CONFIGURATIONS = [(scheme, zone_maps)
                  for scheme in ("default", "rdfscan", "optimized")
                  for zone_maps in (False, True)]

CORPUS = [("book", BOOK_QUERIES), ("dblp", DBLP_QUERIES), ("rdfh", RDFH_QUERIES),
          ("rdfh_parseorder", RDFH_QUERIES[:2])]


def render(stores: Dict[str, RDFStore]) -> str:
    """The golden text for the corpus over ``stores`` (keyed like ``CORPUS``)."""
    sections = []
    for store_name, queries in CORPUS:
        store = stores[store_name]
        for index, text in enumerate(queries):
            for scheme, zone_maps in CONFIGURATIONS:
                options = PlannerOptions(scheme=scheme, use_zone_maps=zone_maps)
                sections.append(
                    f"== {store_name} q{index} {scheme} zonemaps={'on' if zone_maps else 'off'}\n"
                    + store.sparql_plan(text, options).explain())
    return "\n".join(sections) + "\n"


def build_stores() -> Dict[str, RDFStore]:
    tpch = tiny_tpch()
    return {"book": build_book_store(), "dblp": build_dblp_store(),
            "rdfh": build_rdfh_store(tpch),
            "rdfh_parseorder": build_rdfh_parseorder_store(tpch)}


if __name__ == "__main__":
    GOLDEN_PATH.write_text(render(build_stores()))
    print(f"wrote {GOLDEN_PATH}")
