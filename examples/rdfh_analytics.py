"""RDF-H analytics: the paper's evaluation workload end to end.

Generates RDF-H (TPC-H mapped 1:1 to RDF), builds both a parse-order and a
clustered store, and runs Q3 and Q6 under every plan scheme, printing the
cold/hot simulated costs — a miniature, scriptable version of Table I.

Run with::

    python examples/rdfh_analytics.py [scale_factor]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import TableOneConfig, TableOneHarness, format_table_one, q3_sparql
from repro.core import StoreConfig
from repro.sparql import PlannerOptions


def main() -> None:
    scale_factor = float(sys.argv[1]) if len(sys.argv) > 1 else 0.002
    harness = TableOneHarness(TableOneConfig(scale_factor=scale_factor),
                              store_config=StoreConfig(page_size=256, zone_size=256))

    print(f"generating RDF-H at SF={scale_factor} and building both stores ...")
    clustered = harness.store("Clustered")
    harness.store("ParseOrder")
    print(f"  {clustered.triple_count()} triples, build times: "
          f"{ {k: round(v, 1) for k, v in harness.build_seconds.items()} }\n")

    print("=== emergent schema recovered from RDF-H ===")
    for line in clustered.schema_summary():
        print(" ", line)

    print("\n=== Q3 top orders (fully optimized plan) ===")
    result = clustered.sparql(q3_sparql(), PlannerOptions(scheme="rdfscan"))
    for order, orderdate, _priority, revenue in clustered.decode_rows(result):
        print(f"  {order}  {orderdate}  revenue={revenue:,.2f}")
    print(f"  plan:\n{result.plan.explain(run=result.run)}")

    print("\n=== Table I grid ===")
    print(format_table_one(harness.run()))


if __name__ == "__main__":
    main()
