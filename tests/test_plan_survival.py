"""Counted guards for plans that survive writes, on the ``update_mix`` shape.

A cycle of that workload inserts an order's lineitems, reads ``q6`` / ``q3``
/ SQL ``q6`` over the pending delta and now and then deletes an earlier
order's lineitems with ``DELETE WHERE { ?l rdfh:l_orderkey <o> . ?l ?p ?o }``.
Two facts keep that cheap and are pinned here by count, not by time:

* a cached plan is keyed by the base generation and whether writes are
  pending, so after the first write every further write leaves the repeated
  texts at zero new plan-cache misses;
* the ``DELETE WHERE`` probes SPO for the lineitems its star binds instead
  of hash-joining a scan of every triple (``IndexScan[?l ?p ?o]``).
"""

from __future__ import annotations

from datetime import date

from _datasets import build_rdfh_store, tiny_tpch
from repro import PlannerOptions
from repro.bench import q3_sparql, q6_sparql, q6_sql
from repro.bench.rdfh import (
    CLASS_LINEITEM,
    P_L_DISCOUNT,
    P_L_EXTENDEDPRICE,
    P_L_LINENUMBER,
    P_L_LINESTATUS,
    P_L_ORDERKEY,
    P_L_QUANTITY,
    P_L_RETURNFLAG,
    P_L_SHIPDATE,
    P_L_TAX,
    RDFH_VOC,
    lineitem_iri,
    order_iri,
)
from repro.model import IRI, Literal, Triple, literal_from_python
from repro.model.terms import RDF_TYPE, XSD_DATE
from repro.planner import QueryEngine
from repro.rio import serialize_ntriples
from repro.sparql import SPARQL_FRONTEND

READS = [("sparql", q6_sparql()), ("sparql", q3_sparql()), ("sql", q6_sql())]


def _insert_lines(orderkey: int, numbers=(1, 2, 3)) -> str:
    """Lineitems of an order whose prices, discounts and ship dates are new
    literals — the dictionary's tail — inside ``q6``'s ranges."""
    triples = []
    for number in numbers:
        line = lineitem_iri(orderkey, number)
        values = {
            P_L_ORDERKEY: order_iri(orderkey),
            P_L_LINENUMBER: literal_from_python(number),
            P_L_QUANTITY: literal_from_python(4 + number),
            P_L_EXTENDEDPRICE: literal_from_python(1000.125 + orderkey % 1000 + number),
            P_L_DISCOUNT: literal_from_python(0.0505 + number / 1000),
            P_L_TAX: literal_from_python(0.02),
            P_L_SHIPDATE: Literal(date(1994, 1 + number % 12, 1 + orderkey % 28).isoformat(),
                                  datatype=XSD_DATE),
            P_L_RETURNFLAG: Literal("N"),
            P_L_LINESTATUS: Literal("O"),
        }
        triples.append(Triple(line, IRI(RDF_TYPE), IRI(CLASS_LINEITEM)))
        triples += [Triple(line, IRI(predicate), value) for predicate, value in values.items()]
    return f"INSERT DATA {{ {serialize_ntriples(triples)} }}"


def _order_lines(orderkey: int, verb: str = "DELETE WHERE") -> str:
    """``update_mix``'s delete of an order's lineitems (or, with another
    verb, the SELECT it evaluates)."""
    return (f"PREFIX rdfh: <{RDFH_VOC}> {verb} {{ ?l rdfh:l_orderkey <{order_iri(orderkey)}> . "
            "?l ?p ?o . }")


def test_later_writes_leave_repeated_texts_at_zero_new_misses():
    store = build_rdfh_store(tiny_tpch())
    misses = lambda: store.plan_cache_stats()["lifetime_misses"]  # noqa: E731

    def read_all() -> None:
        for frontend, text in READS:
            getattr(store, frontend)(text)

    read_all()
    store.update(_insert_lines(900001))
    before = misses()
    read_all()  # the first write after a clean state: each text misses once
    assert misses() == before + len(READS)
    writes = [_insert_lines(900002), _order_lines(900001),
              _insert_lines(900003), _order_lines(900002)]
    for step, write in enumerate(writes):
        assert store.update(write).changed
        before = misses()
        read_all()
        assert misses() == before, f"write {step} re-planned"
        # ... and the surviving plan answers what a fresh one does
        fresh = QueryEngine(store.context(), [SPARQL_FRONTEND]).query("sparql", q6_sparql())
        assert store.decode_rows(store.sparql(q6_sparql())) \
            == fresh.decoded_rows(store.context())


def test_delete_where_probes_the_subjects_it_binds():
    store = build_rdfh_store(tiny_tpch())
    select = _order_lines(1, "SELECT ?l ?p ?o WHERE")
    plan = store.explain(select, PlannerOptions(scheme="rdfscan"))
    assert "IndexScan[?l ?p ?o]" not in plan, plan
    assert "NestedLoopIndexJoin[?l ?p ?o]" in plan, plan
    # the paper's baseline keeps its shape
    assert "IndexScan[?l ?p ?o]" in store.explain(select, PlannerOptions(scheme="default"))
    rows = set(store.sparql(select).rows())
    assert rows == set(store.sparql(select, PlannerOptions(scheme="default")).rows())
    store.update(_insert_lines(1, numbers=[99]))  # pending rows meet the probe too
    pending = set(store.sparql(select).rows())
    assert len(pending) == len(rows) + 10
    assert store.update(_order_lines(1)).deleted == len(pending)
    assert not store.sparql(select).rows()
