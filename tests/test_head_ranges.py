"""Table I's push-down on a store with writes: each table is a sorted head
and a small tail, and a derived range bounds head rows only.

A compaction keeps the head rows of the members it did not touch, in head
order, so the head keeps its sub-order, zone maps and sorted prefixes; the
push-down derives its ranges from head rows whether writes are pending or
compacted, and the star operators apply them to head rows only.  A range
may drop a row only where it was derived from that row's values, so each
range lets through what non-head rows reference or are.  Each hazard here
is built so that a head row would be dropped without that widening, on a
small RDF-H store with zones of eight rows:

* a new lineitem of an existing order, and a changed lineitem — the FK
  hull from the lineitems' zone maps (pass 2b) misses the order;
* a new order of an existing customer — the hull from the orders' zone
  maps misses the customer;
* a changed head order, and a newcomer whose IRI head lineitems already
  referenced (an old OID) — the order's range pushed into the lineitems'
  ``l_orderkey`` (pass 2a) misses them.

Each is answered like a store rebuilt from its live triples, pending,
compacted and reopened after ``checkpoint()``, on direct and snapshot reads
at batch sizes 1 and 1024.  Also here: the counted guard that ``compact()``
keeps every untouched table's block and every head's sorted columns and
zone maps, and the plan of Q3 on a pending store.
"""

from __future__ import annotations

from dataclasses import replace
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _datasets import tiny_tpch
from repro import RDFStore, StoreConfig
from repro.bench import sub_order_keys
from repro.bench.rdfh import RDFH_VOC, customer_iri, order_iri, tpch_to_triples
from repro.bench.queries import q3_sparql
from repro.bench.tpch import TpchData
from repro.columnar import ZoneMap
from repro.engine import HeadRange, OidRange, RDFJoinOp, RDFScanOp
from repro.model import IRI
from repro.storage import ClusteredStore, clustered
from test_updates import _sort_rows, live_triples

ZONE = 8
PREFIXES = (f"PREFIX rdfh: <{RDFH_VOC}> "
            "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> ")
FULL = (date(1990, 1, 1), date(2000, 1, 1))


def _config(batch_size: int = 1024) -> StoreConfig:
    return StoreConfig(zone_size=ZONE, batch_size=batch_size)


def _build(triples) -> RDFStore:
    return RDFStore.build(triples, sort_key_names=sub_order_keys(), config=_config())


def _query(order_dates, ship_dates) -> str:
    (od_low, od_high), (sd_low, sd_high) = order_dates, ship_dates
    return (f"{PREFIXES}SELECT ?customer ?order ?line WHERE {{ "
            "?customer rdfh:c_mktsegment ?segment . "
            "?order rdfh:o_custkey ?customer . ?order rdfh:o_orderdate ?od . "
            "?line rdfh:l_orderkey ?order . ?line rdfh:l_shipdate ?sd . "
            f'FILTER(?od >= "{od_low}"^^xsd:date) FILTER(?od < "{od_high}"^^xsd:date) '
            f'FILTER(?sd >= "{sd_low}"^^xsd:date) FILTER(?sd < "{sd_high}"^^xsd:date) }}')


def _star_range(store: RDFStore, text: str, var: str):
    """The range a star of ``text``'s plan bounds ``var``'s subjects by: on a
    clean store the push-down puts it in the subject range."""
    stack = [store.sparql_plan(text)]
    while stack:
        node = stack.pop()
        if isinstance(node, (RDFScanOp, RDFJoinOp)) and node.star.subject_var == var:
            return node.star.subject_range
        stack.extend(node.children())
    raise AssertionError(f"no star of ?{var}")


def _lines_of(tpch, orderkey: int):
    return [line for line in tpch.lineitems if line.orderkey == orderkey]


def _text(rows: TpchData) -> str:
    return " ".join(triple.n3() for triple in tpch_to_triples(rows))


def _insert(rows: TpchData) -> str:
    return f"INSERT DATA {{ {_text(rows)} }}"


def _delete(rows: TpchData) -> str:
    return f"DELETE DATA {{ {_text(rows)} }}"


def _outside(store, oid_range, subjects):
    """The first of ``subjects`` (IRIs) whose OID the range does not hold."""
    for subject in subjects:
        oid = store.dictionary.lookup_term(subject)
        if not oid_range.contains(oid):
            return subject
    raise AssertionError("every subject is inside the derived range")


# -- the hazards: (query, writes before the measured state, the writes) -------------------


def _new_lineitem_of_an_existing_order(store, tpch):
    ship = (date(1995, 6, 1), date(1995, 6, 20))
    text = _query(FULL, ship)
    orders = _star_range(store, text, "order")
    victim = _outside(store, orders, [order_iri(o.orderkey) for o in tpch.orders
                                      if _lines_of(tpch, o.orderkey)])
    key = int(str(victim).rsplit("/", 1)[-1])
    line = replace(_lines_of(tpch, key)[0], linenumber=99, shipdate=date(1995, 6, 10))
    return text, victim, [], [_insert(TpchData([], [], [line], 0.0))]


def _changed_lineitem(store, tpch):
    ship = (date(1995, 6, 1), date(1995, 6, 20))
    text = _query(FULL, ship)
    orders = _star_range(store, text, "order")
    victim = _outside(store, orders, [order_iri(o.orderkey) for o in tpch.orders
                                      if _lines_of(tpch, o.orderkey)])
    key = int(str(victim).rsplit("/", 1)[-1])
    line = _lines_of(tpch, key)[0]
    moved = replace(line, shipdate=date(1995, 6, 10))
    return text, victim, [], [_delete(TpchData([], [], [line], 0.0)),
                              _insert(TpchData([], [], [moved], 0.0))]


def _new_order_of_an_existing_customer(store, tpch):
    when = (date(1995, 1, 1), date(1995, 1, 20))
    text = _query(when, FULL)
    customers = _star_range(store, text, "customer")
    victim = _outside(store, customers, [customer_iri(c.custkey) for c in tpch.customers])
    key = int(str(victim).rsplit("/", 1)[-1])
    template = tpch.orders[0]
    order = replace(template, orderkey=10 ** 6, custkey=key, orderdate=date(1995, 1, 10))
    lines = [replace(line, orderkey=order.orderkey) for line in _lines_of(tpch, template.orderkey)]
    return text, victim, [], [_insert(TpchData([], [order], lines, 0.0))]


def _late_order_with_lines(store, tpch, when):
    text = _query(when, FULL)
    orders = _star_range(store, text, "order")
    candidates = [o for o in tpch.orders if _lines_of(tpch, o.orderkey)
                  and not when[0] <= o.orderdate < when[1]]
    victim = _outside(store, orders, [order_iri(o.orderkey) for o in candidates])
    order = next(o for o in candidates if order_iri(o.orderkey) == victim)
    return text, victim, order


def _changed_head_order(store, tpch):
    when = (date(1995, 1, 1), date(1995, 1, 20))
    text, victim, order = _late_order_with_lines(store, tpch, when)
    moved = replace(order, orderdate=date(1995, 1, 10))
    return text, victim, [], [_delete(TpchData([], [order], [], 0.0)),
                              _insert(TpchData([], [moved], [], 0.0))]


def _old_oid_newcomer(store, tpch):
    when = (date(1995, 1, 1), date(1995, 1, 20))
    text, victim, order = _late_order_with_lines(store, tpch, when)
    moved = replace(order, orderdate=date(1995, 1, 10))
    # the order leaves its table; its lineitems keep referencing its IRI
    return text, victim, [_delete(TpchData([], [order], [], 0.0))], \
        [_insert(TpchData([], [moved], [], 0.0))]


HAZARDS = {
    "new lineitem of an existing order": _new_lineitem_of_an_existing_order,
    "changed lineitem": _changed_lineitem,
    "new order of an existing customer": _new_order_of_an_existing_customer,
    "changed head order": _changed_head_order,
    "old-OID newcomer": _old_oid_newcomer,
}


def _answers(reader, text: str) -> list:
    return _sort_rows(reader.decode_rows(reader.sparql(text)))


def _assert_like_a_rebuild(store: RDFStore, text: str, victim: IRI) -> None:
    oracle = _build(live_triples(store))
    expected = _answers(oracle, text)
    assert any(str(victim) in map(str, row) for row in expected), "vacuous hazard"
    for size in (1, 1024):
        store.config.batch_size = size
        try:
            assert _answers(store, text) == expected, size
            with store.snapshot() as pinned:
                assert _answers(pinned, text) == expected, size
        finally:
            store.config.batch_size = 1024


@pytest.mark.parametrize("state", ["pending", "compacted", "reopened"])
@pytest.mark.parametrize("hazard", sorted(HAZARDS))
def test_a_derived_range_keeps_what_non_head_rows_join(hazard, state, tmp_path):
    tpch = tiny_tpch()
    store = _build(list(tpch_to_triples(tpch)))
    text, victim, before, writes = HAZARDS[hazard](store, tpch)
    if state == "reopened":
        store.save(tmp_path / "db")
    for update in before:
        store.update(update)
    if before:
        store.compact()
    for update in writes:
        store.update(update)
    if state == "compacted":
        store.compact()
    elif state == "reopened":
        store.checkpoint()
        store = RDFStore.open(tmp_path / "db", config=_config())
        assert store.clustered_store.has_tails
    plan = store.explain(text)
    assert "subj[" in next(line for line in plan.splitlines() if "star(?order:" in line), plan
    _assert_like_a_rebuild(store, text, victim)


# -- counted guards ----------------------------------------------------------------------


def test_compaction_keeps_untouched_blocks_and_every_head(monkeypatch):
    """New orders touch two tables: the others keep their block objects,
    and the two keep their heads' rows, sorted columns and zones — no head
    zone map is built and no column checked for sortedness again."""
    tpch = tiny_tpch()
    store = _build(list(tpch_to_triples(tpch)))
    template = tpch.orders[0]
    order = replace(template, orderkey=10 ** 6)
    lines = [replace(line, orderkey=order.orderkey) for line in _lines_of(tpch, template.orderkey)]
    store.update(_insert(TpchData([], [order], lines, 0.0)))
    before = {block.cs_id: block for block in store.clustered_store.blocks}
    built, checked = [], []
    monkeypatch.setattr(ZoneMap, "build", lambda *a, **k: built.append(a))
    sorted_check = clustered._is_sorted_ignoring_nulls
    monkeypatch.setattr(clustered, "_is_sorted_ignoring_nulls",
                        lambda values: checked.append(values) or sorted_check(values))
    monkeypatch.setattr(ClusteredStore, "build", lambda *a, **k: pytest.fail("rebuilt"))
    store.compact()
    assert not built and not checked
    touched = set()
    for block in store.clustered_store.blocks:
        head = before[block.cs_id]
        if block is head:
            continue
        touched.add(block.label)
        assert block.head_rows == len(head) and len(block) == len(head) + {
            "Order": 1, "Lineitem": len(lines)}[block.label]
        assert np.array_equal(block.subject_column.data[:block.head_rows],
                              head.subject_column.data)
        assert block.sorted_properties == head.sorted_properties != frozenset()
        for predicate, zone_map in head.zone_maps.items():
            assert block.zone_maps[predicate].zones[:len(zone_map)] == zone_map.zones
            assert block.zone_maps[predicate].zones[len(zone_map)].start_row == block.head_rows
    assert touched == {"Order", "Lineitem"}


def test_q3_on_a_pending_store_pushes_down():
    tpch = tiny_tpch()
    store = _build(list(tpch_to_triples(tpch)))
    template = tpch.orders[0]
    order = replace(template, orderkey=10 ** 6)
    store.update(_insert(TpchData([], [order], [], 0.0)))
    plan = store.explain(q3_sparql())
    star = next(line for line in plan.splitlines() if "star(?order:" in line)
    assert "subj[" in star, plan


@settings(max_examples=200, deadline=None)
@given(low=st.one_of(st.none(), st.integers(0, 60)), high=st.one_of(st.none(), st.integers(0, 60)),
       widening=st.sets(st.integers(0, 60), max_size=5))
def test_a_head_range_narrows_by_disjoint_intervals_that_cover_what_it_masks(low, high,
                                                                             widening):
    head_range = HeadRange(OidRange(low, high))
    widening = np.asarray(sorted(widening), dtype=np.int64)
    intervals = head_range.intervals(widening)
    values = np.arange(-1, 62, dtype=np.int64)
    covered = np.zeros(values.size, dtype=bool)
    for (a_low, a_high), later in zip(intervals, intervals[1:] + [None]):
        if later is not None:
            assert a_high is not None and later[0] is not None and a_high < later[0]
        covered |= OidRange(a_low, a_high).mask(values)
    assert not (head_range.mask(values, widening) & ~covered).any()
