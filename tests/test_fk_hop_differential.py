"""Fig. 4(b)'s foreign-key hop across store states: a differential.

``rdfscan`` plans ``fk_hop`` (a lineitem star plus ``?l l_orderkey ?order``
into the urgent orders) as an RDFjoin of the rest of the lineitem star over
a nested-loop index join keyed on the *object*: each urgent order probes the
POS slice of ``l_orderkey`` for the lineitems referencing it, base matches
drop pending tombstones and pending inserts are probed by object too.

Its reference is the ``default`` scheme on a parse-order store built from
the live triples, and the ``rdfscan`` plan on a clustered rebuild of them.
Every state — clean; pending writes that reach the hop only through the
delta (a new lineitem of an urgent order, a tombstoned ``l_orderkey``, a
lineitem re-pointed to an urgent order, a new urgent order with new
lineitems); the same writes compacted; and saved, written, checkpointed and
reopened — must answer alike, through direct and snapshot reads, at batch
sizes 1, 3 and 1024, with zone-map push-down off and on, and in the same
row order at every batch size.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, List, Tuple

import pytest

from _datasets import build_rdfh_store
from repro import RDFStore
from repro.bench import TpchData, star_fk_hop_sparql, sub_order_keys, tpch_to_triples
from repro.bench.rdfh import P_L_ORDERKEY, lineitem_iri, order_iri
from repro.engine import NestedLoopIndexJoinOp
from repro.model import IRI
from repro.sparql import DEFAULT_SCHEME, RDFSCAN_SCHEME, PlannerOptions

from test_updates import live_triples

BATCH_SIZES = [1, 3, 1024]
STATES = ["clean", "pending", "compacted", "reopened"]
URGENT = "1-URGENT"
QUERY = star_fk_hop_sparql().replace("SELECT ?o1 ?o2 ?o3", "SELECT ?l ?order ?o1 ?o2 ?o3")


def _data_text(orders=(), lines=()) -> str:
    rows = TpchData(customers=[], orders=list(orders), lineitems=list(lines), scale_factor=0.0)
    return "INSERT DATA { " + " ".join(t.n3() for t in tpch_to_triples(rows)) + " }"


def _link(line) -> str:
    return (f"{lineitem_iri(line.orderkey, line.linenumber).n3()} {IRI(P_L_ORDERKEY).n3()} "
            f"{order_iri(line.orderkey).n3()} .")


def _writes(tpch) -> List[str]:
    """Requests each of which changes the hop's answer through the delta
    alone: the base pairs of ``l_orderkey`` never see them."""
    urgent = [order for order in tpch.orders if order.orderpriority == URGENT]
    other = next(order for order in tpch.orders if order.orderpriority != URGENT)
    lines_of: Dict[int, list] = {}
    for line in tpch.lineitems:
        lines_of.setdefault(line.orderkey, []).append(line)
    first, second, third = [order for order in urgent if order.orderkey in lines_of][:3]
    added = replace(lines_of[first.orderkey][0], linenumber=99)
    tombstoned = lines_of[second.orderkey][0]
    moved = lines_of[other.orderkey][0]
    moved_to = replace(moved, orderkey=third.orderkey)
    new_order = replace(first, orderkey=max(order.orderkey for order in tpch.orders) + 1)
    new_lines = [replace(line, orderkey=new_order.orderkey)
                 for line in lines_of[first.orderkey][:2]]
    return [
        _data_text(lines=[added]),
        f"DELETE DATA {{ {_link(tombstoned)} }}",
        f"DELETE DATA {{ {_link(moved)} }} ; INSERT DATA {{ "
        f"{lineitem_iri(moved.orderkey, moved.linenumber).n3()} {IRI(P_L_ORDERKEY).n3()} "
        f"{order_iri(moved_to.orderkey).n3()} . }}",
        _data_text(orders=[new_order], lines=new_lines),
    ]


def _rows(store: RDFStore, result) -> List[Tuple[str, ...]]:
    return [tuple(str(v) for v in row) for row in store.decode_rows(result)]


def _reference(store: RDFStore) -> List[Tuple[str, ...]]:
    """The hop's answer over the store's live triples: the ``default``
    scheme on a parse-order store, checked against a clustered rebuild."""
    live = live_triples(store)
    parse_order = RDFStore.build(live, cluster=False)
    expected = sorted(_rows(parse_order, parse_order.sparql(
        QUERY, PlannerOptions(scheme=DEFAULT_SCHEME))))
    rebuilt = RDFStore.build(live, sort_key_names=sub_order_keys())
    assert sorted(_rows(rebuilt, rebuilt.sparql(QUERY))) == expected
    return expected


@pytest.fixture(scope="module")
def states(tpch_tiny, tmp_path_factory) -> Dict[str, Tuple[RDFStore, list]]:
    writes = _writes(tpch_tiny)
    built: Dict[str, RDFStore] = {"clean": build_rdfh_store(tpch_tiny)}
    for state in ("pending", "compacted"):
        store = built[state] = build_rdfh_store(tpch_tiny)
        for text in writes:
            store.update(text)
        if state == "compacted":
            store.compact()
    path = tmp_path_factory.mktemp("fk_hop") / "db"
    build_rdfh_store(tpch_tiny).save(path)
    attached = RDFStore.open(path)
    for text in writes:
        attached.update(text)
    attached.checkpoint()
    built["reopened"] = RDFStore.open(path)
    return {state: (store, _reference(store)) for state, store in built.items()}


@contextmanager
def batch_size(store: RDFStore, size: int):
    saved = store.config.batch_size
    store.config.batch_size = size
    try:
        yield store
    finally:
        store.config.batch_size = saved


def _object_keyed_hops(plan) -> List[NestedLoopIndexJoinOp]:
    found, stack = [], [plan]
    while stack:
        op = stack.pop()
        if isinstance(op, NestedLoopIndexJoinOp) and op.key == "o":
            found.append(op)
        stack.extend(op.children())
    return found


def test_the_writes_reach_the_hop(states):
    """Each state's reference differs from the clean one: the differential
    below sees the delta half of the probe at work."""
    clean = states["clean"][1]
    for state in STATES[1:]:
        assert states[state][1] != clean, state


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("zone_maps", [False, True])
def test_the_hop_answers_like_the_reference(states, state, zone_maps):
    store, expected = states[state]
    options = PlannerOptions(scheme=RDFSCAN_SCHEME, use_zone_maps=zone_maps)
    assert len(_object_keyed_hops(store.sparql_plan(QUERY, options))) == 1
    by_size = []
    for size in BATCH_SIZES:
        with batch_size(store, size):
            direct = _rows(store, store.sparql(QUERY, options))
            with store.snapshot() as snapshot:
                pinned = _rows(store, snapshot.sparql(QUERY, options))
        assert sorted(direct) == expected, (state, size)
        assert pinned == direct, (state, size)
        by_size.append(direct)
    assert all(rows == by_size[0] for rows in by_size), state
