"""Seeded inputs: data sets, their N-Triples text, and query/update texts.

Everything the program under test receives is made here from ``--seed``:
the same seed gives the same triples, the same texts and the same
operation stream.  The program only ever sees generated text (or, for the
three query workloads' set-up, the generated ``Triple`` list).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from datetime import date, timedelta
from itertools import combinations
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench import (
    DblpConfig,
    DirtyConfig,
    TpchConfig,
    TpchData,
    generate_dblp,
    generate_dirty,
    generate_tpch,
    q1_sparql,
    q3_sparql,
    q3_sql,
    q6_sparql,
    q6_sql,
    star_fk_hop_sparql,
    star_lookup_sparql,
    tpch_to_triples,
)
from repro.model import Triple
from repro.rio import serialize_ntriples

DEFAULT_SEED = 20130408

# The generators' vocabulary, restated here so that the benchmark imports
# only what ``repro.bench`` exports; the pinned data-set fingerprints fail
# the run if the generators ever drift away from these strings.
RDFH = "http://example.org/rdfh/"
RDFH_VOC = RDFH + "schema/"
DBLP = "http://example.org/dblp/"
DBLP_VOC = DBLP + "schema/"
PREFIXES = (f"PREFIX rdfh: <{RDFH_VOC}>\n"
            "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n")

RDFH_CLASS_TABLES = {"Customer": ("customers", "c_name"), "Order": ("orders", "o_orderdate"),
                     "Lineitem": ("lineitems", "l_quantity")}
"""Emergent-table label -> the ``TpchData`` attribute holding its rows and
a mandatory column to count them by."""


@dataclass(frozen=True)
class Scale:
    """Input sizes and loop floors of one ``--scale``."""

    name: str
    rdfh_sf: float
    dblp_papers: int
    dirty_subjects_per_class: int
    setups: int
    """Set-ups per run; ``setup_s`` is their median."""
    min_builds: int
    min_rounds: int
    """Floor of every time-boxed query loop: at ``full`` it is the sample
    count a p90 needs (ten samples beyond it)."""
    warmup_rounds: int
    bulk_query_rounds: int
    cycles_per_epoch: int
    min_epochs: int
    postcompact_rounds: int
    tail_cycles: int
    opens: int


SCALES = {
    "full": Scale(name="full", rdfh_sf=0.002, dblp_papers=3000,
                  dirty_subjects_per_class=150, setups=3, min_builds=3,
                  min_rounds=100, warmup_rounds=3, bulk_query_rounds=400,
                  cycles_per_epoch=25, min_epochs=4, postcompact_rounds=10,
                  tail_cycles=10, opens=3),
    "smoke": Scale(name="smoke", rdfh_sf=0.0003, dblp_papers=150,
                   dirty_subjects_per_class=20, setups=1, min_builds=1,
                   min_rounds=3, warmup_rounds=1, bulk_query_rounds=3,
                   cycles_per_epoch=5, min_epochs=1, postcompact_rounds=1,
                   tail_cycles=2, opens=1),
}

PROBE_PLAN = dict(cycles_per_epoch=5, min_epochs=1, postcompact_rounds=2,
                  tail_cycles=3, opens=1)
"""Size of the durable stream a traced run of a workload other than
``update_mix`` appends, so the ``updates`` and ``persist`` layers are timed
on every data set."""


# -- data sets ------------------------------------------------------------------


@dataclass
class Dataset:
    """One generated data set: the relational rows the oracles read, the
    triples, and (when asked for) their N-Triples text."""

    name: str
    data: TpchData
    triples: List[Triple]
    dblp_triples: List[Triple]
    distinct_triples: int
    text: Optional[str] = None


def make_dataset(workload: str, scale: Scale, seed: int, with_text: bool,
                 tick: Callable[[], None] = lambda: None) -> Dataset:
    """RDF-H for the query and update workloads; RDF-H + DBLP-like + dirty
    crawl data for ``bulk_build``, so generalisation, typing and the
    irregular table have work to do.  ``tick`` is called between the steps
    (the host clock reads there)."""
    data = generate_tpch(TpchConfig(scale_factor=scale.rdfh_sf, seed=seed))
    tick()
    triples = list(tpch_to_triples(data))
    tick()
    dblp: List[Triple] = []
    name = "rdfh"
    if workload == "bulk_build":
        name = "mixed"
        dblp = generate_dblp(DblpConfig(papers=scale.dblp_papers, conferences=60,
                                        authors=max(4, scale.dblp_papers // 4),
                                        seed=seed + 1))
        dirty = generate_dirty(DirtyConfig(
            classes=12, subjects_per_class=scale.dirty_subjects_per_class,
            properties_per_class=8,
            chaotic_subjects=scale.dirty_subjects_per_class // 3, seed=seed + 2))
        triples = triples + dblp + dirty.triples
        tick()
    distinct = len(set(triples))
    tick()
    text = serialize_ntriples(triples) if with_text else None
    tick()
    return Dataset(name=name, data=data, triples=triples, dblp_triples=dblp,
                   distinct_triples=distinct, text=text)


def fingerprint(dataset: Dataset) -> Dict[str, object]:
    text = dataset.text if dataset.text is not None else serialize_ntriples(dataset.triples)
    return {"distinct_triples": dataset.distinct_triples,
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


# -- operations -------------------------------------------------------------------


@dataclass(frozen=True)
class QueryOp:
    """One read request: its class, front end, text and planner scheme, plus
    the parameters the oracle needs to predict the answer."""

    cls: str
    frontend: str  # "sparql" or "sql"
    text: str
    scheme: Optional[str] = None
    params: Tuple = ()


def customer_iri(key: int) -> str:
    return f"{RDFH}customer/{key}"


def order_iri(key: int) -> str:
    return f"{RDFH}order/{key}"


def lineitem_iri(orderkey: int, linenumber: int) -> str:
    return f"{RDFH}lineitem/{orderkey}-{linenumber}"


CUSTOMER_PROPS = ("c_name", "c_mktsegment", "c_nation", "c_acctbal")
ORDER_PROPS = ("o_orderdate", "o_orderstatus", "o_orderpriority", "o_shippriority",
               "o_totalprice")
LINE_PROPS = ("l_linenumber", "l_quantity", "l_extendedprice", "l_discount", "l_tax",
              "l_shipdate", "l_returnflag", "l_linestatus")


def _star_op(cls: str, key: int, props: Sequence[str], subject: str,
             anchor: str = "") -> QueryOp:
    """``props`` of one ``subject`` (an IRI, or a variable that the
    ``anchor`` pattern ties to a constant and that is projected too)."""
    selected = ([subject] if anchor else []) + ["?" + prop for prop in props]
    patterns = ([anchor] if anchor else []) + [f"{subject} rdfh:{prop} ?{prop} ."
                                                for prop in props]
    body = "\n  ".join(patterns)
    text = f"{PREFIXES}SELECT {' '.join(selected)}\nWHERE {{\n  {body}\n}}\n"
    return QueryOp(cls, "sparql", text, params=(key, tuple(props)))


def cust_star_op(key: int, props: Sequence[str]) -> QueryOp:
    return _star_op("cust_star", key, props, f"<{customer_iri(key)}>")


def orders_of_customer_op(key: int, props: Sequence[str]) -> QueryOp:
    return _star_op("orders_of_customer", key, props, "?o",
                    f"?o rdfh:o_custkey <{customer_iri(key)}> .")


def lines_of_order_op(key: int, props: Sequence[str] = ("l_linenumber", "l_quantity",
                                                        "l_extendedprice"),
                      cls: str = "lines_of_order") -> QueryOp:
    return _star_op(cls, key, props, "?l", f"?l rdfh:l_orderkey <{order_iri(key)}> .")


def q6_bounds(discount: float) -> Tuple[float, float]:
    """The discount bounds exactly as ``q6_sparql``/``q6_sql`` print them."""
    return float(f"{discount - 0.011:.3f}"), float(f"{discount + 0.011:.3f}")


def q6_op(cls: str, year: int = 1994, discount: float = 0.06, quantity: int = 24,
          frontend: str = "sparql") -> QueryOp:
    text = (q6_sparql if frontend == "sparql" else q6_sql)(year, discount, quantity)
    return QueryOp(cls, frontend, text, params=(year, discount, quantity))


def q3_op(cls: str, segment: str = "BUILDING", cutoff: date = date(1995, 3, 15),
          frontend: str = "sparql", scheme: Optional[str] = None) -> QueryOp:
    text = (q3_sparql(segment, cutoff) if frontend == "sparql"
            else q3_sql(segment, cutoff.isoformat()))
    return QueryOp(cls, frontend, text, scheme=scheme, params=(segment, cutoff))


def sql_order_range_op(start: date, days: int) -> QueryOp:
    end = start + timedelta(days=days)
    text = ("SELECT o.id AS oid, o.o_totalprice FROM Order o "
            f"WHERE o.o_orderdate >= DATE '{start.isoformat()}' "
            f"AND o.o_orderdate < DATE '{end.isoformat()}' "
            "ORDER BY o.o_totalprice DESC LIMIT 10")
    return QueryOp("sql_order_range", "sql", text, params=(start, end))


def papers_of_conference_op(conference: int) -> QueryOp:
    text = (f"SELECT ?p ?t WHERE {{ ?p <{DBLP_VOC}partOf> <{DBLP}conf/{conference}> . "
            f"?p <{DBLP_VOC}title> ?t . }}")
    return QueryOp("papers_of_conference", "sparql", text, params=(conference,))


def repeat_ops() -> List[QueryOp]:
    """The eight fixed texts of ``query_repeat`` (one round = one of each)."""
    return [
        q6_op("q6"),
        QueryOp("q1", "sparql", q1_sparql(), params=("1998-09-02",)),
        q3_op("q3"),
        q3_op("q3_optimized", scheme="optimized"),
        QueryOp("star_lookup", "sparql", star_lookup_sparql()),
        QueryOp("fk_hop", "sparql", star_fk_hop_sparql()),
        q6_op("sql_q6", frontend="sql"),
        q3_op("sql_q3", frontend="sql"),
    ]


class AdhocStream:
    """Endless rounds of the six ad-hoc classes, every text different from
    the previous several hundred (so the 128-entry plan cache never hits):
    constants come from seeded permutations of the generated keys and
    parameter grids (each over 1 200 entries), walked round and round."""

    SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")

    def __init__(self, data: TpchData, seed: int) -> None:
        rng = random.Random(seed)
        customers = range(1, len(data.customers) + 1)
        orders = range(1, len(data.orders) + 1)
        grids = {
            "cust_star": [(k, p) for p in combinations(CUSTOMER_PROPS, 3) for k in customers],
            "orders_of_customer": [(k, p) for p in combinations(ORDER_PROPS, 2)
                                   for k in customers],
            "lines_of_order": [(k, p) for p in list(combinations(LINE_PROPS, 3))[:8]
                               for k in orders],
            # third decimal 2..8 keeps the printed +-0.011 bounds off the
            # generated two-decimal discounts, so no row sits on a boundary
            "q6_params": [(y, (c * 10 + j) / 1000.0, q) for y in range(1993, 1998)
                          for c in range(2, 10) for j in range(2, 9) for q in range(20, 41)],
            "q3_params": [(s, date(1993, 1, 1) + timedelta(days=d))
                          for s in self.SEGMENTS for d in range(0, 1800)],
            "sql_order_range": [(date(1992, 1, 1) + timedelta(days=d), n)
                                for d in range(0, 2400) for n in range(2, 9)],
        }
        for grid in grids.values():
            rng.shuffle(grid)
        self._grids = grids
        self._cursor = 0

    def next_round(self) -> List[QueryOp]:
        i = self._cursor
        self._cursor += 1
        pick = {cls: grid[i % len(grid)] for cls, grid in self._grids.items()}
        return [
            cust_star_op(*pick["cust_star"]),
            orders_of_customer_op(*pick["orders_of_customer"]),
            lines_of_order_op(*pick["lines_of_order"]),
            q6_op("q6_params", *pick["q6_params"]),
            q3_op("q3_params", *pick["q3_params"]),
            sql_order_range_op(*pick["sql_order_range"]),
        ]


# -- updates ----------------------------------------------------------------------


class UpdateStream:
    """New orders (clones of seeded existing orders under fresh keys and
    with nudged prices, so they carry 1-7 lineitems with the generator's
    value distributions) and the deletion of an earlier inserted order's
    lineitems."""

    def __init__(self, data: TpchData, seed: int) -> None:
        self._rng = random.Random(seed)
        self._orders = data.orders
        self._lines_of: Dict[int, list] = {}
        for line in data.lineitems:
            self._lines_of.setdefault(line.orderkey, []).append(line)
        self._next_key = max(order.orderkey for order in data.orders) + 1
        self.inserted_keys: List[int] = []

    def next_insert(self):
        """``(text, order, lineitems)`` of one ``INSERT DATA`` request."""
        template = self._rng.choice(self._orders)
        key = self._next_key
        self._next_key += 1
        order = replace(template, orderkey=key)
        # prices are nudged so that a clone never ties with its template in
        # q3's ORDER BY (a tie would leave the expected order undefined)
        lines = [replace(line, orderkey=key,
                         extendedprice=round(line.extendedprice * self._rng.uniform(0.9, 1.1), 2))
                 for line in self._lines_of[template.orderkey]]
        rows = TpchData(customers=[], orders=[order], lineitems=lines, scale_factor=0.0)
        body = "\n".join(triple.n3() for triple in tpch_to_triples(rows))
        self.inserted_keys.append(key)
        return f"INSERT DATA {{\n{body}\n}}", order, lines

    @staticmethod
    def delete_lines_text(orderkey: int) -> str:
        return (f"{PREFIXES}DELETE WHERE {{ ?l rdfh:l_orderkey <{order_iri(orderkey)}> . "
                "?l ?p ?o . }")
