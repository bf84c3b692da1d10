"""Plain-Python reference answers, the update shadow model and the data-set
fingerprint check.

Nothing here touches the store: expected rows are computed from the
generated TPC-H rows (and the generated DBLP triples), so they hold for any
seed.  A result that disagrees counts in ``failed`` exactly like a request
that raised.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from datetime import date, timedelta
from typing import Dict, Iterable, List, Sequence, Tuple

from inputs import (
    DBLP,
    DBLP_VOC,
    DEFAULT_SEED,
    Dataset,
    QueryOp,
    RDFH_CLASS_TABLES,
    customer_iri,
    fingerprint,
    lineitem_iri,
    order_iri,
    q6_bounds,
)
from stats import E2E_DIR

REL_TOL = 1e-6
FINGERPRINTS_PATH = E2E_DIR / "fingerprints.json"
MAX_SHIP_DELAY = timedelta(days=121)
"""The generator ships every lineitem 1..121 days after its order date."""


class InputDrift(Exception):
    """The generators no longer produce the pinned default-seed data set."""


def check_fingerprint(dataset: Dataset, scale: str, seed: int) -> Dict[str, object]:
    """Compare the data set with the pinned fingerprint (default seed only)."""
    actual = fingerprint(dataset)
    if seed != DEFAULT_SEED:
        return actual
    pinned = json.loads(FINGERPRINTS_PATH.read_text(encoding="utf-8"))
    expected = pinned.get(f"{dataset.name}@{scale}")
    if expected != actual:
        raise InputDrift(
            f"data set {dataset.name}@{scale} for seed {seed} has fingerprint {actual}, "
            f"pinned is {expected}: the generators under src/repro/bench/ changed; "
            "results are not comparable with earlier ones")
    return actual


def values_match(actual, expected) -> bool:
    if isinstance(expected, (int, float)) and not isinstance(expected, bool):
        return (isinstance(actual, (int, float))
                and math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=1e-9))
    return actual == expected


def rows_match(actual: Sequence[tuple], expected: Sequence[tuple], ordered: bool) -> bool:
    if len(actual) != len(expected):
        return False
    if not ordered:
        try:
            actual, expected = sorted(actual), sorted(expected)
        except TypeError:
            return False
    return all(len(a) == len(e) and all(values_match(x, y) for x, y in zip(a, e))
               for a, e in zip(actual, expected))


def _prop(row, prop: str):
    return getattr(row, prop[2:])


class ShadowModel:
    """The rows the store should hold, kept beside it in plain Python.

    The query workloads only read it; ``update_mix`` also applies every
    acknowledged insert and delete, so it predicts each answer over the
    pending delta and what a reopened copy must contain.
    """

    def __init__(self, dataset: Dataset) -> None:
        data = dataset.data
        self.base_distinct_triples = dataset.distinct_triples
        self.inserted_triples = 0
        self.deleted_triples = 0
        self.customers = {c.custkey: c for c in data.customers}
        self.orders = {o.orderkey: o for o in data.orders}
        self.lines_of: Dict[int, list] = defaultdict(list)
        self.orders_of_customer: Dict[int, list] = defaultdict(list)
        self.orders_of_segment: Dict[str, list] = defaultdict(list)
        self.lines_of_year: Dict[int, list] = defaultdict(list)
        for order in data.orders:
            self._index_order(order)
        for line in data.lineitems:
            self._index_line(line)
        self._titles: Dict[str, str] = {}
        self._papers_of: Dict[str, list] = defaultdict(list)
        for triple in dataset.dblp_triples:
            if triple.predicate.value == DBLP_VOC + "title":
                self._titles[triple.subject.value] = triple.object.to_python()
            elif triple.predicate.value == DBLP_VOC + "partOf":
                self._papers_of[triple.object.value].append(triple.subject.value)

    def _index_order(self, order) -> None:
        self.orders_of_customer[order.custkey].append(order)
        self.orders_of_segment[self.customers[order.custkey].mktsegment].append(order)

    def _index_line(self, line) -> None:
        self.lines_of[line.orderkey].append(line)
        self.lines_of_year[line.shipdate.year].append(line)

    # -- updates ------------------------------------------------------------------

    def insert_order(self, order, lines: Iterable) -> int:
        """Apply one acknowledged ``INSERT DATA``; returns its triple count."""
        lines = list(lines)
        self.orders[order.orderkey] = order
        self._index_order(order)
        for line in lines:
            self._index_line(line)
        added = 7 + 10 * len(lines)
        self.inserted_triples += added
        return added

    def delete_lines(self, orderkey: int) -> int:
        """Apply one acknowledged lineitem ``DELETE WHERE``; returns the
        number of triples it must have removed."""
        lines = self.lines_of.pop(orderkey, [])
        for line in lines:
            self.lines_of_year[line.shipdate.year].remove(line)
        self.deleted_triples += 10 * len(lines)
        return 10 * len(lines)

    def live_triples(self) -> int:
        return self.base_distinct_triples + self.inserted_triples - self.deleted_triples

    # -- reference answers ---------------------------------------------------------

    def all_lines(self):
        for lines in self.lines_of.values():
            yield from lines

    def q6(self, year: int, discount: float, quantity: int) -> List[tuple]:
        low, high = q6_bounds(discount)
        revenue = 0.0
        for line in self.lines_of_year.get(year, ()):
            if low <= line.discount <= high and line.quantity < quantity:
                revenue += line.extendedprice * line.discount
        return [(revenue,)]

    def q3(self, segment: str, cutoff: date, limit: int = 10) -> List[tuple]:
        """``(orderkey, orderdate, revenue)`` in the query's output order."""
        rows = []
        for order in self.orders_of_segment.get(segment, ()):
            if not (cutoff - MAX_SHIP_DELAY <= order.orderdate < cutoff):
                continue
            open_lines = [line for line in self.lines_of.get(order.orderkey, ())
                          if line.shipdate > cutoff]
            if open_lines:
                revenue = sum(line.extendedprice * (1 - line.discount) for line in open_lines)
                rows.append((order.orderkey, order.orderdate, revenue))
        rows.sort(key=lambda row: (-row[2], row[1], row[0]))
        return rows[:limit]

    def q1(self, cutoff: str) -> List[tuple]:
        limit = date.fromisoformat(cutoff)
        groups: Dict[Tuple[str, str], list] = {}
        for line in self.all_lines():
            if line.shipdate > limit:
                continue
            acc = groups.setdefault((line.returnflag, line.linestatus), [0, 0.0, 0.0, 0])
            acc[0] += line.quantity
            acc[1] += line.extendedprice
            acc[2] += line.extendedprice * (1 - line.discount)
            acc[3] += 1
        return [key + tuple(acc) for key, acc in sorted(groups.items())]

    def expected(self, op: QueryOp) -> Tuple[List[tuple], bool]:
        """``(rows, ordered)`` the store must return for ``op``."""
        cls, params = op.cls, op.params
        if cls.startswith(("q6", "sql_q6")):
            return self.q6(*params), True
        if cls.startswith(("q3", "sql_q3")):
            rows = self.q3(*params)
            if op.frontend == "sql":
                return [(order_iri(k), d, rev) for k, d, rev in rows], True
            return [(order_iri(k), d, self.orders[k].shippriority, rev)
                    for k, d, rev in rows], True
        if cls == "q1":
            return self.q1(*params), True
        if cls == "star_lookup":
            return [(l.quantity, l.extendedprice, l.discount)
                    for l in self.all_lines() if l.returnflag == "R"], False
        if cls == "fk_hop":
            return [(l.quantity, l.extendedprice, l.discount) for l in self.all_lines()
                    if self.orders[l.orderkey].orderpriority == "1-URGENT"], False
        if cls == "cust_star":
            key, props = params
            return [tuple(_prop(self.customers[key], p) for p in props)], True
        if cls == "orders_of_customer":
            key, props = params
            return [(order_iri(o.orderkey),) + tuple(_prop(o, p) for p in props)
                    for o in self.orders_of_customer.get(key, ())], False
        if cls.startswith("lines_of_order"):
            key, props = params
            return [(lineitem_iri(l.orderkey, l.linenumber),) + tuple(_prop(l, p) for p in props)
                    for l in self.lines_of.get(key, ())], False
        if cls == "sql_order_range":
            start, end = params
            rows = [(order_iri(o.orderkey), o.totalprice) for o in self.orders.values()
                    if start <= o.orderdate < end]
            rows.sort(key=lambda row: -row[1])
            return rows[:10], True
        if cls == "papers_of_conference":
            conference = f"{DBLP}conf/{params[0]}"
            return [(paper, self._titles[paper]) for paper in self._papers_of.get(conference, ())
                    if paper in self._titles], False
        raise KeyError(f"no reference evaluator for class {cls!r}")

    def check(self, op: QueryOp, rows: Sequence[tuple]) -> bool:
        expected, ordered = self.expected(op)
        return rows_match(rows, expected, ordered)


def check_fresh_store(store, dataset: Dataset, min_coverage: float = 0.95) -> List[str]:
    """Structural checks of a just-built store: distinct-triple count, every
    RDF-H class surfaces as one table with the generated row count, and the
    emergent schema covers the data."""
    problems = []
    if store.triple_count() != dataset.distinct_triples:
        problems.append(f"store holds {store.triple_count()} triples, "
                        f"generated {dataset.distinct_triples} distinct")
    summary = store.storage_summary()
    if summary.get("triple_coverage", 0.0) < min_coverage:
        problems.append(f"triple coverage {summary.get('triple_coverage')} < {min_coverage}")
    for label, (attribute, column) in RDFH_CLASS_TABLES.items():
        expected = len(getattr(dataset.data, attribute))
        rows = store.decode_rows(store.sql(f"SELECT COUNT({column}) AS n FROM {label}"))
        if not rows or not values_match(rows[0][0], expected):
            problems.append(f"table {label} has {rows} rows, generated {expected}")
    return problems
