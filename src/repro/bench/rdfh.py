"""RDF-H: the 1:1 mapping of TPC-H to RDF used by the paper's evaluation.

Every row becomes one subject IRI; every column one triple.  Foreign keys
become object properties (``rdfh:l_orderkey`` points at the ORDERS subject,
``rdfh:o_custkey`` at the CUSTOMER subject), which is what lets the schema
discovery recover the TPC-H foreign-key graph and the clustered store
sub-order LINEITEM on ``shipdate`` / ORDERS on ``orderdate``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from ..model import IRI, Literal, Triple, literal_from_python
from ..model.terms import RDF_TYPE, XSD_DATE
from .tpch import LineItem, Order, TpchConfig, TpchData, generate_tpch

RDFH = "http://example.org/rdfh/"
RDFH_VOC = RDFH + "schema/"

CLASS_CUSTOMER = RDFH_VOC + "Customer"
CLASS_ORDER = RDFH_VOC + "Order"
CLASS_LINEITEM = RDFH_VOC + "Lineitem"

# predicate IRIs, named after the TPC-H columns
P_TYPE = RDF_TYPE
P_C_NAME = RDFH_VOC + "c_name"
P_C_MKTSEGMENT = RDFH_VOC + "c_mktsegment"
P_C_NATION = RDFH_VOC + "c_nation"
P_C_ACCTBAL = RDFH_VOC + "c_acctbal"
P_O_CUSTKEY = RDFH_VOC + "o_custkey"
P_O_ORDERDATE = RDFH_VOC + "o_orderdate"
P_O_ORDERSTATUS = RDFH_VOC + "o_orderstatus"
P_O_ORDERPRIORITY = RDFH_VOC + "o_orderpriority"
P_O_SHIPPRIORITY = RDFH_VOC + "o_shippriority"
P_O_TOTALPRICE = RDFH_VOC + "o_totalprice"
P_L_ORDERKEY = RDFH_VOC + "l_orderkey"
P_L_LINENUMBER = RDFH_VOC + "l_linenumber"
P_L_QUANTITY = RDFH_VOC + "l_quantity"
P_L_EXTENDEDPRICE = RDFH_VOC + "l_extendedprice"
P_L_DISCOUNT = RDFH_VOC + "l_discount"
P_L_TAX = RDFH_VOC + "l_tax"
P_L_SHIPDATE = RDFH_VOC + "l_shipdate"
P_L_RETURNFLAG = RDFH_VOC + "l_returnflag"
P_L_LINESTATUS = RDFH_VOC + "l_linestatus"


def customer_iri(custkey: int) -> IRI:
    return IRI(f"{RDFH}customer/{custkey}")


def order_iri(orderkey: int) -> IRI:
    return IRI(f"{RDFH}order/{orderkey}")


def lineitem_iri(orderkey: int, linenumber: int) -> IRI:
    return IRI(f"{RDFH}lineitem/{orderkey}-{linenumber}")


def tpch_to_triples(data: TpchData) -> Iterator[Triple]:
    """Map generated TPC-H rows to RDF-H triples (one pass, streaming).

    Each predicate and class IRI is built once per call and shared by every
    triple naming it, as :func:`repro.rio.parse_ntriples` shares a
    document's predicates: a held list of triples then pays for its
    subjects and objects, not for one predicate object per triple.
    """
    type_pred, customer_class, order_class, lineitem_class = map(
        IRI, (P_TYPE, CLASS_CUSTOMER, CLASS_ORDER, CLASS_LINEITEM))
    c_name, c_mktsegment, c_nation, c_acctbal = map(
        IRI, (P_C_NAME, P_C_MKTSEGMENT, P_C_NATION, P_C_ACCTBAL))
    for customer in data.customers:
        subject = customer_iri(customer.custkey)
        yield Triple(subject, type_pred, customer_class)
        yield Triple(subject, c_name, Literal(customer.name))
        yield Triple(subject, c_mktsegment, Literal(customer.mktsegment))
        yield Triple(subject, c_nation, Literal(customer.nation))
        yield Triple(subject, c_acctbal, literal_from_python(customer.acctbal))
    o_custkey, o_orderdate, o_orderstatus, o_orderpriority, o_shippriority, o_totalprice = map(
        IRI, (P_O_CUSTKEY, P_O_ORDERDATE, P_O_ORDERSTATUS, P_O_ORDERPRIORITY,
              P_O_SHIPPRIORITY, P_O_TOTALPRICE))
    for order in data.orders:
        subject = order_iri(order.orderkey)
        yield Triple(subject, type_pred, order_class)
        yield Triple(subject, o_custkey, customer_iri(order.custkey))
        yield Triple(subject, o_orderdate, Literal(order.orderdate.isoformat(), datatype=XSD_DATE))
        yield Triple(subject, o_orderstatus, Literal(order.orderstatus))
        yield Triple(subject, o_orderpriority, Literal(order.orderpriority))
        yield Triple(subject, o_shippriority, literal_from_python(order.shippriority))
        yield Triple(subject, o_totalprice, literal_from_python(order.totalprice))
    (l_orderkey, l_linenumber, l_quantity, l_extendedprice, l_discount, l_tax, l_shipdate,
     l_returnflag, l_linestatus) = map(
        IRI, (P_L_ORDERKEY, P_L_LINENUMBER, P_L_QUANTITY, P_L_EXTENDEDPRICE, P_L_DISCOUNT,
              P_L_TAX, P_L_SHIPDATE, P_L_RETURNFLAG, P_L_LINESTATUS))
    for line in data.lineitems:
        subject = lineitem_iri(line.orderkey, line.linenumber)
        yield Triple(subject, type_pred, lineitem_class)
        yield Triple(subject, l_orderkey, order_iri(line.orderkey))
        yield Triple(subject, l_linenumber, literal_from_python(line.linenumber))
        yield Triple(subject, l_quantity, literal_from_python(line.quantity))
        yield Triple(subject, l_extendedprice, literal_from_python(line.extendedprice))
        yield Triple(subject, l_discount, literal_from_python(line.discount))
        yield Triple(subject, l_tax, literal_from_python(line.tax))
        yield Triple(subject, l_shipdate, Literal(line.shipdate.isoformat(), datatype=XSD_DATE))
        yield Triple(subject, l_returnflag, Literal(line.returnflag))
        yield Triple(subject, l_linestatus, Literal(line.linestatus))


def generate_rdfh_triples(scale_factor: float = 0.01, seed: int = 20130408) -> List[Triple]:
    """Generate RDF-H triples at the given scale factor."""
    data = generate_tpch(TpchConfig(scale_factor=scale_factor, seed=seed))
    return list(tpch_to_triples(data))


def expected_subject_counts(data: TpchData) -> Dict[str, int]:
    """Expected number of subjects per RDF-H class (for tests)."""
    return {
        CLASS_CUSTOMER: len(data.customers),
        CLASS_ORDER: len(data.orders),
        CLASS_LINEITEM: len(data.lineitems),
    }


def sub_order_keys() -> Dict[str, str]:
    """The sub-ordering the paper applies: LINEITEM on shipdate, ORDERS on orderdate.

    Keys are emergent-table labels (the labeling pass names tables after their
    ``rdf:type`` object's local name), values are predicate IRIs.
    """
    return {
        "Lineitem": P_L_SHIPDATE,
        "Order": P_O_ORDERDATE,
    }
