"""Shared deterministic test datasets.

A plain importable module (unlike ``conftest``, whose bare module name is
ambiguous when tests and benchmarks run in one pytest invocation) so test
files can use the canonical fixtures' data at import time without carrying
private copies.
"""

from __future__ import annotations

from repro import RDFStore, StoreConfig
from repro.bench import (
    DblpConfig,
    TpchConfig,
    generate_dblp,
    generate_tpch,
    sub_order_keys,
    tpch_to_triples,
)
from repro.cs import DiscoveryConfig, GeneralizationConfig
from repro.model import IRI, Literal, Triple
from repro.model.terms import RDF_TYPE, XSD_INTEGER

EX = "http://example.org/"


def book_triples(books: int = 30, authors: int = 5, with_irregular: bool = True):
    """A small, fully deterministic bibliographic graph used across tests."""
    triples = []
    type_pred = IRI(RDF_TYPE)
    for i in range(authors):
        author = IRI(f"{EX}author/{i}")
        triples.append(Triple(author, type_pred, IRI(f"{EX}Person")))
        triples.append(Triple(author, IRI(f"{EX}name"), Literal(f"Author {i}")))
    for i in range(books):
        book = IRI(f"{EX}book/{i}")
        triples.append(Triple(book, type_pred, IRI(f"{EX}Book")))
        triples.append(Triple(book, IRI(f"{EX}has_author"), IRI(f"{EX}author/{i % authors}")))
        triples.append(Triple(book, IRI(f"{EX}in_year"),
                              Literal(str(1990 + i % 15), datatype=XSD_INTEGER)))
        triples.append(Triple(book, IRI(f"{EX}isbn_no"), Literal(f"isbn-{i:04d}")))
    if with_irregular:
        page = IRI(f"{EX}webpage/1")
        triples.append(Triple(page, IRI(f"{EX}url"), Literal("index.php")))
        triples.append(Triple(page, IRI(f"{EX}content"), Literal("content.php")))
    return triples


def person_address_triples(people: int = 40):
    """Persons each linked 1-1 to an address of their own: under
    ``small_graph_config()`` fine-tuning merges the pair into one table and
    every address subject is left without one."""
    triples = []
    for i in range(people):
        person, address = IRI(f"{EX}person/{i}"), IRI(f"{EX}addr/{i}")
        triples.append(Triple(person, IRI(f"{EX}name"), Literal(f"Name {i}")))
        triples.append(Triple(person, IRI(f"{EX}age"),
                              Literal(str(20 + i), datatype=XSD_INTEGER)))
        triples.append(Triple(person, IRI(f"{EX}address"), address))
        triples.append(Triple(address, IRI(f"{EX}street"), Literal(f"Street {i}")))
        triples.append(Triple(address, IRI(f"{EX}city"), Literal(f"City {i % 5}")))
    return triples


# -- the canonical stores (session fixtures in ``conftest``; also built by the
#    golden-plan generator, which runs outside pytest) ---------------------------------


def small_graph_config() -> StoreConfig:
    """Permissive discovery so small graphs keep their CSs."""
    return StoreConfig(discovery=DiscoveryConfig(
        generalization=GeneralizationConfig(min_support=3)))


def build_book_store() -> RDFStore:
    return RDFStore.build(book_triples(), config=small_graph_config())


def build_dblp_store() -> RDFStore:
    return RDFStore.build(generate_dblp(DblpConfig(papers=120, conferences=8, authors=40)),
                          config=small_graph_config())


def tiny_tpch():
    """A tiny deterministic TPC-H data set (same rows for every caller)."""
    return generate_tpch(TpchConfig(scale_factor=0.0004))


def build_rdfh_store(tpch) -> RDFStore:
    """Clustered RDF-H, sub-ordered like the paper."""
    return RDFStore.build(list(tpch_to_triples(tpch)), sort_key_names=sub_order_keys(),
                          cluster=True)


def build_rdfh_parseorder_store(tpch) -> RDFStore:
    """The same RDF-H data without subject clustering (ParseOrder baseline)."""
    return RDFStore.build(list(tpch_to_triples(tpch)), cluster=False)
