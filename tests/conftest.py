"""Shared fixtures: small deterministic datasets and pre-built stores."""

from __future__ import annotations

import pytest

from repro.model import Graph
from repro.obs import default_registry
from repro.storage import ORDERS

from _datasets import (  # noqa: F401 - EX / book_triples re-exported for tests
    EX,
    book_triples,
    build_book_store,
    build_dblp_store,
    build_rdfh_parseorder_store,
    build_rdfh_store,
    tiny_tpch,
)


@pytest.fixture()
def projection_sorts():
    """A reader of ``projection_sorts_total``: per order, how many triple
    tables this process has sorted so far."""
    def read() -> dict:
        samples = default_registry().collect()
        return {order: samples.get(f'projection_sorts_total{{order="{order}"}}', 0)
                for order in ORDERS}
    return read


@pytest.fixture(scope="session")
def book_graph():
    return Graph(book_triples())


@pytest.fixture(scope="session")
def book_store():
    """A clustered store over the bibliographic graph."""
    return build_book_store()


@pytest.fixture(scope="session")
def dblp_store():
    """A clustered store over the DBLP-like generator output."""
    return build_dblp_store()


@pytest.fixture(scope="session")
def tpch_tiny():
    """A tiny deterministic TPC-H data set (same rows for every test)."""
    return tiny_tpch()


@pytest.fixture(scope="session")
def rdfh_store(tpch_tiny):
    """A clustered RDF-H store at tiny scale, sub-ordered like the paper."""
    return build_rdfh_store(tpch_tiny)


@pytest.fixture(scope="session")
def rdfh_parseorder_store(tpch_tiny):
    """The same RDF-H data without subject clustering (ParseOrder baseline)."""
    return build_rdfh_parseorder_store(tpch_tiny)
