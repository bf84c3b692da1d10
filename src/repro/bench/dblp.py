"""DBLP-like RDF generator (the data of the paper's Figure 2).

Generates a small bibliographic graph with the structure Figure 2 shows:

* ``inproceedings`` entities with ``type``, ``creator`` (1..2 values),
  ``title`` and ``partOf`` (a foreign key to a conference);
* ``conference`` / ``proceedings`` entities with ``type``, ``title`` and
  ``issued``;
* ``person`` entities with ``type`` and ``name``;
* configurable *irregularities*: web-page subjects with ad-hoc properties,
  missing titles, stray ``seeAlso`` triples and duplicated creators — the
  kind of dirtiness the generalization pass has to absorb.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from ..model import IRI, Literal, Triple
from ..model.terms import RDF_TYPE

DBLP = "http://example.org/dblp/"
VOC = DBLP + "schema/"

CLASS_INPROCEEDINGS = VOC + "Inproceedings"
CLASS_CONFERENCE = VOC + "Conference"
CLASS_PROCEEDINGS = VOC + "Proceedings"
CLASS_PERSON = VOC + "Person"

P_CREATOR = VOC + "creator"
P_TITLE = VOC + "title"
P_PART_OF = VOC + "partOf"
P_ISSUED = VOC + "issued"
P_NAME = VOC + "name"
P_SEE_ALSO = VOC + "seeAlso"
P_HOMEPAGE = VOC + "homepage"
P_CONTENT = VOC + "content"


@dataclass(frozen=True)
class DblpConfig:
    """Size and dirtiness knobs of the generator."""

    papers: int = 200
    conferences: int = 12
    authors: int = 80
    seed: int = 7
    irregularity: float = 0.05
    """Fraction of papers that get an extra ad-hoc property, and of web-page
    subjects relative to the paper count."""
    missing_title_fraction: float = 0.02
    multi_author_fraction: float = 0.4


def generate_dblp(config: DblpConfig | None = None) -> List[Triple]:
    """Generate the DBLP-like triple set.

    Each predicate and class IRI is built once and shared by every triple
    naming it (see :func:`repro.bench.rdfh.tpch_to_triples`).
    """
    config = config or DblpConfig()
    rng = random.Random(config.seed)
    triples: List[Triple] = []
    type_pred = IRI(RDF_TYPE)
    person, conference_class, proceedings, inproceedings = map(
        IRI, (CLASS_PERSON, CLASS_CONFERENCE, CLASS_PROCEEDINGS, CLASS_INPROCEEDINGS))
    name, title, issued, creator, part_of, see_also, homepage, content = map(
        IRI, (P_NAME, P_TITLE, P_ISSUED, P_CREATOR, P_PART_OF, P_SEE_ALSO, P_HOMEPAGE, P_CONTENT))

    authors = [IRI(f"{DBLP}author/{i}") for i in range(config.authors)]
    for i, author in enumerate(authors):
        triples.append(Triple(author, type_pred, person))
        triples.append(Triple(author, name, Literal(f"Author {i}")))

    conferences = [IRI(f"{DBLP}conf/{i}") for i in range(config.conferences)]
    for i, conference in enumerate(conferences):
        cls = conference_class if i % 2 == 0 else proceedings
        triples.append(Triple(conference, type_pred, cls))
        triples.append(Triple(conference, title, Literal(f"conference{i}")))
        triples.append(Triple(conference, issued, Literal(str(2000 + i % 14),
                                                          datatype="http://www.w3.org/2001/XMLSchema#integer")))

    for i in range(config.papers):
        paper = IRI(f"{DBLP}inproc/{i}")
        triples.append(Triple(paper, type_pred, inproceedings))
        triples.append(Triple(paper, creator, rng.choice(authors)))
        if rng.random() < config.multi_author_fraction:
            triples.append(Triple(paper, creator, rng.choice(authors)))
        if rng.random() >= config.missing_title_fraction:
            triples.append(Triple(paper, title, Literal(f"Paper title {i}")))
        triples.append(Triple(paper, part_of, rng.choice(conferences)))
        if rng.random() < config.irregularity:
            triples.append(Triple(paper, see_also, IRI(f"{DBLP}webpage/{i}")))

    webpage_count = int(config.papers * config.irregularity)
    for i in range(webpage_count):
        page = IRI(f"{DBLP}webpage/{i}")
        triples.append(Triple(page, homepage, Literal("index.php")))
        if rng.random() < 0.5:
            triples.append(Triple(page, content, Literal("content.php")))

    return triples


def figure2_example() -> List[Triple]:
    """The literal Figure 2 example graph: three papers, two venues, one
    irregular web-page subject."""
    type_pred = IRI(RDF_TYPE)
    inproc = [IRI(f"{DBLP}inproc{i}") for i in (1, 2, 3)]
    conf1, conf2 = IRI(f"{DBLP}conf1"), IRI(f"{DBLP}conf2")
    authors = {name: IRI(f"{DBLP}{name}") for name in ("author2", "author3", "author4")}
    webpage = IRI(f"{DBLP}webpage1")
    triples = [
        Triple(inproc[0], type_pred, IRI(CLASS_INPROCEEDINGS)),
        Triple(inproc[0], IRI(P_CREATOR), authors["author3"]),
        Triple(inproc[0], IRI(P_CREATOR), authors["author4"]),
        Triple(inproc[0], IRI(P_TITLE), Literal("AAA")),
        Triple(inproc[0], IRI(P_PART_OF), conf1),
        Triple(inproc[1], type_pred, IRI(CLASS_INPROCEEDINGS)),
        Triple(inproc[1], IRI(P_CREATOR), authors["author2"]),
        Triple(inproc[1], IRI(P_TITLE), Literal("BBB")),
        Triple(inproc[1], IRI(P_PART_OF), conf1),
        Triple(inproc[2], type_pred, IRI(CLASS_INPROCEEDINGS)),
        Triple(inproc[2], IRI(P_CREATOR), authors["author3"]),
        Triple(inproc[2], IRI(P_TITLE), Literal("CCC")),
        Triple(inproc[2], IRI(P_PART_OF), conf2),
        Triple(conf1, type_pred, IRI(CLASS_CONFERENCE)),
        Triple(conf1, IRI(P_TITLE), Literal("conference1")),
        Triple(conf1, IRI(P_ISSUED), Literal("2010")),
        Triple(conf2, type_pred, IRI(CLASS_PROCEEDINGS)),
        Triple(conf2, IRI(P_TITLE), Literal("conference2")),
        Triple(conf2, IRI(P_ISSUED), Literal("2011")),
        # irregular part: a web page hanging off conf2 plus its own ad-hoc triples
        Triple(conf2, IRI(P_SEE_ALSO), webpage),
        Triple(webpage, IRI(P_HOMEPAGE), Literal("index.php")),
        Triple(webpage, IRI(P_CONTENT), Literal("content.php")),
    ]
    return triples
