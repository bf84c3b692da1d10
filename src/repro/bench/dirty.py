"""Synthetic dirty ("web-crawl like") RDF generator.

The paper's future-work evaluation targets web-crawled RDF, "the dirtiest
data encountered in practice".  This generator produces data with a known
regular backbone plus controllable noise so the discovery pipeline's
coverage can be measured against ground truth:

* a configurable number of classes, each with its own property set;
* per-subject property *dropout* (missing values);
* *noisy predicates*: low-frequency, misspelled property names attached to
  random subjects;
* *chaotic subjects* that follow no class at all;
* mixed object types for a fraction of the properties.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from ..model import IRI, Literal, Triple
from ..model.terms import RDF_TYPE

CRAWL = "http://example.org/crawl/"
VOC = CRAWL + "vocab/"


@dataclass(frozen=True)
class DirtyConfig:
    """Noise and size knobs."""

    classes: int = 5
    subjects_per_class: int = 120
    properties_per_class: int = 6
    dropout: float = 0.1
    """Probability that a subject omits any given optional property."""
    noise_triples: float = 0.05
    """Noisy predicate triples as a fraction of the regular triple count."""
    chaotic_subjects: int = 25
    """Subjects with entirely random property combinations."""
    mixed_type_fraction: float = 0.2
    """Fraction of properties whose objects mix strings and integers."""
    seed: int = 99


@dataclass
class DirtyDataset:
    """Generated triples plus the ground truth used by coverage tests."""

    triples: List[Triple]
    regular_subject_count: int
    regular_triple_count: int
    class_of_subject: Dict[str, int]

    def total_triples(self) -> int:
        return len(self.triples)


def generate_dirty(config: DirtyConfig | None = None) -> DirtyDataset:
    """Generate a dirty data set with known regular backbone.

    Each predicate and class IRI is built once and shared by every triple
    naming it (see :func:`repro.bench.rdfh.tpch_to_triples`).
    """
    config = config or DirtyConfig()
    rng = random.Random(config.seed)
    triples: List[Triple] = []
    class_of_subject: Dict[str, int] = {}
    type_pred = IRI(RDF_TYPE)
    regular_triples = 0

    properties: Dict[int, List[str]] = {}
    mixed: Dict[str, bool] = {}
    predicate_of: Dict[str, IRI] = {}
    for cls in range(config.classes):
        names = [f"{VOC}c{cls}_p{i}" for i in range(config.properties_per_class)]
        properties[cls] = names
        for name in names:
            mixed[name] = rng.random() < config.mixed_type_fraction
            predicate_of[name] = IRI(name)

    for cls in range(config.classes):
        class_iri = IRI(f"{VOC}Class{cls}")
        for index in range(config.subjects_per_class):
            subject = IRI(f"{CRAWL}entity/{cls}/{index}")
            class_of_subject[subject.value] = cls
            triples.append(Triple(subject, type_pred, class_iri))
            regular_triples += 1
            for position, prop in enumerate(properties[cls]):
                # the first two properties are mandatory, the rest can drop out
                if position >= 2 and rng.random() < config.dropout:
                    continue
                triples.append(Triple(subject, predicate_of[prop],
                                      _object_for(prop, index, mixed, rng)))
                regular_triples += 1

    regular_subject_count = config.classes * config.subjects_per_class

    noise_count = int(regular_triples * config.noise_triples)
    all_regular_subjects = [s for s in class_of_subject]
    noise_predicates = [IRI(f"{VOC}noise_{k}") for k in range(51)]
    for i in range(noise_count):
        subject = IRI(rng.choice(all_regular_subjects))
        predicate = noise_predicates[rng.randint(0, 50)]
        triples.append(Triple(subject, predicate, Literal(f"noise-{i}")))

    for i in range(config.chaotic_subjects):
        subject = IRI(f"{CRAWL}chaos/{i}")
        for _ in range(rng.randint(1, 4)):
            cls = rng.randrange(config.classes)
            prop = rng.choice(properties[cls])
            triples.append(Triple(subject, predicate_of[prop], Literal(f"chaos-{i}")))

    return DirtyDataset(
        triples=triples,
        regular_subject_count=regular_subject_count,
        regular_triple_count=regular_triples,
        class_of_subject=class_of_subject,
    )


def _object_for(prop: str, index: int, mixed: Dict[str, bool], rng: random.Random):
    if mixed.get(prop) and rng.random() < 0.5:
        return Literal(str(rng.randint(0, 10_000)),
                       datatype="http://www.w3.org/2001/XMLSchema#integer")
    return Literal(f"{prop.rsplit('/', 1)[-1]}-value-{index}")
