"""The array build against the build one triple at a time.

Every ingest stage after the line pattern is an array pass over the OID
matrix (``encode_graph``, ``TermDictionary.remap``, ``cs.detect`` /
``generalize`` / ``typing``, ``plan_subject_clustering``); the loops they
replaced live on in ``tests/_oracles.py``.  Here both build the same graphs —
book / DBLP / dirty / RDF-H and hypothesis-drawn small ones — and must agree
on everything a store is made of: dictionary order, matrix, detection runs,
per-(CS, property) observations *including the order of their count dicts*
(the tie-breaks), the emergent schema down to its floats and list orders,
the clustering permutation and the clustered blocks.  Examples are
derandomized, like the rest of the suite's hypothesis tests.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import DblpConfig, DirtyConfig, generate_dblp, generate_dirty, tpch_to_triples
from repro.cs import (
    DiscoveryConfig,
    GeneralizationConfig,
    RelationshipConfig,
    TypingConfig,
    analyze_property_objects,
    detection_from_triples,
    discover_schema,
    generalize,
)
from repro.model import BNode, IRI, Literal, TermDictionary, Triple
from repro.model.terms import XSD_DECIMAL, XSD_INTEGER
from repro.storage import (
    ClusteredStore,
    cluster_subjects,
    encode_graph,
    plan_subject_clustering,
    value_order_literals,
)

from _datasets import book_triples, tiny_tpch
from _oracles import (
    per_row_cluster,
    per_row_clustered_build,
    per_row_clustering_plan,
    per_row_detection,
    per_row_discover_schema,
    per_row_observations,
    per_row_remap,
    per_triple_encode,
)

EX = "http://example.org/"


# -- what is compared -------------------------------------------------------------------


def schema_facts(schema) -> dict:
    """Everything an ``EmergentSchema`` says, dict and list orders included."""
    return {
        "tables": [(cs_id, table.cs_id, table.label, table.support, table.indirect_support,
                    table.merged_from, table.type_signature,
                    [(p, dataclasses.astuple(spec)) for p, spec in table.properties.items()])
                   for cs_id, table in schema.tables.items()],
        "foreign_keys": [dataclasses.astuple(fk) for fk in schema.foreign_keys],
        "coverage": dataclasses.astuple(schema.coverage),
        "subjects": schema.membership.subjects.tolist(),
        "cs_ids": schema.membership.cs_ids.tolist(),
    }


def observation_facts(observations) -> list:
    return [(key, list(obs.kind_counts.items()), list(obs.target_cs_counts.items()),
             obs.irregular_target_count, obs.total) for key, obs in observations.items()]


def block_facts(store: ClusteredStore) -> list:
    return [(block.cs_id, block.label, block.subject_column.data.tolist(),
             {p: column.data.tolist() for p, column in sorted(block.property_columns.items())},
             sorted(block.sorted_properties))
            for block in store.blocks] + [store.irregular.raw().tolist()]


def every_table_keyed(schema, pick: int) -> dict:
    """A sort key for every table: its ``pick``-th property (wrapping), which
    over a data set gives IRI- and literal-valued keys, keys some members
    lack and keys with several values."""
    return {cs_id: sorted(table.properties)[(pick + cs_id) % len(table.properties)]
            for cs_id, table in schema.tables.items() if table.properties}


def assert_same_build(triples, config: DiscoveryConfig, key_pick: int = 0) -> None:
    triples = list(triples)

    # encode: dictionary order and matrix, duplicates dropped at their first occurrence
    dictionary, matrix = encode_graph(triples)
    twin, twin_matrix = per_triple_encode(triples)
    assert list(dictionary.terms()) == list(twin.terms())
    assert matrix.dtype == np.int64 and matrix.tolist() == twin_matrix.tolist()

    # value order: the permutation is applied as the slot-by-slot remap applied it
    parse_order = dictionary
    dictionary, matrix = value_order_literals(matrix, dictionary)
    twin, old, new = twin.reassign_value_ordered_literals()
    assert list(dictionary.terms()) == list(twin.terms()) == per_row_remap(
        parse_order, dict(zip(old.tolist(), new.tolist())))
    assert all(dictionary.lookup_term(term) == oid for term, oid in dictionary.items())

    # detection: the SPO run structure says what the per-subject dicts said
    detection, expected = detection_from_triples(matrix), per_row_detection(matrix)
    assert detection.total_triples == expected.total_triples
    assert detection.subjects.tolist() == sorted(expected.subject_properties)
    assert [(cs.properties, cs.subjects.tolist()) for cs in detection.exact_sets] == expected.exact_sets
    assert {s: detection.exact_sets[i].properties for s, i in
            zip(detection.subjects.tolist(), detection.exact_index.tolist())} == expected.subject_properties
    multiplicities: dict = {}
    for s, p, count in zip(detection.subjects[detection.pair_subject].tolist(),
                           detection.pair_predicate.tolist(), detection.pair_count.tolist()):
        multiplicities.setdefault(s, {})[p] = count
    assert multiplicities == expected.property_multiplicities

    # observations: counts, and the first-seen order behind the tie-breaks
    membership = generalize(detection, config.generalization).membership
    assert observation_facts(analyze_property_objects(matrix, dictionary, membership)) == \
        observation_facts(per_row_observations(
            matrix, dictionary, dict(zip(membership.subjects.tolist(), membership.cs_ids.tolist()))))

    # the schema
    schema = discover_schema(matrix, dictionary, config)
    assert schema_facts(schema) == schema_facts(per_row_discover_schema(matrix, dictionary, config))

    # clustering: the permutation, then everything it rewrites, then the blocks
    for sort_keys in ({}, every_table_keyed(schema, key_pick)):
        plan = plan_subject_clustering(matrix, dictionary, schema, sort_keys)
        assert dict(zip(plan.old.tolist(), plan.new.tolist())) == \
            per_row_clustering_plan(matrix, dictionary, schema, sort_keys)
        live_dictionary, clustered, live_schema, applied = cluster_subjects(
            matrix, dictionary, schema, sort_keys)
        expected_matrix, expected_terms, expected_members = per_row_cluster(
            matrix, dictionary, schema, sort_keys)
        assert applied.old.tolist() == plan.old.tolist()
        assert clustered.tolist() == expected_matrix.tolist()
        assert list(live_dictionary.terms()) == expected_terms
        assert all(live_dictionary.lookup_term(term) == oid for term, oid in live_dictionary.items())
        assert dict(zip(live_schema.membership.subjects.tolist(),
                        live_schema.membership.cs_ids.tolist())) == expected_members
        assert block_facts(ClusteredStore.build(clustered, live_schema)) == \
            block_facts(per_row_clustered_build(expected_matrix, live_schema))


# -- the data sets ------------------------------------------------------------------------

SMALL = DiscoveryConfig(generalization=GeneralizationConfig(min_support=3))
VARIANTS = DiscoveryConfig(generalization=GeneralizationConfig(min_support=3),
                           typing=TypingConfig(split_variants=True, dominance_threshold=0.5))


def dblp():
    return generate_dblp(DblpConfig(papers=120, conferences=8, authors=40))


def dirty():
    return generate_dirty(DirtyConfig(classes=4, subjects_per_class=40, properties_per_class=5,
                                      chaotic_subjects=12, seed=7)).triples


def rdfh():
    return list(tpch_to_triples(tiny_tpch()))


@pytest.mark.parametrize("triples, config, key_pick", [
    (book_triples, SMALL, 0),
    (book_triples, VARIANTS, 2),
    (dblp, SMALL, 1),
    (dblp, VARIANTS, 0),
    (dirty, DiscoveryConfig(), 0),
    (dirty, VARIANTS, 3),
    (rdfh, DiscoveryConfig(), 1),
], ids=["book", "book-variants", "dblp", "dblp-variants", "dirty", "dirty-variants", "rdfh"])
def test_data_sets_build_identically(triples, config, key_pick):
    assert_same_build(triples(), config, key_pick)


def test_duplicated_and_shuffled_input_builds_identically():
    """Every triple twice, the second copies interleaved out of subject order."""
    triples = dirty()
    assert_same_build(triples + triples[::-3] + triples[1::2], SMALL)


def test_empty_input_builds_identically():
    assert_same_build([], DiscoveryConfig())
    dictionary, matrix = encode_graph([])
    assert len(dictionary) == 0 and matrix.shape == (0, 3)


# -- drawn graphs ---------------------------------------------------------------------------

RESOURCES = [IRI(f"{EX}r{i}") for i in range(7)] + [BNode("b0"), BNode("b1")]
PREDICATES = [IRI(f"{EX}p{i}") for i in range(5)]
LITERALS = [Literal("1", datatype=XSD_INTEGER), Literal("2", datatype=XSD_INTEGER),
            Literal("1.0", datatype=XSD_DECIMAL),  # ties with the integer 1 as a sort key
            Literal("1"), Literal("a"), Literal("b"), Literal("a", language="en"),
            Literal("2001-02-03")]
TRIPLES = st.builds(Triple, st.sampled_from(RESOURCES), st.sampled_from(PREDICATES),
                    st.sampled_from(RESOURCES + LITERALS))
CONFIGS = st.builds(
    DiscoveryConfig,
    generalization=st.builds(GeneralizationConfig, min_support=st.integers(1, 3),
                             minority_presence=st.sampled_from([0.1, 0.5])),
    typing=st.builds(TypingConfig, dominance_threshold=st.sampled_from([0.3, 0.5, 0.9]),
                     split_variants=st.booleans(), min_variant_support=st.integers(1, 3)),
    relationships=st.builds(RelationshipConfig, min_confidence=st.sampled_from([0.3, 0.5, 0.8])),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.lists(TRIPLES, max_size=40), CONFIGS, st.integers(0, 4))
def test_drawn_graphs_build_identically(triples, config, key_pick):
    """Small pools, so exact duplicates, multi-valued properties, blank-node
    subjects, IRI- and literal-valued sort keys, key ties, members lacking
    the key, and kind / target ties under low thresholds all occur."""
    assert_same_build(triples, config, key_pick)


# -- remap keeps its contract ------------------------------------------------------------------


def test_a_refused_remap_leaves_the_dictionary_alone():
    from repro.errors import DictionaryError

    dictionary = TermDictionary()
    oids = [dictionary.encode_term(term) for term in RESOURCES[:4]]
    for old, new in (([0], [1]), ([0, 1], [1, 1]), ([0], [4]), ([-1], [0]), ([7], [0]), ([0, 1], [1])):
        with pytest.raises(DictionaryError):
            dictionary.remap(old, new)
        assert list(dictionary.terms()) == RESOURCES[:4]
        assert [dictionary.lookup_term(term) for term in RESOURCES[:4]] == oids
