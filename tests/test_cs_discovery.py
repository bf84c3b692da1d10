"""Tests for characteristic-set detection, generalization, typing,
relationships, fine-tuning, labeling and summarization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import DblpConfig, DirtyConfig, figure2_example, generate_dblp, generate_dirty
from repro.cs import (
    DiscoveryConfig,
    GeneralizationConfig,
    Multiplicity,
    PropertyKind,
    RelationshipConfig,
    TypingConfig,
    coverage_at_threshold,
    detect_characteristic_sets,
    detection_from_triples,
    discover_schema,
    generalize,
    jaccard,
    summarize_by_keywords,
    summarize_by_support,
    support_histogram,
    top_k_summary,
)
from repro.cs.finetune import FinetuneConfig
from repro.model import IRI
from repro.storage import encode_graph, value_order_literals

EX = "http://example.org/dblp/schema/"


class TestDetection:
    def test_groups_by_exact_property_set(self):
        sets = {
            1: frozenset({10, 11}),
            2: frozenset({10, 11}),
            3: frozenset({10}),
        }
        result = detect_characteristic_sets(sets)
        assert len(result.exact_sets) == 2
        largest = result.exact_sets[0]  # largest support first
        assert largest.properties == frozenset({10, 11})
        assert largest.support == 2

    def test_detection_from_triples_counts_multiplicities(self):
        triples = [(1, 10, 100), (1, 10, 101), (1, 11, 102), (2, 10, 103)]
        result = detection_from_triples(triples)
        assert result.total_triples == 4
        assert result.subjects.tolist() == [1, 2]
        # the (subject, predicate) pairs in SPO order, each with its count
        assert result.subjects[result.pair_subject].tolist() == [1, 1, 2]
        assert result.pair_predicate.tolist() == [10, 11, 10]
        assert result.pair_count.tolist() == [2, 1, 1]
        assert [result.exact_sets[i].properties for i in result.exact_index] == [
            frozenset({10, 11}), frozenset({10})]

    def test_support_histogram_and_coverage(self):
        sets = {i: frozenset({1}) for i in range(8)}
        sets.update({100 + i: frozenset({2, 3}) for i in range(2)})
        result = detect_characteristic_sets(sets)
        histogram = support_histogram(result)
        assert histogram[8] == 1 and histogram[2] == 1
        assert coverage_at_threshold(result, 5) == pytest.approx(0.8)
        assert coverage_at_threshold(result, 1) == pytest.approx(1.0)


class TestGeneralization:
    def test_jaccard(self):
        assert jaccard(frozenset({1, 2}), frozenset({1, 2})) == 1.0
        assert jaccard(frozenset({1}), frozenset({2})) == 0.0
        assert jaccard(frozenset(), frozenset()) == 1.0

    def test_similar_sets_merge_with_nullable_property(self):
        sets = {}
        for i in range(20):
            sets[i] = frozenset({1, 2, 3})
        for i in range(20, 26):
            sets[i] = frozenset({1, 2, 3, 4})  # same class, one extra property
        result = generalize(detect_characteristic_sets(sets),
                            GeneralizationConfig(min_support=3, minority_presence=0.1))
        assert len(result.generalized) == 1
        gcs = result.generalized[0]
        assert gcs.properties == frozenset({1, 2, 3, 4})
        assert gcs.property_presence[4] == pytest.approx(6 / 26)

    def test_dissimilar_sets_stay_separate(self):
        sets = {}
        for i in range(10):
            sets[i] = frozenset({1, 2, 3})
        for i in range(10, 20):
            sets[i] = frozenset({7, 8, 9})
        result = generalize(detect_characteristic_sets(sets), GeneralizationConfig(min_support=3))
        assert len(result.generalized) == 2

    def test_small_sets_attach_or_become_irregular(self):
        sets = {i: frozenset({1, 2, 3}) for i in range(10)}
        sets[100] = frozenset({1, 2})        # similar: attaches
        sets[101] = frozenset({50, 51, 52})  # alien: irregular
        result = generalize(detect_characteristic_sets(sets),
                            GeneralizationConfig(min_support=3, attach_similarity=0.5))
        assert result.membership.cs_of([100, 101]).tolist() == [0, -1]  # -1: irregular

    def test_rare_property_dropped_below_minority_threshold(self):
        sets = {i: frozenset({1, 2}) for i in range(50)}
        sets[50] = frozenset({1, 2, 3})  # property 3 occurs once in 51 subjects
        result = generalize(detect_characteristic_sets(sets),
                            GeneralizationConfig(min_support=3, minority_presence=0.1))
        assert result.generalized[0].properties == frozenset({1, 2})

    def test_max_tables_cap(self):
        sets = {}
        for cls in range(5):
            for i in range(10):
                sets[cls * 100 + i] = frozenset({cls * 10 + 1, cls * 10 + 2})
        result = generalize(detect_characteristic_sets(sets),
                            GeneralizationConfig(min_support=3, max_tables=2))
        assert len(result.generalized) == 2

    def test_degenerate_input_promotes_largest(self):
        sets = {1: frozenset({1}), 2: frozenset({2})}
        result = generalize(detect_characteristic_sets(sets), GeneralizationConfig(min_support=10))
        assert len(result.generalized) >= 1

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(st.integers(0, 200),
                           st.frozensets(st.integers(0, 12), min_size=1, max_size=6),
                           min_size=1, max_size=80))
    def test_partition_invariants_property(self, sets):
        """Every subject is either in exactly one generalized CS or irregular."""
        result = generalize(detect_characteristic_sets(sets), GeneralizationConfig(min_support=2))
        covered = set(result.membership.subjects.tolist())  # every other subject is irregular
        assert covered <= set(sets)
        member_lists = [set(g.subjects.tolist()) for g in result.generalized]
        assert set().union(*member_lists) == covered
        for i, members in enumerate(member_lists):
            for other in member_lists[i + 1:]:
                assert not (members & other)


def _dblp_schema(return_report=False, **kwargs):
    triples = generate_dblp(DblpConfig(papers=150, conferences=10, authors=50))
    dictionary, matrix = encode_graph(triples)
    dictionary, matrix = value_order_literals(matrix, dictionary)
    config = DiscoveryConfig(generalization=GeneralizationConfig(min_support=3), **kwargs)
    out = discover_schema(matrix, dictionary, config, return_report=return_report)
    if return_report:
        return out[0], out[1], dictionary, matrix
    return out, dictionary, matrix


class TestFullDiscovery:
    def test_dblp_tables_and_foreign_keys(self):
        schema, dictionary, _matrix = _dblp_schema()
        labels = {t.label for t in schema.tables.values()}
        assert "Inproceedings" in labels
        assert "Person" in labels
        # partOf: Inproceedings -> Conference/Proceedings, creator -> Person
        part_of = dictionary.lookup_term(IRI(EX + "partOf"))
        creator = dictionary.lookup_term(IRI(EX + "creator"))
        fk_preds = {fk.predicate_oid for fk in schema.foreign_keys}
        assert part_of in fk_preds
        assert creator in fk_preds

    def test_dblp_coverage_is_high(self):
        schema, _dictionary, _matrix = _dblp_schema()
        assert schema.coverage.triple_coverage() > 0.85
        assert schema.coverage.subject_coverage() > 0.85

    def test_property_kinds(self):
        schema, dictionary, _matrix = _dblp_schema()
        issued = dictionary.lookup_term(IRI(EX + "issued"))
        title = dictionary.lookup_term(IRI(EX + "title"))
        kinds = {}
        for table in schema.tables.values():
            for prop, spec in table.properties.items():
                kinds[(table.label, prop)] = spec.kind
        assert any(prop == issued and kind is PropertyKind.INTEGER for (_l, prop), kind in kinds.items())
        assert any(prop == title and kind is PropertyKind.STRING for (_l, prop), kind in kinds.items())

    def test_multiplicity_classification(self):
        # lower the MANY threshold so the ~40% two-creator papers classify creator as 0..n
        schema, dictionary, _matrix = _dblp_schema(finetune=FinetuneConfig(many_multiplicity_threshold=1.25))
        creator = dictionary.lookup_term(IRI(EX + "creator"))
        inproc = next(t for t in schema.tables.values() if t.label == "Inproceedings")
        assert inproc.properties[creator].multiplicity is Multiplicity.MANY
        assert inproc.properties[creator].mean_multiplicity > 1.25
        title = dictionary.lookup_term(IRI(EX + "title"))
        assert inproc.properties[title].multiplicity in (Multiplicity.EXACTLY_ONE, Multiplicity.ZERO_OR_ONE)

    def test_indirect_support_counts_incoming_references(self):
        schema, _dictionary, _matrix = _dblp_schema()
        person = next(t for t in schema.tables.values() if t.label == "Person")
        assert person.indirect_support > 0

    def test_subject_to_cs_consistency(self):
        schema, _dictionary, _matrix = _dblp_schema()
        assert len(schema.membership) == sum(t.support for t in schema.tables.values())
        for cs_id, table in schema.tables.items():
            members = schema.membership.members(cs_id)
            assert members.size == table.support
            assert all(schema.cs_of_subject(subject) == cs_id for subject in members.tolist())

    def test_figure2_example_structure(self):
        dictionary, matrix = encode_graph(figure2_example())
        # at support >= 2 only the three inproceedings form a table; the venues
        # and the web page fall out of the regular schema (Fig. 2's irregular part)
        schema = discover_schema(matrix, dictionary,
                                 DiscoveryConfig(generalization=GeneralizationConfig(min_support=2)))
        labels = {t.label for t in schema.tables.values()}
        assert "Inproceedings" in labels
        webpage = dictionary.lookup_term(IRI("http://example.org/dblp/webpage1"))
        assert schema.cs_of_subject(webpage) is None
        assert schema.coverage.triple_coverage() < 1.0
        # at support >= 1 the venue table (conf1/conf2 merged by generalization)
        # appears as well, connected over the partOf foreign key
        permissive = discover_schema(matrix, dictionary,
                                     DiscoveryConfig(generalization=GeneralizationConfig(min_support=1)))
        assert len(permissive.tables) >= 2
        part_of = dictionary.lookup_term(IRI(EX + "partOf"))
        assert any(fk.predicate_oid == part_of for fk in permissive.foreign_keys)

    def test_typed_variant_splitting(self):
        triples = generate_dblp(DblpConfig(papers=60, conferences=6, authors=20))
        dictionary, matrix = encode_graph(triples)
        base = discover_schema(matrix, dictionary,
                               DiscoveryConfig(generalization=GeneralizationConfig(min_support=3)))
        split = discover_schema(matrix, dictionary,
                                DiscoveryConfig(generalization=GeneralizationConfig(min_support=3),
                                                typing=TypingConfig(split_variants=True)))
        assert len(split.tables) >= len(base.tables)

    def test_discover_from_property_sets_only(self):
        # a bare matrix, no dictionary: no typing, FK or labeling information
        matrix = np.asarray([(s, p, 100 + s) for s in range(10) for p in (1, 2, 3)])
        schema = discover_schema(matrix)
        assert len(schema.tables) == 1
        assert schema.coverage.subject_coverage() == 1.0

    def test_tables_with_properties_lookup(self):
        schema, dictionary, _matrix = _dblp_schema()
        title = dictionary.lookup_term(IRI(EX + "title"))
        issued = dictionary.lookup_term(IRI(EX + "issued"))
        tables = schema.tables_with_properties([title, issued])
        assert all(frozenset({title, issued}) <= t.property_oids() for t in tables)
        assert len(tables) >= 1


class TestDirtyDataCoverage:
    def test_coverage_tracks_ground_truth(self):
        dataset = generate_dirty(DirtyConfig(classes=4, subjects_per_class=60))
        dictionary, matrix = encode_graph(dataset.triples)
        schema = discover_schema(matrix, dictionary,
                                 DiscoveryConfig(generalization=GeneralizationConfig(min_support=5)))
        regular_fraction = dataset.regular_triple_count / dataset.total_triples()
        coverage = schema.coverage.triple_coverage()
        # discovered coverage should capture most of the known-regular part
        assert coverage >= 0.8 * regular_fraction
        assert len(schema.tables) >= 3

    def test_more_noise_means_lower_coverage(self):
        clean = generate_dirty(DirtyConfig(classes=3, subjects_per_class=50,
                                           noise_triples=0.0, chaotic_subjects=0, dropout=0.0))
        noisy = generate_dirty(DirtyConfig(classes=3, subjects_per_class=50,
                                           noise_triples=0.3, chaotic_subjects=60, dropout=0.3))
        coverages = []
        for dataset in (clean, noisy):
            dictionary, matrix = encode_graph(dataset.triples)
            schema = discover_schema(matrix, dictionary,
                                     DiscoveryConfig(generalization=GeneralizationConfig(min_support=5)))
            coverages.append(schema.coverage.triple_coverage())
        assert coverages[0] > coverages[1]


class TestSummarization:
    def test_summary_by_support_keeps_referenced_tables(self):
        schema, _dictionary, _matrix = _dblp_schema()
        biggest = schema.tables_by_support()[0]
        summary = summarize_by_support(schema, min_total_support=biggest.total_support())
        # tables referenced from the kept table are pulled in too
        assert biggest.cs_id in summary.table_ids
        for fk in schema.foreign_keys_from(biggest.cs_id):
            assert fk.target_cs in summary.table_ids

    def test_summary_by_keywords(self):
        schema, _dictionary, _matrix = _dblp_schema()
        summary = summarize_by_keywords(schema, ["inproceedings"], hops=1)
        assert summary.table_count() >= 1
        labels = {schema.tables[cs_id].label for cs_id in summary.table_ids}
        assert "Inproceedings" in labels

    def test_top_k(self):
        schema, _dictionary, _matrix = _dblp_schema()
        summary = top_k_summary(schema, 1)
        assert summary.table_count() == 1
        assert summary.foreign_keys == [fk for fk in schema.foreign_keys
                                        if fk.source_cs in summary.table_ids
                                        and fk.target_cs in summary.table_ids]

    def test_keyword_miss_returns_empty(self):
        schema, _dictionary, _matrix = _dblp_schema()
        summary = summarize_by_keywords(schema, ["zzz-no-such-table"])
        assert summary.table_count() == 0


class TestFinetuneConfigEffects:
    def test_prune_low_support(self):
        sets = {i: frozenset({1, 2}) for i in range(20)}
        sets.update({100 + i: frozenset({5, 6}) for i in range(3)})
        detection = detect_characteristic_sets(sets)
        config = DiscoveryConfig(
            generalization=GeneralizationConfig(min_support=2),
            finetune=FinetuneConfig(min_total_support=10),
        )
        matrix = np.asarray([(s, p, 1000 + p) for s, props in sets.items() for p in props],
                            dtype=np.int64)
        schema = discover_schema(matrix, dictionary=None, config=config)
        assert len(schema.tables) == 1
        assert detection.total_subjects() == 23
