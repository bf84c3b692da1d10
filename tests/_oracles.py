"""Reference implementations the engine no longer ships, kept as test oracles.

All were the production code — until the literal order index moved into
``TermDictionary``, the residual star scan became set-at-a-time, the
engine started leaving OID space one column at a time and the clustered
store started routing rows through the schema's membership arrays:

* :func:`sorted_literal_oids` / :func:`oracle_literal_range` — the full
  Python sort of every literal plus bisect over a materialised key list
  that the engine's value encoder used to rebuild after every update, and
  :func:`in_literal_range`, a range decided from the decoded term;
* :func:`star_over_union` — the per-subject loop that answered a star for
  residual subjects from block + irregular + delta data, one subject and
  one cartesian product at a time (a subject without one value of an
  all-optional star is a row only when its table has the star's columns),
  and :func:`filed_subjects`, the one admission rule applied to each
  written subject's live triples, one subject at a time;
* :class:`PerCellDecoder` — ``ValueDecoder.numeric`` / ``python_value`` and
  the ``.item()``-per-cell ``QueryResult.rows`` / ``decoded_rows``: one
  dictionary probe, one ``isinstance`` and one ``to_python()`` per cell;
* :func:`per_row_clustered_build` — ``ClusteredStore.build`` as a dict probe
  per triple plus a per-row fill loop behind a ``position_of`` dict;
* :func:`scan_ntriples_line` — the hand-written character scanner that read
  an N-Triples line (and, one term at a time, the dictionary file) before
  the readers were composed from ``repro.model.syntax``'s one term grammar;
* :func:`per_triple_encode`, :func:`per_row_detection`,
  :func:`per_row_generalize`, :func:`per_row_observations`,
  :func:`per_row_split_variants`, :func:`per_row_clustering_plan` and
  :func:`per_row_remap` — the build one triple at a time, over dicts and sets
  of tuples (``encode_graph``, ``cs.detect`` / ``generalize`` / ``typing``,
  ``plan_subject_clustering``, ``TermDictionary.remap``), before each stage
  became an array pass over the OID matrix; :func:`per_row_discover_schema`
  and :func:`per_row_cluster` run them as the pipeline did;
* :func:`full_sort_value_order`, :func:`per_table_statistics`,
  :func:`per_table_coverage` and :func:`per_character_escape` — what a
  checkpoint redid over the whole store, whatever the delta: one Python
  sort of every literal, one full-matrix mask per table and per property
  and a character-at-a-time escape of every literal written to
  ``dictionary.nt``;
* :func:`without_zone_maps` — a context whose clustered blocks carry no zone
  map, which is what the star operators read before they pruned by zone
  map whenever a block has one.

A plain importable module for the same reason as ``_datasets``.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left, bisect_right
from collections import defaultdict
from types import SimpleNamespace
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.columnar import NULL_OID, Column, ZoneMap
from repro.cs import (
    SchemaCoverage,
    DiscoveryConfig,
    GeneralizationConfig,
    Membership,
    Multiplicity,
    PropertyKind,
    assign_property_kinds,
    discover_relationships,
    finetune_schema,
    jaccard,
    label_schema,
    match_characteristic_set,
    measure_coverage,
)
from repro.cs.builder import _assemble_schema
from repro.cs.generalize import GeneralizationResult, GeneralizedCS
from repro.cs.typing import PropertyObservation, TypingConfig, term_kind
from repro.engine.bindings import BindingTable
from repro.engine.plan import OidRange, StarPattern, StarProperty
from repro.errors import ParseError
from repro.model import BNode, IRI, Literal, TermDictionary, Triple
from repro.model.terms import term_sort_key
from repro.storage import ClusteredStore, TripleTable
from repro.storage.clustered import CSBlock, _is_sorted_ignoring_nulls


# -- the per-cell value bridge -----------------------------------------------------------


class PerCellDecoder:
    """The value bridge one cell at a time, remembering nothing."""

    def __init__(self, dictionary: TermDictionary) -> None:
        self.dictionary = dictionary

    def numeric(self, oid: int) -> float:
        """Numeric value of an OID (NaN for non-numeric or NULL terms)."""
        if oid >= 0:
            term = self.dictionary.decode(oid)
            if isinstance(term, Literal):
                python_value = term.to_python()
                if isinstance(python_value, bool):
                    return 1.0 if python_value else 0.0
                if isinstance(python_value, (int, float)):
                    return float(python_value)
        return float("nan")

    def numeric_column(self, oids) -> np.ndarray:
        out = np.empty(len(oids), dtype=np.float64)
        for i, oid in enumerate(oids):
            out[i] = self.numeric(int(oid))
        return out

    def python_value(self, oid: int):
        """Decoded Python value of an OID; any negative OID is NULL."""
        if oid < 0:
            return None
        term = self.dictionary.decode(int(oid))
        if isinstance(term, Literal):
            return term.to_python()
        return str(term)

    def python_column(self, oids) -> list:
        return [self.python_value(int(oid)) for oid in oids]

    @staticmethod
    def rows(result) -> List[tuple]:
        """``QueryResult.rows()``: OID/value rows in column order."""
        arrays = [result.bindings.column(name) for name in result.columns]
        return [tuple(array[i].item() for array in arrays)
                for i in range(result.bindings.num_rows)]

    def decoded_rows(self, result) -> List[tuple]:
        """``QueryResult.decoded_rows()``: floats stay, OIDs decode."""
        return [tuple(value if isinstance(value, float) else self.python_value(int(value))
                      for value in row)
                for row in self.rows(result)]


# -- literal ranges --------------------------------------------------------------------


def sorted_literal_oids(dictionary: TermDictionary) -> List[int]:
    """Every literal OID, sorted by literal value order (a full sort)."""
    literal_oids = [oid for term, oid in dictionary.items() if isinstance(term, Literal)]
    return sorted(literal_oids, key=lambda oid: term_sort_key(dictionary.decode(oid)))


def oracle_literal_range(dictionary: TermDictionary, low: Optional[Literal],
                         high: Optional[Literal], low_inclusive: bool = True,
                         high_inclusive: bool = True) -> Tuple[int, int, List[int]]:
    """What ``OidRange.of_values`` must resolve to, by brute force:
    its head interval (``(1, 0)`` when no head literal is in range) and the
    ascending tail literals in range, which a run resolves.  A one-sided
    range admits only values of its bound's class (``Literal.sort_key``'s
    first element): SPARQL compares values of one class only."""
    oids = sorted_literal_oids(dictionary)
    keys = [term_sort_key(dictionary.decode(oid)) for oid in oids]
    lo_idx, hi_idx = 0, len(keys)
    if low is not None:
        key = term_sort_key(low)
        lo_idx = bisect_left(keys, key) if low_inclusive else bisect_right(keys, key)
    if high is not None:
        key = term_sort_key(high)
        hi_idx = bisect_right(keys, key) if high_inclusive else bisect_left(keys, key)
    classes = {term_sort_key(bound)[1] for bound in (low, high) if bound is not None}
    watermark = dictionary.value_order_watermark
    in_range = [oid for oid, key in zip(oids[lo_idx:max(lo_idx, hi_idx)], keys[lo_idx:])
                if len(classes) != 1 or key[1] in classes]
    clean = [oid for oid in in_range if oid < watermark]
    tail = sorted(oid for oid in in_range if oid >= watermark)
    return (clean[0], clean[-1], tail) if clean else (1, 0, tail)


def in_literal_range(dictionary: TermDictionary, oid: int, oid_range: OidRange) -> bool:
    """Whether an OID satisfies a range, decided from its term: in the head
    interval, or a tail literal whose value is within the range's bounds."""
    if oid_range.contains(oid):
        return True
    bounds = oid_range.value
    if bounds is None or oid < dictionary.value_order_watermark:
        return False
    term = dictionary.decode(oid)
    if not isinstance(term, Literal):
        return False
    key = term_sort_key(term)
    if bounds.low is not None and (key < bounds.low or (key == bounds.low
                                                         and not bounds.low_inclusive)):
        return False
    return bounds.high is None or key < bounds.high or (key == bounds.high
                                                        and bounds.high_inclusive)


# -- zone-map pruning ------------------------------------------------------------------


def without_zone_maps(context):
    """``context`` over the same blocks with ``zone_maps={}``: a star scan
    there prunes by nothing but sorted columns and subject ranges, so it
    must answer what the zoned scan answers, reading no fewer pages."""
    store = context.clustered_store
    blocks = [dataclasses.replace(block, zone_maps={}) for block in store.blocks]
    return dataclasses.replace(context, clustered_store=ClusteredStore(
        blocks, store.irregular, store.schema, store.pool))


# -- the residual star scan ------------------------------------------------------------


def filed_subjects(store, delta) -> Dict[int, Tuple[int, List[Tuple[int, int]]]]:
    """Written subject -> the table the one admission rule files it in
    (``-1`` for none) and its live ``(predicate, object)`` pairs, one
    subject at a time over Python sets: every subject with a pending insert
    or tombstone, whose live triples are its base triples less its
    tombstones, then its inserts, and whose table is
    ``match_characteristic_set`` of their predicates (none without one)."""
    if delta is None:
        return {}
    tombstones = {tuple(row) for row in delta.tombstone_matrix().tolist()}
    inserts = delta.matrix().tolist()
    live: Dict[int, List[Tuple[int, int]]] = {s: [] for s, _p, _o in [*inserts, *tombstones]}
    for s, p, o in store.reconstruct_triples().tolist():
        if s in live and (s, p, o) not in tombstones:
            live[s].append((p, o))
    for s, p, o in inserts:
        live[s].append((p, o))
    filed = {}
    for subject, pairs in live.items():
        props = {p for p, _o in pairs}
        cs_id = match_characteristic_set(store.schema, props) if props else None
        filed[subject] = (-1 if cs_id is None else cs_id, pairs)
    return filed


def star_over_union(store, star: StarPattern, subjects: np.ndarray,
                    candidate_subjects: Optional[np.ndarray], delta=None,
                    dictionary: Optional[TermDictionary] = None) -> BindingTable:
    """Answer the star for specific subjects, one subject at a time
    (``dictionary`` decides which tail literals a range matches): a
    subject's values are its live triples, and a subject without one value
    of an all-optional star is a row when its table — the one it is filed
    in, if written — has a column for every star predicate."""
    if candidate_subjects is not None:
        subjects = np.intersect1d(subjects, candidate_subjects)
    rows: Dict[str, List[int]] = {name: [] for name in star.output_variables()}
    filed = filed_subjects(store, delta)
    for subject in subjects:
        subject = int(subject)
        if star.subject_range is not None and not star.subject_range.contains(subject):
            continue
        block = store.find_block(store.schema.cs_of_subject(subject))
        per_property: List[List[int]] = []
        satisfiable = True
        for prop in star.properties:
            values = _property_values_for_subject(store, block, subject,
                                                  prop.predicate_oid, delta)
            values = [v for v in values if _value_matches(v, prop, dictionary)]
            if not values:
                # a constant property matches its value only: required
                if prop.required or not prop.object_term.is_variable:
                    satisfiable = False
                    break
                values = [NULL_OID]
            per_property.append(values)
        if not satisfiable:
            continue
        table = store.find_block(filed[subject][0]) if subject in filed else block
        if (all(values == [NULL_OID] for values in per_property)
                and (table is None or not all(map(table.has_property, star.predicate_oids())))):
            continue
        _expand_product(rows, star, subject, per_property)
    return BindingTable({name: np.asarray(values, dtype=np.int64)
                         for name, values in rows.items()})


def _property_values_for_subject(store, block, subject: int, predicate: int,
                                 delta=None) -> List[int]:
    values: List[int] = []
    if block is not None and block.has_property(predicate):
        positions = block.positions_of_subjects(np.asarray([subject], dtype=np.int64))
        if positions.size:
            value = int(block.column(predicate).gather(positions)[0])
            if value != NULL_OID and not (delta is not None
                                          and delta.is_tombstoned(subject, predicate, value)):
                values.append(value)
    rows = store.irregular.scan_prefix(predicate, subject, fetch="o")
    if rows.size:
        values.extend(int(v) for v in rows[:, 0]
                      if not (delta is not None
                              and delta.is_tombstoned(subject, predicate, int(v))))
    if delta is not None and delta.insert_count():
        values.extend(int(v) for v in
                      delta.scan_pattern(s=subject, p=predicate, fetch="o")[:, 0])
    return values


def _value_matches(value: int, prop: StarProperty,
                   dictionary: Optional[TermDictionary]) -> bool:
    if not prop.object_term.is_variable and value != prop.object_term.oid:
        return False
    if prop.oid_range is not None and not prop.oid_range.is_unbounded():
        if dictionary is None:
            return prop.oid_range.contains(value)
        return in_literal_range(dictionary, value, prop.oid_range)
    return True


def _expand_product(rows: Dict[str, List[int]], star: StarPattern, subject: int,
                    per_property: List[List[int]]) -> None:
    """Append the cartesian product of per-property values for one subject."""
    combos: List[Dict[str, int]] = [{star.subject_var: subject}]
    for prop, values in zip(star.properties, per_property):
        term = prop.object_term
        new_combos: List[Dict[str, int]] = []
        for combo in combos:
            for value in values:
                if term.is_variable:
                    if term.var in combo:
                        # repeated variable: a real value must match the prior
                        # binding; a missing optional value keeps it (mirrors
                        # the block path's NULL handling)
                        if value != NULL_OID and combo[term.var] != value:
                            continue
                        new_combos.append(dict(combo))
                        continue
                    extended = dict(combo)
                    extended[term.var] = value
                    new_combos.append(extended)
                else:
                    new_combos.append(dict(combo))
        combos = new_combos
    for combo in combos:
        for name in rows:
            rows[name].append(combo.get(name, NULL_OID))


# -- the per-row clustered build -------------------------------------------------------


def per_row_clustered_build(matrix: np.ndarray, schema, zone_size: int = 1024,
                            name: str = "clustered") -> ClusteredStore:
    """``ClusteredStore.build`` one triple at a time.

    Membership is a plain ``subject -> cs_id`` dict here, probed per row;
    each routed row is then placed through a ``position_of`` dict.
    """
    matrix = np.asarray(matrix, dtype=np.int64).reshape(-1, 3)
    blocks: List[CSBlock] = []
    irregular_rows: List[np.ndarray] = []

    subject_cs = dict(zip(schema.membership.subjects.tolist(),
                          schema.membership.cs_ids.tolist()))
    cs_rows: Dict[int, List[int]] = {cs_id: [] for cs_id in schema.tables}
    irregular_mask = np.zeros(matrix.shape[0], dtype=bool)

    for row_idx in range(matrix.shape[0]):
        s = int(matrix[row_idx, 0])
        p = int(matrix[row_idx, 1])
        cs_id = subject_cs.get(s)
        if cs_id is None:
            irregular_mask[row_idx] = True
            continue
        table = schema.tables[cs_id]
        spec = table.properties.get(p)
        if spec is None or spec.multiplicity is Multiplicity.MANY:
            irregular_mask[row_idx] = True
            continue
        cs_rows[cs_id].append(row_idx)

    for cs_id in sorted(cs_rows):
        members = sorted(s for s, cs in subject_cs.items() if cs == cs_id)
        block, spilled = _per_row_block(matrix, cs_rows[cs_id], schema.tables[cs_id],
                                        members, zone_size, name)
        blocks.append(block)
        if spilled.size:
            irregular_rows.append(spilled)

    irregular_matrix = np.vstack([matrix[irregular_mask]] + irregular_rows)
    irregular = TripleTable(irregular_matrix, order="pso", name=f"{name}.irregular")
    return ClusteredStore(blocks=blocks, irregular=irregular, schema=schema)


def _per_row_block(matrix: np.ndarray, row_indexes: List[int], table, members: List[int],
                   zone_size: int, name: str) -> Tuple[CSBlock, np.ndarray]:
    """Build one CS block; returns the block and any spilled (extra) rows."""
    subjects = np.asarray(members, dtype=np.int64)
    position_of = {int(s): i for i, s in enumerate(subjects)}
    width = len(subjects)

    column_props = [p for p, spec in table.properties.items()
                    if spec.multiplicity is not Multiplicity.MANY]
    data: Dict[int, np.ndarray] = {
        p: np.full(width, NULL_OID, dtype=np.int64) for p in column_props
    }
    spilled: List[Tuple[int, int, int]] = []

    for row_idx in row_indexes:
        s, p, o = (int(v) for v in matrix[row_idx])
        position = position_of.get(s)
        if position is None:
            spilled.append((s, p, o))
            continue
        column = data.get(p)
        if column is None:
            spilled.append((s, p, o))
            continue
        if column[position] == NULL_OID:
            column[position] = o
        else:
            # second value of a nominally single-valued property: spill
            spilled.append((s, p, o))

    property_columns = {
        p: Column(segment_id=f"{name}.cs{table.cs_id}.p{p}", values=values,
                  sorted_ascending=False)
        for p, values in data.items()
    }
    block = CSBlock(
        cs_id=table.cs_id,
        label=table.label or f"cs{table.cs_id}",
        subject_column=Column(segment_id=f"{name}.cs{table.cs_id}.subject",
                              values=subjects, sorted_ascending=True),
        property_columns=property_columns,
        zone_maps={p: ZoneMap.build(column.data, zone_size=zone_size)
                   for p, column in property_columns.items()},
        sorted_properties=frozenset(
            p for p, values in data.items() if _is_sorted_ignoring_nulls(values)),
    )
    return block, np.asarray(spilled, dtype=np.int64).reshape(-1, 3)


# -- the build, one triple at a time ------------------------------------------------------


def per_triple_encode(triples, dictionary: Optional[TermDictionary] = None):
    """``encode_graph``: one ``EncodedTriple``, one tuple and one set probe per triple."""
    dictionary = dictionary or TermDictionary()
    seen: set = set()
    rows: List[Tuple[int, int, int]] = []
    for triple in triples:
        encoded = dictionary.encode_triple(triple)
        key = (encoded.s, encoded.p, encoded.o)
        if key in seen:
            continue
        seen.add(key)
        rows.append(key)
    return dictionary, np.asarray(rows, dtype=np.int64).reshape(-1, 3)


def per_row_remap(dictionary: TermDictionary, mapping: Dict[int, int]) -> List:
    """The term list ``TermDictionary.remap`` must leave behind (OID order):
    every OID probed in the mapping, the bijection checked slot by slot."""
    size = len(dictionary)
    new_to_old: List[Optional[int]] = [None] * size
    for old in range(size):
        new = mapping.get(old, old)
        assert 0 <= new < size and new_to_old[new] is None, "not a permutation"
        new_to_old[new] = old
    return [dictionary.decode(old) for old in new_to_old]


def per_row_detection(matrix) -> SimpleNamespace:
    """``detection_from_triples``: two dict updates per triple, then one
    frozenset per subject grouped through a dict.  ``exact_sets`` is a list of
    ``(properties, sorted subjects)``, largest support first."""
    subject_properties: Dict[int, set] = defaultdict(set)
    multiplicities: Dict[int, Dict[int, int]] = defaultdict(dict)
    total = 0
    for s, p, _o in map(tuple, np.asarray(matrix, dtype=np.int64).reshape(-1, 3)):
        total += 1
        subject_properties[int(s)].add(int(p))
        props = multiplicities[int(s)]
        props[int(p)] = props.get(int(p), 0) + 1
    frozen = {s: frozenset(props) for s, props in subject_properties.items()}
    groups: Dict[frozenset, List[int]] = defaultdict(list)
    for subject, properties in frozen.items():
        groups[properties].append(subject)
    exact_sets = [(props, sorted(members)) for props, members in groups.items()]
    exact_sets.sort(key=lambda cs: (-len(cs[1]), sorted(cs[0])))
    return SimpleNamespace(exact_sets=exact_sets, subject_properties=frozen,
                           property_multiplicities={s: dict(m) for s, m in multiplicities.items()},
                           total_triples=total)


class _Core:
    def __init__(self, exact) -> None:
        self.properties, members = exact
        self.subjects = list(members)
        self.merged_exact = [self.properties]

    def absorb(self, exact) -> None:
        self.properties = self.properties | exact[0]
        self.subjects.extend(exact[1])
        self.merged_exact.append(exact[0])


def _best_core(cores: List[_Core], properties):
    best, best_score = None, -1.0
    for core in cores:
        score = jaccard(core.properties, properties)
        if score > best_score:
            best, best_score = core, score
    return best


def _merge_or_add_core(cores: List[_Core], exact, similarity: float) -> None:
    best = _best_core(cores, exact[0])
    if best is not None and jaccard(best.properties, exact[0]) >= similarity:
        best.absorb(exact)
    else:
        cores.append(_Core(exact))


def per_row_generalize(detection: SimpleNamespace,
                       config: Optional[GeneralizationConfig] = None):
    """``generalize`` with presence / multiplicity counted one subject and one
    property at a time.  Returns ``(generalized, subject_to_gcs)``: the
    :class:`GeneralizedCS` list (members as arrays) and the subject dict."""
    config = config or GeneralizationConfig()
    threshold = max(config.min_support,
                    int(config.min_support_fraction * len(detection.subject_properties)), 1)
    ranked = detection.exact_sets
    cores: List[_Core] = []
    small = []
    for exact in ranked:
        if len(exact[1]) >= threshold:
            _merge_or_add_core(cores, exact, config.core_merge_similarity)
        else:
            small.append(exact)
    if not cores and ranked:
        _merge_or_add_core(cores, ranked[0], config.core_merge_similarity)
        small = ranked[1:]
    for exact in small:
        best = _best_core(cores, exact[0])
        if best is not None and jaccard(best.properties, exact[0]) >= config.attach_similarity:
            best.absorb(exact)
    if config.max_tables is not None and len(cores) > config.max_tables:
        cores.sort(key=lambda c: -len(c.subjects))
        cores = cores[:config.max_tables]

    generalized: List[GeneralizedCS] = []
    subject_to_gcs: Dict[int, int] = {}
    for core in cores:
        presence_counts: Dict[int, int] = {}
        value_counts: Dict[int, int] = {}
        for subject in core.subjects:
            mults = detection.property_multiplicities.get(subject, {})
            for prop in detection.subject_properties.get(subject, frozenset()):
                if prop in core.properties:
                    presence_counts[prop] = presence_counts.get(prop, 0) + 1
                    value_counts[prop] = value_counts.get(prop, 0) + mults.get(prop, 1)
        kept: Dict[int, float] = {}
        mean_multiplicity: Dict[int, float] = {}
        for prop in core.properties:
            count = presence_counts.get(prop, 0)
            presence = count / len(core.subjects) if core.subjects else 0.0
            if presence >= config.minority_presence or presence >= 0.999:
                kept[prop] = presence
                mean_multiplicity[prop] = (value_counts.get(prop, 0) / count) if count else 0.0
        if not kept:
            continue
        gcs_id = len(generalized)
        generalized.append(GeneralizedCS(
            gcs_id=gcs_id, properties=frozenset(kept),
            subjects=np.asarray(sorted(core.subjects), dtype=np.int64),
            merged_exact=core.merged_exact, property_presence=kept,
            property_mean_multiplicity=mean_multiplicity))
        subject_to_gcs.update(dict.fromkeys(core.subjects, gcs_id))
    return generalized, subject_to_gcs


def per_row_observations(matrix, dictionary: TermDictionary,
                         subject_to_gcs: Dict[int, int]) -> Dict[Tuple[int, int], PropertyObservation]:
    """``analyze_property_objects``: one dict probe and one count per triple,
    the count dicts filling in the order the rows arrive."""
    observations: Dict[Tuple[int, int], PropertyObservation] = {}
    kind_cache: Dict[int, PropertyKind] = {}
    for s, p, o in matrix:
        gcs = subject_to_gcs.get(int(s))
        if gcs is None:
            continue
        obs = observations.setdefault((gcs, int(p)), PropertyObservation())
        oid = int(o)
        kind = kind_cache.get(oid)
        if kind is None:
            kind = kind_cache[oid] = term_kind(dictionary, oid)
        obs.kind_counts[kind] = obs.kind_counts.get(kind, 0) + 1
        obs.total += 1
        if kind is PropertyKind.IRI:
            target = subject_to_gcs.get(oid)
            if target is None:
                obs.irregular_target_count += 1
            else:
                obs.target_cs_counts[target] = obs.target_cs_counts.get(target, 0) + 1
    return observations


def _per_row_signatures(matrix, dictionary, subjects: List[int], properties) -> Dict[int, tuple]:
    wanted = set(subjects)
    per_subject: Dict[int, Dict[int, PropertyKind]] = {s: {} for s in subjects}
    for s, p, o in matrix:
        s_int, p_int, o_int = int(s), int(p), int(o)
        if s_int not in wanted or p_int not in properties:
            continue
        kind = term_kind(dictionary, o_int)
        existing = per_subject[s_int].get(p_int)
        if existing is None:
            per_subject[s_int][p_int] = kind
        elif existing is not kind:
            per_subject[s_int][p_int] = PropertyKind.MIXED
    return {subject: tuple(sorted((p, k.value) for p, k in kinds.items()))
            for subject, kinds in per_subject.items()}


def per_row_split_variants(generalized: List[GeneralizedCS], matrix, dictionary,
                           config: Optional[TypingConfig] = None):
    """``split_type_variants`` with one full scan of the matrix *per table*."""
    config = config or TypingConfig()
    new_sets: List[GeneralizedCS] = []
    subject_to_gcs: Dict[int, int] = {}
    for gcs in generalized:
        members = gcs.subjects.tolist()
        signatures = _per_row_signatures(matrix, dictionary, members, gcs.properties)
        groups: Dict[tuple, List[int]] = {}
        for subject in members:
            groups.setdefault(signatures.get(subject, ()), []).append(subject)
        ordered = sorted(groups.items(), key=lambda item: -len(item[1]))
        if not ordered:
            continue
        main_subjects = list(ordered[0][1])
        variant_groups: List[List[int]] = []
        for _signature, group in ordered[1:]:
            if len(group) >= config.min_variant_support:
                variant_groups.append(group)
            else:
                main_subjects.extend(group)
        for group in [main_subjects] + variant_groups:
            new_id = len(new_sets)
            new_sets.append(GeneralizedCS(
                gcs_id=new_id, properties=gcs.properties,
                subjects=np.asarray(sorted(group), dtype=np.int64),
                merged_exact=gcs.merged_exact,
                property_presence=dict(gcs.property_presence),
                property_mean_multiplicity=dict(gcs.property_mean_multiplicity)))
            subject_to_gcs.update(dict.fromkeys(group, new_id))
    return new_sets, subject_to_gcs


def per_row_discover_schema(matrix, dictionary: Optional[TermDictionary] = None,
                            config: Optional[DiscoveryConfig] = None):
    """``discover_schema`` over the per-row stages; what follows the evidence
    (kinds, foreign keys, assembly, fine-tuning, labels, coverage) never
    looked at a triple and is the shipped code."""
    config = config or DiscoveryConfig()
    matrix = np.asarray(matrix, dtype=np.int64).reshape(-1, 3)
    generalized, subject_to_gcs = per_row_generalize(per_row_detection(matrix),
                                                     config.generalization)
    if config.typing.split_variants and dictionary is not None:
        generalized, subject_to_gcs = per_row_split_variants(generalized, matrix, dictionary,
                                                             config.typing)
    generalization = GeneralizationResult(
        generalized, Membership.of_tables({g.gcs_id: g.subjects for g in generalized}))
    observations = ({} if dictionary is None
                    else per_row_observations(matrix, dictionary, subject_to_gcs))
    kinds = assign_property_kinds(generalization, observations, config.typing)
    relationships = discover_relationships(observations, config.relationships)
    schema = _assemble_schema(generalization, kinds, relationships)
    finetune_schema(schema, relationships, observations, config.finetune)
    if config.label_tables and dictionary is not None:
        label_schema(schema, dictionary, matrix, config.labeling)
    schema.coverage = measure_coverage(schema, matrix)
    return schema


_MISSING_KEY = (9, "", "")


def per_row_clustering_plan(matrix, dictionary: TermDictionary, schema,
                            sort_keys: Optional[Dict[int, int]] = None) -> Dict[int, int]:
    """``plan_subject_clustering`` as ``old OID -> new OID``: a dict probe
    and a decoded sort key per triple, then a Python sort of key tuples."""
    sort_keys = sort_keys or {}
    available = schema.membership.subjects.tolist()
    wanted: Dict[int, int] = {}
    for cs_id, predicate in sort_keys.items():
        wanted.update(dict.fromkeys(schema.membership.members(cs_id).tolist(), predicate))
    values: Dict[int, tuple] = {}
    for s, p, o in matrix:
        s_int = int(s)
        if wanted.get(s_int) == int(p) and s_int not in values:
            values[s_int] = term_sort_key(dictionary.decode(int(o)))
    cs_rank = {table.cs_id: rank for rank, table in enumerate(schema.tables_by_support())}
    desired = sorted(zip((cs_rank[cs_id] for cs_id in schema.membership.cs_ids.tolist()),
                         (values.get(subject, _MISSING_KEY) for subject in available),
                         available))
    return {old: new for (_rank, _key, old), new in zip(desired, available)}


def per_row_cluster(matrix, dictionary: TermDictionary, schema,
                    sort_keys: Optional[Dict[int, int]] = None):
    """``cluster_subjects`` through :func:`per_row_clustering_plan`: returns
    the clustered matrix, the term list in new OID order and the remapped
    ``subject -> cs_id`` dict; changes none of its arguments."""
    mapping = per_row_clustering_plan(matrix, dictionary, schema, sort_keys)
    clustered = np.asarray([[mapping.get(s, s), p, mapping.get(o, o)]
                            for s, p, o in np.asarray(matrix).tolist()],
                           dtype=np.int64).reshape(-1, 3)
    members = {mapping.get(s, s): cs for s, cs in zip(schema.membership.subjects.tolist(),
                                                       schema.membership.cs_ids.tolist())}
    return clustered, per_row_remap(dictionary, mapping), members


# -- the character-at-a-time N-Triples scanner --------------------------------------------


def scan_ntriples_line(line: str, lineno: int = 1) -> Triple:
    """One stripped, non-comment N-Triples line, a character at a time."""
    scanner = _Scanner(line, lineno)
    subject = scanner.read_subject()
    scanner.skip_ws(required=True)
    predicate = scanner.read_iri()
    scanner.skip_ws(required=True)
    obj = scanner.read_object()
    scanner.skip_ws(required=False)
    scanner.expect(".")
    scanner.skip_ws(required=False)
    if not scanner.at_end():
        raise ParseError("trailing characters after '.'", line=lineno, column=scanner.pos + 1)
    return Triple(subject, predicate, obj)


class _Scanner:
    """Character scanner over one N-Triples line."""

    def __init__(self, line: str, lineno: int) -> None:
        self.line = line
        self.lineno = lineno
        self.pos = 0

    def at_end(self) -> bool:
        return self.pos >= len(self.line)

    def peek(self) -> str:
        if self.at_end():
            return ""
        return self.line[self.pos]

    def error(self, message: str) -> ParseError:
        return ParseError(message, line=self.lineno, column=self.pos + 1)

    def expect(self, char: str) -> None:
        if self.peek() != char:
            raise self.error(f"expected {char!r}, found {self.peek()!r}")
        self.pos += 1

    def skip_ws(self, required: bool) -> None:
        start = self.pos
        while not self.at_end() and self.line[self.pos] in " \t":
            self.pos += 1
        if required and self.pos == start:
            raise self.error("expected whitespace")

    def read_subject(self):
        ch = self.peek()
        if ch == "<":
            return self.read_iri()
        if ch == "_":
            return self.read_bnode()
        raise self.error("subject must be an IRI or blank node")

    def read_object(self):
        ch = self.peek()
        if ch == "<":
            return self.read_iri()
        if ch == "_":
            return self.read_bnode()
        if ch == '"':
            return self.read_literal()
        raise self.error("object must be an IRI, blank node or literal")

    def read_iri(self) -> IRI:
        self.expect("<")
        end = self.line.find(">", self.pos)
        if end < 0:
            raise self.error("unterminated IRI (missing '>')")
        value = self.line[self.pos:end]
        self.pos = end + 1
        if not value:
            raise self.error("empty IRI")
        return IRI(value)

    def read_bnode(self) -> BNode:
        if not self.line.startswith("_:", self.pos):
            raise self.error("blank node must start with '_:'")
        self.pos += 2
        start = self.pos
        while not self.at_end() and not self.line[self.pos].isspace():
            self.pos += 1
        label = self.line[start:self.pos]
        if not label:
            raise self.error("empty blank node label")
        return BNode(label)

    def read_literal(self) -> Literal:
        self.expect('"')
        chars = []
        while True:
            if self.at_end():
                raise self.error("unterminated literal")
            ch = self.line[self.pos]
            if ch == "\\":
                if self.pos + 1 >= len(self.line):
                    raise self.error("dangling escape in literal")
                chars.append(self.line[self.pos:self.pos + 2])
                self.pos += 2
                continue
            if ch == '"':
                self.pos += 1
                break
            chars.append(ch)
            self.pos += 1
        lexical = _scanner_unescape("".join(chars))
        # optional language tag or datatype
        if self.peek() == "@":
            self.pos += 1
            start = self.pos
            while not self.at_end() and (self.line[self.pos].isalnum() or self.line[self.pos] == "-"):
                self.pos += 1
            language = self.line[start:self.pos]
            if not language:
                raise self.error("empty language tag")
            return Literal(lexical, language=language)
        if self.line.startswith("^^", self.pos):
            self.pos += 2
            datatype = self.read_iri()
            return Literal(lexical, datatype=datatype.value)
        return Literal(lexical)


def _scanner_unescape(text: str) -> str:
    """The scanner's per-character unescape (unknown escapes drop the backslash)."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch != "\\" or i + 1 >= n:
            out.append(ch)
            i += 1
            continue
        nxt = text[i + 1]
        if nxt == "n":
            out.append("\n")
            i += 2
        elif nxt == "r":
            out.append("\r")
            i += 2
        elif nxt == "t":
            out.append("\t")
            i += 2
        elif nxt == '"':
            out.append('"')
            i += 2
        elif nxt == "\\":
            out.append("\\")
            i += 2
        elif nxt == "u" and i + 6 <= n:
            out.append(chr(int(text[i + 2:i + 6], 16)))
            i += 6
        elif nxt == "U" and i + 10 <= n:
            out.append(chr(int(text[i + 2:i + 10], 16)))
            i += 10
        else:
            out.append(nxt)
            i += 2
    return "".join(out)


# -- the checkpoint over the whole store ----------------------------------------------------


def full_sort_value_order(
        dictionary: TermDictionary) -> Tuple[TermDictionary, np.ndarray, np.ndarray]:
    """``TermDictionary.reassign_value_ordered_literals`` as one stable Python
    sort of every literal by ``term_sort_key``, whatever the watermark: the
    dictionary restored from the reordered term list, and ``(old, new)``."""
    terms = list(dictionary.terms())
    literal_oids = [oid for oid, term in enumerate(terms) if isinstance(term, Literal)]
    ranked = sorted(literal_oids, key=lambda oid: term_sort_key(terms[oid]))
    ordered = list(terms)
    for old_oid, new_oid in zip(ranked, literal_oids):
        ordered[new_oid] = terms[old_oid]
    return (TermDictionary.restore(ordered, len(terms)),
            np.asarray(ranked, dtype=np.int64), np.asarray(literal_oids, dtype=np.int64))


def per_table_statistics(schema, merged: np.ndarray, row_tables, cs_ids: Set[int]) -> None:
    """Compaction's statistics refresh one table at a time: a full-matrix
    ``np.isin`` over the table's members, then one mask per property
    (``row_tables`` is ignored; the shipped signature carries it).  A
    property keeps being a column or ``MANY``: only nullability is
    reclassified."""
    for cs_id in cs_ids:
        table = schema.tables[cs_id]
        members = schema.membership.members(cs_id)
        table.support = int(members.size)
        if not table.support:
            continue
        rows = merged[np.isin(merged[:, 0], members)]
        for predicate_oid, spec in table.properties.items():
            prop_rows = rows[rows[:, 1] == predicate_oid]
            triple_count = int(prop_rows.shape[0])
            subject_count = int(np.unique(prop_rows[:, 0]).size)
            spec.presence = subject_count / table.support
            spec.mean_multiplicity = triple_count / subject_count if subject_count else 1.0
            if spec.multiplicity is not Multiplicity.MANY:
                spec.multiplicity = (Multiplicity.EXACTLY_ONE if spec.presence >= 0.999
                                     else Multiplicity.ZERO_OR_ONE)


def per_table_coverage(schema, matrix: np.ndarray, row_tables=None) -> SchemaCoverage:
    """``measure_coverage`` with one member mask and one property mask per table."""
    subjects = np.unique(matrix[:, 0])
    coverage = SchemaCoverage(total_triples=int(matrix.shape[0]),
                              total_subjects=int(subjects.size))
    coverage.covered_subjects = int((schema.membership.cs_of(subjects) >= 0).sum())
    covered = np.zeros(matrix.shape[0], dtype=bool)
    for cs in schema.tables.values():
        covered |= (np.isin(matrix[:, 0], schema.membership.members(cs.cs_id))
                    & np.isin(matrix[:, 1], list(cs.property_oids())))
    coverage.covered_triples = int(covered.sum())
    return coverage


_LOOP_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def per_character_escape(text: str) -> str:
    """``escape_literal`` one character at a time."""
    out = []
    for ch in text:
        escaped = _LOOP_ESCAPES.get(ch)
        if escaped is not None:
            out.append(escaped)
        elif ord(ch) < 0x20 or ch in ("\x7f", "\x85", "\u2028", "\u2029"):
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)
