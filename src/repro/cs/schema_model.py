"""Data model of the emergent schema: characteristic sets, properties,
foreign keys and the schema that groups them.

A *characteristic set* (CS) is the set of properties that co-occur on a
subject.  After detection and refinement, each surviving CS becomes a
relational-style table: for each property a column specification
(multiplicity, inferred type, optional foreign key target).  Which subject
belongs to which table is recorded once, in the schema's
:class:`Membership`.  The :class:`EmergentSchema` bundles the tables, the
membership, the foreign-key graph and coverage accounting, and is what the
storage layer, the SQL view and the optimizer all consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import AbstractSet, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np


class Multiplicity(Enum):
    """How many objects a property has per subject within a CS."""

    EXACTLY_ONE = "1..1"
    ZERO_OR_ONE = "0..1"
    MANY = "0..n"


class PropertyKind(Enum):
    """The inferred value class of a property's objects."""

    IRI = "iri"
    STRING = "string"
    INTEGER = "integer"
    DECIMAL = "decimal"
    BOOLEAN = "boolean"
    DATE = "date"
    DATETIME = "datetime"
    MIXED = "mixed"


@dataclass
class PropertySpec:
    """Schema information for one property (column) of a characteristic set."""

    predicate_oid: int
    multiplicity: Multiplicity = Multiplicity.EXACTLY_ONE
    kind: PropertyKind = PropertyKind.MIXED
    presence: float = 1.0
    """Fraction of the CS's subjects that have at least one value."""
    mean_multiplicity: float = 1.0
    """Average number of objects per subject that has the property."""
    fk_target_cs: Optional[int] = None
    """CS id this property references, when it is a discovered foreign key."""
    fk_confidence: float = 0.0
    label: str = ""

    def is_foreign_key(self) -> bool:
        return self.fk_target_cs is not None


@dataclass
class CharacteristicSet:
    """A detected (and possibly refined) characteristic set."""

    cs_id: int
    properties: Dict[int, PropertySpec]
    support: int = 0
    """Number of member subjects (direct support)."""
    indirect_support: int = 0
    """Incoming foreign-key references, used when ranking small CSs."""
    label: str = ""
    merged_from: List[int] = field(default_factory=list)
    """Ids of exact CSs that were folded into this one by generalization."""
    type_signature: tuple = ()
    """Distinguishes typed variants split from the same property set."""

    def property_oids(self) -> frozenset[int]:
        """The property set as a frozen set of predicate OIDs."""
        return frozenset(self.properties)

    def total_support(self) -> int:
        """Direct plus indirect support (the paper's adjusted tally)."""
        return self.support + self.indirect_support

    def spec(self, predicate_oid: int) -> PropertySpec:
        return self.properties[predicate_oid]

    def has_property(self, predicate_oid: int) -> bool:
        return predicate_oid in self.properties

    def foreign_keys(self) -> List[PropertySpec]:
        """Property specs that reference another CS."""
        return [spec for spec in self.properties.values() if spec.is_foreign_key()]


@dataclass(frozen=True)
class ForeignKey:
    """A discovered relationship: ``source_cs.property -> target_cs``."""

    source_cs: int
    predicate_oid: int
    target_cs: int
    confidence: float

    def describe(self) -> str:
        return (f"CS{self.source_cs}.p{self.predicate_oid} -> CS{self.target_cs} "
                f"(confidence {self.confidence:.2f})")


@dataclass
class SchemaCoverage:
    """How much of the input the regular schema captures."""

    total_triples: int = 0
    covered_triples: int = 0
    total_subjects: int = 0
    covered_subjects: int = 0

    def triple_coverage(self) -> float:
        if self.total_triples == 0:
            return 0.0
        return self.covered_triples / self.total_triples

    def subject_coverage(self) -> float:
        if self.total_subjects == 0:
            return 0.0
        return self.covered_subjects / self.total_subjects


def _lookup_sorted(keys: np.ndarray, values: np.ndarray, queries: np.ndarray, missing):
    """``values[i]`` where ``keys[i] == query`` (``keys`` ascending), else ``missing``."""
    if not keys.size:
        return np.where(False, queries, missing)
    positions = np.minimum(np.searchsorted(keys, queries), keys.size - 1)
    return np.where(keys[positions] == queries, values[positions], missing)


class Membership:
    """Who belongs to which table — the only record of it.

    Two aligned read-only ``int64`` arrays: ``subjects`` (strictly
    ascending) and ``cs_ids``.  A subject that is not listed has no table:
    it is *irregular*.  A membership is an immutable value; the four editing
    functions return a new one, and whoever maintains a schema replaces the
    one it holds.
    """

    __slots__ = ("subjects", "cs_ids")

    def __init__(self, subjects=(), cs_ids=()) -> None:
        subjects = np.array(subjects, dtype=np.int64).reshape(-1)
        cs_ids = np.array(cs_ids, dtype=np.int64).reshape(-1)
        if subjects.shape != cs_ids.shape:
            raise ValueError(f"membership pairs {subjects.size} subjects with "
                             f"{cs_ids.size} table ids")
        if not (subjects[1:] > subjects[:-1]).all():
            raise ValueError("membership subjects must be strictly ascending "
                             "(a subject belongs to one table)")
        subjects.setflags(write=False)
        cs_ids.setflags(write=False)
        self.subjects = subjects
        self.cs_ids = cs_ids

    @classmethod
    def _sorted(cls, subjects: np.ndarray, cs_ids: np.ndarray) -> "Membership":
        order = np.argsort(subjects, kind="stable")
        return cls(subjects[order], cs_ids[order])

    @classmethod
    def of_tables(cls, members: Mapping[int, Iterable[int]]) -> "Membership":
        """From each table's member subjects, given in any order."""
        per_table = [np.asarray(subjects, dtype=np.int64).reshape(-1)
                     for subjects in members.values()]
        if not per_table:
            return cls()
        return cls._sorted(np.concatenate(per_table),
                           np.repeat(np.asarray(list(members), dtype=np.int64),
                                     [subjects.size for subjects in per_table]))

    def __len__(self) -> int:
        return int(self.subjects.size)

    def __deepcopy__(self, memo) -> "Membership":
        return self  # immutable: a copied schema shares it

    # -- the two questions --------------------------------------------------------

    def cs_of(self, oids) -> np.ndarray:
        """Table id per OID, ``-1`` where the OID belongs to no table."""
        return _lookup_sorted(self.subjects, self.cs_ids,
                              np.asarray(oids, dtype=np.int64), -1)

    def members(self, cs_id: int) -> np.ndarray:
        """The member subjects of one table, ascending."""
        return self.subjects[self.cs_ids == cs_id]

    # -- the four edits (each returns a new membership) -----------------------------

    def assigned(self, subjects, cs_ids) -> "Membership":
        """With ``subjects`` belonging to table ``cs_ids`` — one id, or one
        per subject, ``-1`` for no table — and to no other."""
        subjects = np.asarray(subjects, dtype=np.int64).reshape(-1)
        cs_ids = np.broadcast_to(np.asarray(cs_ids, dtype=np.int64), subjects.shape)
        subjects, first = np.unique(subjects, return_index=True)
        rest, cs_ids = self.without(subjects), cs_ids[first]
        filed = cs_ids >= 0
        return self._sorted(np.concatenate([rest.subjects, subjects[filed]]),
                            np.concatenate([rest.cs_ids, cs_ids[filed]]))

    def without(self, subjects) -> "Membership":
        """With ``subjects`` belonging to no table."""
        keep = ~np.isin(self.subjects, np.asarray(subjects, dtype=np.int64))
        return Membership(self.subjects[keep], self.cs_ids[keep])

    def without_table(self, cs_id: int) -> "Membership":
        """With every member of table ``cs_id`` belonging to no table."""
        keep = self.cs_ids != cs_id
        return Membership(self.subjects[keep], self.cs_ids[keep])

    def remapped(self, old, new) -> "Membership":
        """With subject OID ``old[i]`` rewritten to ``new[i]`` (aligned
        arrays); subjects not in ``old`` stay."""
        old = np.asarray(old, dtype=np.int64)
        new = np.asarray(new, dtype=np.int64)
        if not old.size:
            return self
        order = np.argsort(old)
        return self._sorted(_lookup_sorted(old[order], new[order], self.subjects,
                                           self.subjects),
                            self.cs_ids)


def rows_in_table_columns(matrix: np.ndarray, row_tables: np.ndarray,
                          properties_of: Mapping[int, Iterable[int]]) -> np.ndarray:
    """Mask of the ``(n, 3)`` matrix's rows whose subject belongs to a table
    *and* whose predicate is one of that table's properties.

    ``row_tables`` is each row's table (``Membership.cs_of`` of the subject
    column, ``-1`` without one), ``properties_of`` maps a table id to its
    predicate OIDs: one ``np.isin`` over packed ``(table, predicate)`` keys."""
    base = int(max(matrix[:, 1].max(initial=0),
                   max((max(properties, default=0) for properties in properties_of.values()),
                       default=0))) + 1
    columns = np.asarray([cs_id * base + p for cs_id, properties in properties_of.items()
                          for p in properties], dtype=np.int64)
    # a subject without a table packs to a negative key, which is no column's
    return np.isin(row_tables * base + matrix[:, 1], columns)


@dataclass
class EmergentSchema:
    """The full discovered schema: tables, membership, relationships and
    coverage.

    A subject is *irregular* exactly when ``membership.cs_of`` answers
    ``-1``; there are ``coverage.total_subjects - coverage.covered_subjects``
    of them.
    """

    tables: Dict[int, CharacteristicSet] = field(default_factory=dict)
    foreign_keys: List[ForeignKey] = field(default_factory=list)
    membership: Membership = field(default_factory=Membership)
    coverage: SchemaCoverage = field(default_factory=SchemaCoverage)

    # -- lookups ---------------------------------------------------------------

    def cs_of_subject(self, subject_oid: int) -> Optional[int]:
        """CS id a subject belongs to, or ``None`` if irregular."""
        cs_id = int(self.membership.cs_of(subject_oid))
        return None if cs_id < 0 else cs_id

    def table(self, cs_id: int) -> CharacteristicSet:
        return self.tables[cs_id]

    def tables_by_support(self) -> List[CharacteristicSet]:
        """Tables ordered by total support, largest first."""
        return sorted(self.tables.values(), key=lambda cs: (-cs.total_support(), cs.cs_id))

    def tables_with_properties(self, predicate_oids: Iterable[int]) -> List[CharacteristicSet]:
        """All tables containing *every* one of the given properties.

        This is the lookup the SPARQL optimizer performs to decide whether a
        star pattern can be answered by RDFscan over one or more CSs.
        """
        wanted = frozenset(predicate_oids)
        return [cs for cs in self.tables.values() if wanted <= cs.property_oids()]

    def foreign_keys_from(self, cs_id: int) -> List[ForeignKey]:
        return [fk for fk in self.foreign_keys if fk.source_cs == cs_id]

    # -- mutation helper used by the discovery pipeline ------------------------

    def remove_table(self, cs_id: int) -> CharacteristicSet:
        """Drop a table; its members become irregular."""
        table = self.tables.pop(cs_id)
        self.membership = self.membership.without_table(cs_id)
        self.foreign_keys = [fk for fk in self.foreign_keys
                             if fk.source_cs != cs_id and fk.target_cs != cs_id]
        return table

    # -- reporting --------------------------------------------------------------

    def summary_lines(self, dictionary=None) -> List[str]:
        """Human-readable schema listing (used by examples and benches)."""
        lines: List[str] = []
        for cs in self.tables_by_support():
            name = cs.label or f"CS{cs.cs_id}"
            lines.append(f"table {name} (cs_id={cs.cs_id}, subjects={cs.support}, "
                         f"indirect={cs.indirect_support})")
            for spec in sorted(cs.properties.values(), key=lambda s: s.predicate_oid):
                pname = spec.label or f"p{spec.predicate_oid}"
                if dictionary is not None and not spec.label:
                    try:
                        pname = dictionary.decode(spec.predicate_oid).local_name()
                    except Exception:  # noqa: BLE001 - labels are best-effort
                        pname = f"p{spec.predicate_oid}"
                fk = f" -> CS{spec.fk_target_cs}" if spec.is_foreign_key() else ""
                lines.append(f"    {pname}: {spec.kind.value} [{spec.multiplicity.value}]"
                             f" presence={spec.presence:.2f}{fk}")
        lines.append(f"foreign keys: {len(self.foreign_keys)}")
        lines.append(f"triple coverage: {self.coverage.triple_coverage():.1%}")
        lines.append(f"subject coverage: {self.coverage.subject_coverage():.1%}")
        return lines


def match_characteristic_set(schema: EmergentSchema, props: AbstractSet[int]) -> Optional[int]:
    """The one CS-admission rule: which table a written subject with live
    property set ``props`` is filed in, when its delta version is frozen
    (``updates/delta.py:Filing``); compaction applies that filing.

    Exact property-set match wins; otherwise the tightest superset CS
    (fewest extra properties, ties broken by support then id); ``None``
    (the leftover bucket) when nothing fits.
    """
    if not props:
        return None
    exact: Optional[int] = None
    best: Optional[Tuple[int, int, int]] = None
    for cs in schema.tables.values():
        cs_props = cs.property_oids()
        if cs_props == props:
            exact = cs.cs_id if exact is None else min(exact, cs.cs_id)
        elif props <= cs_props:
            candidate = (len(cs_props - props), -cs.total_support(), cs.cs_id)
            if best is None or candidate < best:
                best = candidate
    if exact is not None:
        return exact
    return None if best is None else best[2]


def property_presence(subjects_with_property: int, total_subjects: int) -> float:
    """Presence ratio guarded against empty tables."""
    if total_subjects == 0:
        return 0.0
    return subjects_with_property / total_subjects


def classify_multiplicity(presence: float, mean_multiplicity: float,
                          many_threshold: float = 1.05) -> Multiplicity:
    """Derive a property's multiplicity class from its statistics."""
    if mean_multiplicity > many_threshold:
        return Multiplicity.MANY
    if presence >= 0.999:
        return Multiplicity.EXACTLY_ONE
    return Multiplicity.ZERO_OR_ONE
