"""Applying parsed SPARQL Update requests to a store's delta overlay.

The applier is deliberately thin: it encodes terms, decides base membership,
and feeds the :class:`~repro.updates.delta.DeltaStore`, which owns the
insert/tombstone/resurrection rules.  ``DELETE WHERE`` evaluates its pattern
block as an ordinary (delta-aware) SELECT first, then deletes every
instantiation of the template — against a version record of the request's
pending state (``RDFStore.pending_version``), so the pre-deletion state
already reflects earlier statements of the same request while readers still
see the last committed version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

import numpy as np

from ..errors import StorageError
from ..model import EncodedTriple, Triple
from ..sparql.ast import (
    DeleteDataOp,
    DeleteWhereOp,
    InsertDataOp,
    SelectQuery,
    UpdateRequest,
    Variable,
)


@dataclass
class UpdateResult:
    """Outcome of one :meth:`repro.core.RDFStore.update` call."""

    inserted: int = 0
    deleted: int = 0
    statements: int = 0

    @property
    def changed(self) -> bool:
        return self.inserted > 0 or self.deleted > 0

    def merge(self, other: "UpdateResult") -> None:
        self.inserted += other.inserted
        self.deleted += other.deleted
        self.statements += other.statements


class UpdateApplier:
    """Executes an :class:`UpdateRequest` against one store's delta."""

    def __init__(self, store) -> None:
        self.store = store

    def apply(self, request: UpdateRequest) -> UpdateResult:
        result = UpdateResult()
        for operation in request.operations:
            if isinstance(operation, InsertDataOp):
                result.merge(self._insert_data(operation))
            elif isinstance(operation, DeleteDataOp):
                result.merge(self._delete_data(operation))
            elif isinstance(operation, DeleteWhereOp):
                result.merge(self._delete_where(operation))
            else:  # pragma: no cover - parser only produces the three forms
                raise StorageError(f"unsupported update operation {operation!r}")
        return result

    # -- statements -----------------------------------------------------------------

    def _insert_data(self, operation: InsertDataOp) -> UpdateResult:
        rows = self.store.dictionary.encode_triples(operation.triples)
        return UpdateResult(inserted=self._each(self.store.delta.insert, rows), statements=1)

    def _delete_data(self, operation: DeleteDataOp) -> UpdateResult:
        # an unseen term cannot be part of any triple
        found = [encoded for encoded in map(self._lookup_triple, operation.triples)
                 if encoded is not None]
        return UpdateResult(deleted=self._each(self.store.delta.delete, found), statements=1)

    def _delete_where(self, operation: DeleteWhereOp) -> UpdateResult:
        matches = list(self._matching_triples(operation))
        return UpdateResult(deleted=self._each(self.store.delta.delete, matches), statements=1)

    def _each(self, change, rows) -> int:
        """``change(s, p, o, in_base)`` per row, in order; how many changed
        the delta."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
        return sum(map(change, *rows.T.tolist(), self.store.index_store.contains(rows).tolist()))

    # -- DELETE WHERE evaluation -------------------------------------------------------

    def _matching_triples(self, operation: DeleteWhereOp) -> Set[Tuple[int, int, int]]:
        """All OID triples matched by the pattern block (evaluated as a BGP)."""
        variables = operation.all_variables()
        if not variables:
            # a fully ground block deletes its triples iff *every* one matches
            encoded: List[EncodedTriple] = []
            for pattern in operation.patterns:
                triple = Triple(pattern.subject, pattern.predicate, pattern.object)
                found = self._lookup_triple(triple)
                if found is None or not self._is_live(found):
                    return set()
                encoded.append(found)
            return {(t.s, t.p, t.o) for t in encoded}

        query = SelectQuery(select_variables=list(variables),
                            patterns=list(operation.patterns))
        with self.store.pending_version() as version:
            bindings = version.engine.query_parsed("sparql", query)
        matches: Set[Tuple[int, int, int]] = set()
        for row in bindings.rows():
            binding = dict(zip(variables, row))
            for pattern in operation.patterns:
                resolved = self._resolve_pattern(pattern, binding)
                if resolved is not None:
                    matches.add(resolved)
        return matches

    def _resolve_pattern(self, pattern, binding) -> Optional[Tuple[int, int, int]]:
        oids = []
        for node in (pattern.subject, pattern.predicate, pattern.object):
            if isinstance(node, Variable):
                oids.append(binding[node.name])
                continue
            oid = self.store.dictionary.lookup_term(node)
            if oid is None:
                return None
            oids.append(oid)
        return (oids[0], oids[1], oids[2])

    # -- membership helpers --------------------------------------------------------------

    def _lookup_triple(self, triple: Triple) -> Optional[EncodedTriple]:
        """Encode a ground triple without assigning new OIDs; ``None`` if unseen."""
        dictionary = self.store.dictionary
        s = dictionary.lookup_term(triple.subject)
        p = dictionary.lookup_term(triple.predicate)
        o = dictionary.lookup_term(triple.object)
        if s is None or p is None or o is None:
            return None
        return EncodedTriple(s, p, o)

    def _is_live(self, encoded: EncodedTriple) -> bool:
        """Whether the triple is visible right now (base ∪ delta − tombstones)."""
        delta = self.store.delta
        if delta.contains_insert(*encoded):
            return True
        if delta.is_tombstoned(*encoded):
            return False
        return bool(self.store.index_store.contains(np.asarray([encoded], dtype=np.int64))[0])
