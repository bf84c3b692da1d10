"""Execution context: everything operators need at run time."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..columnar import BufferPool, CostModel, CostTracker
from ..cs import EmergentSchema
from ..errors import ExecutionError
from ..model import TermDictionary
from ..obs import NULL_ACTIVE_QUERY
from ..storage import ClusteredStore, ExhaustiveIndexStore


@dataclass
class ExecutionContext:
    """Shared state for one query execution.

    The context bundles the dictionary (which also decodes OID columns),
    the available physical stores and the buffer pool whose tracker
    collects cost counters.  Operators read from whichever
    store their plan scheme targets; the executor snapshots the tracker
    around the run.
    """

    dictionary: TermDictionary
    pool: BufferPool
    index_store: Optional[ExhaustiveIndexStore] = None
    """The triple projections.  Always set on a context a store hands out (a
    store has one whenever it has a matrix); ``None`` only in hand-made
    contexts for operators that read no storage."""
    clustered_store: Optional[ClusteredStore] = None
    schema: Optional[EmergentSchema] = None
    cost_model: CostModel = field(default_factory=CostModel)
    delta: Optional[object] = None
    """Pending-write overlay (the :class:`repro.updates.FrozenDelta` of one
    delta version), duck-typed so the engine layer stays import-free of the
    updates package.  Scans merge ``base ∪ delta − tombstones`` whenever a
    non-empty delta is attached."""
    batch_size: int = 1024
    """Rows per batch flowing between operators (from
    :attr:`repro.core.StoreConfig.batch_size`).  Size 1 degenerates to
    row-at-a-time execution; both sizes must produce identical answers."""
    run: object = NULL_ACTIVE_QUERY
    """The one observation slot: this execution's per-run object (a
    :class:`repro.obs.ActiveQuery` — cancellation flag, per-operator row
    counts, optional trace), or the shared no-op
    :data:`repro.obs.NULL_ACTIVE_QUERY` for a bare run, which costs one
    ``run.enabled`` check per operator per run."""
    def with_run(self, run) -> "ExecutionContext":
        """A shallow copy of this context carrying ``run``.

        Shares every store reference with the original; only the run slot
        differs.
        """
        # on every observed query's path: a plain field copy, cheaper than
        # copy.copy()'s reduce protocol
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__, run=run)
        return clone

    @property
    def tracker(self) -> CostTracker:
        return self.pool.tracker

    def require_clustered_store(self) -> ClusteredStore:
        if self.clustered_store is None:
            raise ExecutionError("this plan requires the clustered store, which is not built")
        return self.clustered_store

    def has_clustered_store(self) -> bool:
        return self.clustered_store is not None

    def has_pending_delta(self) -> bool:
        """Whether a non-empty write overlay is attached."""
        return self.delta is not None and not self.delta.is_empty()

    def active_delta(self):
        """The delta store when it has pending writes, else ``None``."""
        if self.has_pending_delta():
            return self.delta
        return None
