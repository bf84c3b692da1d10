"""Execution context: everything operators need at run time."""

from __future__ import annotations

import copy

from dataclasses import dataclass, field
from typing import Optional

from ..columnar import BufferPool, CostModel, CostTracker
from ..cs import EmergentSchema
from ..errors import ExecutionError
from ..model import TermDictionary
from ..obs import NULL_ACTIVE_QUERY, NULL_TRACER
from ..storage import ClusteredStore, ExhaustiveIndexStore
from .values import ValueDecoder, ValueEncoder


@dataclass
class ExecutionContext:
    """Shared state for one query execution.

    The context bundles the dictionary, the available physical stores, the
    buffer pool whose tracker collects cost counters, and the value
    encoder/decoder bridges.  Operators read from whichever store their plan
    scheme targets; the executor snapshots the tracker around the run.
    """

    dictionary: TermDictionary
    pool: BufferPool
    index_store: Optional[ExhaustiveIndexStore] = None
    clustered_store: Optional[ClusteredStore] = None
    schema: Optional[EmergentSchema] = None
    cost_model: CostModel = field(default_factory=CostModel)
    delta: Optional[object] = None
    """Pending-write overlay (a :class:`repro.updates.DeltaStore`), duck-typed
    so the engine layer stays import-free of the updates package.  Scans merge
    ``base ∪ delta − tombstones`` whenever a non-empty delta is attached."""
    batch_size: int = 1024
    """Rows per batch flowing between operators (from
    :attr:`repro.core.StoreConfig.batch_size`).  Size 1 degenerates to
    row-at-a-time execution; both sizes must produce identical answers."""
    tracer: object = NULL_TRACER
    """Per-query span recorder (:class:`repro.obs.QueryTrace`); the shared
    no-op :data:`repro.obs.NULL_TRACER` by default, so untraced runs pay one
    ``tracer.enabled`` attribute check per operator call."""
    metrics: Optional[object] = None
    """Optional :class:`repro.obs.MetricsRegistry` the executor feeds
    batch/row throughput counters into (``None`` disables them)."""
    active_query: object = NULL_ACTIVE_QUERY
    """Live registry handle (:class:`repro.obs.ActiveQuery`) for this run —
    carries the cooperative-cancellation flag and per-operator row counts;
    the shared no-op :data:`repro.obs.NULL_ACTIVE_QUERY` by default, so an
    unregistered run pays two attribute checks per operator call."""
    encoder: ValueEncoder = field(init=False)
    decoder: ValueDecoder = field(init=False)

    def __post_init__(self) -> None:
        self.encoder = ValueEncoder(self.dictionary)
        self.decoder = ValueDecoder(self.dictionary)

    def with_tracer(self, tracer) -> "ExecutionContext":
        """A shallow copy of this context with ``tracer`` attached.

        Shares the encoder/decoder (and every store reference) with the
        original; only the tracer slot differs.
        """
        clone = copy.copy(self)
        clone.tracer = tracer
        return clone

    def with_observation(self, tracer=None, active=None) -> "ExecutionContext":
        """A shallow copy with a tracer and/or active-query handle attached.

        Like :meth:`with_tracer`, the clone shares every store reference
        with the original; only the observation slots differ.  ``None``
        leaves the corresponding slot at the original's value.
        """
        if tracer is None and active is None:
            return self
        clone = copy.copy(self)
        if tracer is not None:
            clone.tracer = tracer
        if active is not None:
            clone.active_query = active
        return clone

    @property
    def tracker(self) -> CostTracker:
        return self.pool.tracker

    def require_index_store(self) -> ExhaustiveIndexStore:
        if self.index_store is None:
            raise ExecutionError("this plan requires the exhaustive index store, which is not loaded")
        return self.index_store

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
