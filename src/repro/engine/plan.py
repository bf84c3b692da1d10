"""Physical plan building blocks: pattern terms, triple patterns, star
patterns and the operator base class.

A *star pattern* is the unit the paper's new operators work on: a set of
triple patterns sharing one subject variable.  The Default plan scheme turns
each property of the star into its own index scan plus join; the
RDFscan/RDFjoin scheme evaluates the whole star in one operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import PlanError
from ..model import ValueBounds
from . import kernels
from ..obs import NULL_ACTIVE_QUERY
from .bindings import Batch, BindingTable, concat_tables


@dataclass(frozen=True)
class PatternTerm:
    """One slot of a triple pattern: either a variable or a constant OID."""

    var: Optional[str] = None
    oid: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.var is None) == (self.oid is None):
            raise PlanError("a pattern term is either a variable or a constant OID")

    @classmethod
    def variable(cls, name: str) -> "PatternTerm":
        return cls(var=name)

    @classmethod
    def constant(cls, oid: int) -> "PatternTerm":
        return cls(oid=int(oid))

    @property
    def is_variable(self) -> bool:
        return self.var is not None

    def describe(self) -> str:
        return f"?{self.var}" if self.is_variable else f"#{self.oid}"


NO_OIDS = np.empty(0, dtype=np.int64)
NO_OIDS.setflags(write=False)


@dataclass(frozen=True)
class OidRange:
    """An inclusive OID interval used for pushed-down range predicates, and
    the literal value range it stands for.

    Literal OIDs below the dictionary's value-order watermark (its *head*)
    are in value order, so a value range over them is the one interval
    ``[low, high]``, fixed for a base generation: only a clustering or a
    reload moves a head OID, and each of them starts a new generation.
    Literals appended since (the *tail*) sit above the watermark in arrival
    order — in the pending delta, and in base columns once a compaction,
    which moves no OID, folded the delta in.  ``value`` keeps the range's
    bounds so a run matches them by value: an operator resolves
    :meth:`tail_oids` once per run and hands the array to :meth:`mask`.  A
    plan therefore holds no OID a later write could add, and survives
    writes.

    A reader that narrows by OID before its exact mask (a sorted column's
    binary search, zone maps, a projection's range probe, push-down)
    narrows by :meth:`intervals`: the head interval plus the hull of the
    run's tail OIDs, which lies above every head OID.

    A pure OID interval (a zone-map push-down, a block's subject run) has no
    ``value`` and no tail: it bounds subjects or other non-literal OIDs.
    """

    low: Optional[int] = None
    high: Optional[int] = None
    value: Optional[ValueBounds] = None

    def is_unbounded(self) -> bool:
        return self.low is None and self.high is None and self.value is None

    def is_empty_interval(self) -> bool:
        """Whether the ``[low, high]`` interval itself matches nothing.

        The conventional empty sentinel is ``OidRange(1, 0)``: no head
        literal is in range, though a tail literal may be.
        """
        return self.low is not None and self.high is not None and self.high < self.low

    def intersect(self, other: "OidRange") -> "OidRange":
        """Both parts tightened: the intervals intersect, and so do the value
        bounds — a tail literal must satisfy both predicates.  A pure OID
        interval admits no tail literal, so the result keeps a value part
        only when both sides have one (or one side is unbounded)."""
        if other.is_unbounded():
            return self
        if self.is_unbounded():
            return other
        low = self.low if other.low is None else (other.low if self.low is None else max(self.low, other.low))
        high = self.high if other.high is None else (other.high if self.high is None else min(self.high, other.high))
        value = (None if self.value is None or other.value is None
                 else self.value.intersect(other.value))
        return OidRange(low, high, value)

    def tail_oids(self, dictionary) -> np.ndarray:
        """The tail literals in range right now, sorted: what one run passes
        to every :meth:`mask` it makes (nothing without a value part)."""
        if self.value is None:
            return NO_OIDS
        return dictionary.literal_tail_range(self.value)

    def intervals(self, tail: np.ndarray = NO_OIDS) -> List[Tuple[Optional[int], Optional[int]]]:
        """The inclusive OID intervals a reader narrows by before its exact
        :meth:`mask` (``None`` leaves a side open): ``[low, high]`` unless
        empty, then ``[tail[0], tail[-1]]`` when the run's :meth:`tail_oids`
        is not.  Ascending and disjoint: only a range with a ``value`` part
        has a tail, its interval bounds head literals, and every tail OID
        lies above every head OID."""
        spans = [] if self.is_empty_interval() else [(self.low, self.high)]
        if len(tail):
            spans.append((int(tail[0]), int(tail[-1])))
        return spans

    def mask(self, values: np.ndarray, tail: np.ndarray = NO_OIDS) -> np.ndarray:
        """Which OIDs are in range: in ``[low, high]`` or in ``tail`` (the
        run's :meth:`tail_oids`)."""
        return kernels.range_mask(values, self.low, self.high, tail)

    def contains(self, value: int) -> bool:
        """Whether ``value`` is in the ``[low, high]`` interval."""
        return bool(self.mask(np.asarray([value], dtype=np.int64))[0])

    def describe(self) -> str:
        return f"[{self.low if self.low is not None else '-inf'}, {self.high if self.high is not None else '+inf'}]"


@dataclass(frozen=True)
class TriplePatternPlan:
    """A physical triple pattern: (subject, predicate, object) slots."""

    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def variables(self) -> List[str]:
        return [t.var for t in (self.subject, self.predicate, self.object) if t.var is not None]

    def describe(self) -> str:
        return f"{self.subject.describe()} {self.predicate.describe()} {self.object.describe()}"


@dataclass
class StarProperty:
    """One property of a star pattern.

    ``object_term`` binds the object slot (variable or constant); an
    additional OID range can be attached (from a FILTER or a zone-map
    push-down).  ``required`` distinguishes mandatory properties from
    OPTIONAL-like ones (not used by the paper's queries but kept for
    completeness).
    """

    predicate_oid: int
    object_term: PatternTerm
    oid_range: Optional[OidRange] = None
    required: bool = True

    def describe(self) -> str:
        parts = [f"p{self.predicate_oid} -> {self.object_term.describe()}"]
        if self.oid_range is not None and not self.oid_range.is_unbounded():
            parts.append(self.oid_range.describe())
        return " ".join(parts)


@dataclass
class StarPattern:
    """A set of properties sharing one subject variable."""

    subject_var: str
    properties: List[StarProperty] = field(default_factory=list)
    subject_range: Optional[OidRange] = None

    def predicate_oids(self) -> List[int]:
        return [prop.predicate_oid for prop in self.properties]

    def output_variables(self) -> List[str]:
        names = [self.subject_var]
        for prop in self.properties:
            if prop.object_term.is_variable and prop.object_term.var not in names:
                names.append(prop.object_term.var)
        return names

    def describe(self) -> str:
        inner = "; ".join(prop.describe() for prop in self.properties)
        suffix = f" subj{self.subject_range.describe()}" if self.subject_range else ""
        return f"star(?{self.subject_var}: {inner}){suffix}"


class PhysicalOperator:
    """Base class of every physical operator.

    A plan is an immutable template: operators hold what the planner decided
    (patterns, ranges, children, estimates) and nothing a run writes, so any
    number of executions may share one plan object — cached plans do.
    Execution is batched (Volcano-style, but a column batch at a time):
    every operator implements one generator, ``_batches(context)``, that
    does its own setup first, then pulls from ``child.batches(context)``,
    and yields :class:`~repro.engine.bindings.Batch` objects.  Emitters,
    hash-build tables, distinct state and limit counters are its locals,
    private to the run.  Every stream yields at least one (possibly empty)
    batch, so downstream operators always learn their input schema.

    What a run *observes* — per-operator rows (never batches), residual
    counts, spans — lives on the run object in ``context.run`` (see
    :class:`repro.obs.ActiveQuery`); pass it to :meth:`explain` for
    estimated vs. actual rows, the ``EXPLAIN ANALYZE`` of this engine.  The
    planner annotates :attr:`estimated_rows` at planning time.
    """

    estimated_rows: Optional[float] = None
    """Optimizer-estimated output rows (``None`` until a plan is annotated)."""

    def _batches(self, context) -> Iterator[Batch]:  # pragma: no cover - interface
        raise NotImplementedError

    def batches(self, context) -> Iterator[Batch]:
        """This operator's batch stream for one run.

        The one wrapper around every operator's ``_batches``.  A bare run
        (``context.run.enabled`` false) streams the batches untouched.  An
        observed run times each pull in the run's trace if it has one,
        checks for cancellation at every batch — every operator level does,
        so a cancel lands within one batch regardless of plan depth —, and
        adds the batch's live rows to the run's tally for this operator.
        Closing the stream (early ``LIMIT`` stop, cancellation, an error)
        closes ``_batches``, whose frame exit closes the child streams it
        was pulling from.
        """
        run = context.run
        inner = self._batches(context)
        try:
            if not run.enabled:
                yield from inner
                return
            tally = run.tally(self)
            for batch in (inner if run.trace is None else run.trace.timed(self, inner)):
                if run.cancel_requested:
                    run.raise_cancelled()
                tally[0] += batch.live_count()
                tally[1] += 1
                yield batch
        finally:
            inner.close()

    def execute(self, context) -> BindingTable:
        """Run the operator to completion and return all live rows — what
        :func:`~repro.engine.executor.execute_plan` calls on the root and
        blocking operators on their children."""
        return concat_tables([batch.compact() for batch in self.batches(context)])

    def children(self) -> Sequence["PhysicalOperator"]:
        return ()

    def name(self) -> str:
        return type(self).__name__

    def describe(self) -> str:
        return self.name()

    # -- plan inspection ---------------------------------------------------------

    def explain(self, indent: int = 0, run=NULL_ACTIVE_QUERY) -> str:
        """Indented plan tree, one operator per line.

        Each line carries the operator's :meth:`describe` string and its
        estimated row count.  Given the run object of an execution of this
        plan (a result's ``run``), each line also shows what that run
        observed: ``actual=`` rows, ``residual=`` subjects on star
        operators and, if the run was traced, a ``time=`` token with the
        operator's *self* wall time (child time excluded); a profiled run
        adds ``pages=`` (self buffer-pool reads) and, with memory sampling
        on, ``mem=``.
        """
        parts = []
        if self.estimated_rows is not None:
            parts.append(f"est={self.estimated_rows:.0f}")
        observed = run.explain_note(self)
        if observed:
            parts.append(observed)
        suffix = f"  ({' '.join(parts)})" if parts else ""
        lines = [("  " * indent) + self.describe() + suffix]
        for child in self.children():
            lines.append(child.explain(indent + 1, run))
        return "\n".join(lines)

    def count_operators(self) -> int:
        """Total number of operators in the subtree (for Fig. 4 style stats)."""
        return 1 + sum(child.count_operators() for child in self.children())

    def count_joins(self) -> int:
        """Number of join operators in the subtree."""
        from .operators import HashJoinOp, NestedLoopIndexJoinOp  # local to avoid cycle
        from .rdfscan import RDFJoinOp

        own = 1 if isinstance(self, (HashJoinOp, NestedLoopIndexJoinOp, RDFJoinOp)) else 0
        return own + sum(child.count_joins() for child in self.children())

    def operator_names(self) -> Dict[str, int]:
        """Histogram of operator class names in the subtree."""
        histogram: Dict[str, int] = {self.name(): 1}
        for child in self.children():
            for name, count in child.operator_names().items():
                histogram[name] = histogram.get(name, 0) + count
        return histogram
