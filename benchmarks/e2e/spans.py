"""Spans recorded by the benchmark's own code around public calls, and the
host-speed clock that makes timings comparable between runs.

A span is ``{id, name, start, end, parent, op}``: ``parent`` is the id of
the span that was open when this one started (``None`` for a root) and
``op`` identifies the benchmark operation all spans of one request share.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np


class SpanRecorder:
    """Records nested spans; one recorder belongs to one traced run."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        self._next_op = 0

    def new_op(self) -> int:
        self._next_op += 1
        return self._next_op

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[dict]:
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "op": op if op is not None else (parent["op"] if parent else None),
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        body = dict(header)
        body["spans"] = annotate_self_times(self.spans)
        path.write_text(json.dumps(body), encoding="utf-8")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def annotate_self_times(spans: List[dict]) -> List[dict]:
    """Copies of ``spans`` with ``self`` = duration minus the children's."""
    child_time: Dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + duration(span)
    return [dict(span, self=duration(span) - child_time.get(span["id"], 0.0))
            for span in spans]


def check_span_tree(spans: List[dict]) -> List[str]:
    """Violations of the tree invariants: every span ends after it starts,
    lies within its parent, shares its parent's operation, and has a
    non-negative self time (children never overlap: the benchmark is
    single-threaded)."""
    by_id = {span["id"]: span for span in spans}
    problems = []
    for span in annotate_self_times(spans):
        label = f"span {span['id']} ({span['name']})"
        if span["end"] < span["start"]:
            problems.append(f"{label} ends before it starts")
        if span["self"] < -1e-9:
            problems.append(f"{label} has negative self time {span['self']}")
        if span["parent"] is None:
            continue
        parent = by_id.get(span["parent"])
        if parent is None:
            problems.append(f"{label} names a missing parent")
        elif span["start"] < parent["start"] or span["end"] > parent["end"]:
            problems.append(f"{label} is not within its parent")
        elif span["op"] != parent["op"]:
            problems.append(f"{label} belongs to another operation than its parent")
    return problems


class HostClock:
    """Reads the host's speed beside the measured work and converts raw
    durations into durations at a reference host speed.

    The sandbox's speed moves by up to 1.8x in phases of seconds to tens of
    seconds (CPU time tracks wall time, so it is the host slowing, not the
    process being descheduled); a whole run can fall into one phase, so no
    amount of medians inside a run removes it.  The clock therefore times a
    fixed kernel every ``MIN_GAP_S`` of measured work -- Python object
    allocation and dict lookups plus NumPy gather/sort/unique, the mix that
    tracked the store's own slowdown best (an integer loop did not) -- and a
    duration measured around time ``t`` is divided by the median kernel
    reading within ``WINDOW_S`` of ``t``, relative to ``REFERENCE_MS``.
    The kernel shares no code with the program, so a faster program still
    reads faster.  ``REFERENCE_MS`` is the kernel's reading on the quiet
    sandbox: there, normalised and raw values agree.
    """

    REFERENCE_MS = 2.5
    MIN_GAP_S = 0.03
    WINDOW_S = 0.75
    MIN_SAMPLES = 5

    def __init__(self) -> None:
        rng = np.random.default_rng(20130408)
        self._array = rng.random(25_000)
        self._index = rng.integers(0, 25_000, 25_000)
        self.times: List[float] = []
        self.readings_ms: List[float] = []
        self.spent = 0.0
        """Seconds spent in the kernel, for callers that time an interval
        the kernel runs inside of."""
        self._last = float("-inf")

    def _kernel(self) -> float:
        started = time.perf_counter()
        rows = [(i, str(i), float(i)) for i in range(4000)]
        by_key = {row[1]: row for row in rows}
        sum(by_key[str(i)][0] for i in range(0, 4000, 3))
        gathered = self._array[self._index]
        np.sort(gathered)
        (gathered * 1.5 + 2.0).sum()
        np.unique(self._index[:10_000])
        return time.perf_counter() - started

    def sample(self) -> None:
        elapsed = self._kernel()
        self._last = time.perf_counter()
        self.times.append(self._last)
        self.readings_ms.append(elapsed * 1e3)
        self.spent += elapsed

    def tick(self) -> None:
        """Sample if ``MIN_GAP_S`` have passed since the last sample; call
        it between timed operations, never inside one."""
        if time.perf_counter() - self._last >= self.MIN_GAP_S:
            self.sample()

    def slowdown(self, start: float, end: float) -> float:
        """Host slowdown over ``[start, end]`` relative to the reference:
        the median reading within ``WINDOW_S`` of the interval, widened to
        the nearest ``MIN_SAMPLES`` readings when fewer fall inside."""
        low = bisect.bisect_left(self.times, start - self.WINDOW_S)
        high = bisect.bisect_right(self.times, end + self.WINDOW_S)
        missing = self.MIN_SAMPLES - (high - low)
        if missing > 0:
            low = max(0, low - missing)
            high = min(len(self.times), high + missing)
        return statistics.median(self.readings_ms[low:high]) / self.REFERENCE_MS

    def normalise(self, timed: Sequence[Tuple[float, float]]) -> List[float]:
        """``(end time, raw seconds)`` pairs -> seconds at reference speed."""
        return [seconds / self.slowdown(end - seconds, end) for end, seconds in timed]

    def unsteadiness(self) -> float:
        """Distance between the readings' 90th and 10th percentile as a
        share of their median: how much the host moved during the run."""
        ordered = sorted(self.readings_ms)
        p10 = ordered[len(ordered) // 10]
        p90 = ordered[(len(ordered) * 9) // 10]
        return (p90 - p10) / statistics.median(ordered)
