"""Wall-clock comparison helper for the overhead guards."""

from __future__ import annotations

import time
from typing import Callable, List


def best_means(*fns: Callable[[], object], rounds: int = 40,
               repeats: int = 10) -> List[float]:
    """Per function, the best mean seconds per call over ``rounds`` rounds.

    The functions take turns inside every round, so a shift in machine
    speed (a noisy neighbour, a frequency change) falls on all of them
    alike instead of on whichever happened to be measured second; many
    short rounds give each function a chance at the same quiet moments.
    """
    best = [float("inf")] * len(fns)
    for _ in range(rounds):
        for index, fn in enumerate(fns):
            started = time.perf_counter()
            for _ in range(repeats):
                fn()
            best[index] = min(best[index], (time.perf_counter() - started) / repeats)
    return best
