"""Host-speed calibration for the benchmark's timings.

On a shared host the CPU speed one process gets drifts by tens of
percent within minutes, so raw medians of the same code taken minutes
apart differ by more than any useful bound.  A fixed kernel of the same
kind of work as the program (small Python objects, dataclass
construction, tuples, dicts, float maths) slows down with the host.  So
each measured time is scaled by REFERENCE_S / (the median time of the
kernel passes nearest it): the result reads as seconds on a host where the kernel
takes REFERENCE_S.  The kernel is benchmark code and the same on every
commit, so a change to the program moves only the numerator.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from time import perf_counter_ns

# The kernel's typical time on the 2-core host the baseline was taken on.
REFERENCE_S = 0.009


@dataclass(frozen=True)
class _Item:
    value: float
    flags: tuple

    def __post_init__(self) -> None:
        if not self.flags:
            raise ValueError("an item needs flags")


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed kernel."""
    start = perf_counter_ns()
    rng = random.Random(0)
    acc = 0.0
    for _ in range(1500):
        u = [rng.random() for _ in range(20)]
        item = _Item(u[0], tuple(x < 0.5 for x in u))
        row = {"value": item.value, "n": sum(item.flags)}
        acc += math.log1p(row["value"]) * row["n"]
    return (perf_counter_ns() - start) / 1e9


def scale(passes: list[float]) -> float:
    """Factor that turns a time measured among these kernel passes into reference seconds."""
    return REFERENCE_S / statistics.median(passes)
