"""Statistics for the benchmark: percentiles, spread, and the
parent-vs-change verdict per metric.  Pure functions, no ``repro``."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: Percentiles a timing may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: A percentile is trustworthy only with this many samples beyond it.
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile, interpolating between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * p / 100
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(samples: int) -> Optional[float]:
    """The highest of :data:`PERCENTILES` that has at least
    :data:`TAIL_SAMPLES` samples beyond it, or None when even the
    median has fewer."""
    best = None
    for p in PERCENTILES:
        if samples * (100 - p) / 100 >= TAIL_SAMPLES - 1e-9:
            best = p
    return best


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def classify(
    parent: Sequence[float],
    change: Sequence[float],
    *,
    better: str,
    bound: float,
) -> str:
    """``ok``, ``worse`` or ``unresolved`` for one metric of one
    workload: ``worse`` when the change's median is worse than the
    parent's by more than ``bound`` (a share of the parent's median);
    ``unresolved`` when either side's run-to-run spread exceeds the
    bound, unless every change run reads better than every parent run.
    """
    sign = 1.0 if better == "higher" else -1.0
    if min(sign * v for v in change) > max(sign * v for v in parent):
        return "ok"
    if max(spread(parent), spread(change)) > bound:
        return "unresolved"
    base = statistics.median(parent)
    loss = sign * (base - statistics.median(change))
    return "worse" if loss > bound * abs(base) else "ok"


def per_input_ms(rounds: List[List[list]]) -> Dict[int, float]:
    """One time per input from ``[index, verdict, ms]`` samples of
    several rounds over the same input sequence: the fastest of the
    rounds' first measurements, over the inputs every round reached.

    Every round analyzes the same inputs in a fresh process, so the
    rounds differ only in how fast the machine ran at the time; taking
    each input's best round removes that drift, which on a shared
    machine is larger than most changes worth measuring.  A round that
    wrapped around its input list measured some inputs twice in one
    process; only the first measurement counts.
    """
    firsts = []
    for samples in rounds:
        first: Dict[int, float] = {}
        for index, _, ms in samples:
            first.setdefault(index, ms)
        firsts.append(first)
    common = set(firsts[0]).intersection(*firsts[1:])
    return {index: min(f[index] for f in firsts) for index in sorted(common)}
