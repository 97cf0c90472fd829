"""Response-time analysis for fixed-priority preemptive scheduling.

Joseph & Pandya / Audsley et al.: the worst-case response time of task i
(with higher-priority set hp(i)) is the least fixed point of

    R = C_i + sum_{j in hp(i)} ceil(R / T_j) * C_j

computed by iteration from R = C_i.  The set is schedulable iff
R_i <= D_i for all i.

Exactness is conditional: the fixed point is the true worst case only
under *synchronous* release, where t = 0 is the critical instant.  Once
any task carries a nonzero offset the synchronous analysis is merely an
upper bound -- a "False" cannot prove unschedulability, because the
offsets may keep the critical instant from ever occurring.
:func:`rta_exactness` makes that demotion explicit; every consumer
(oracle relations, the portfolio RTA tier) asks it before drawing an
UNSCHEDULABLE conclusion.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

from repro.sched.taskmodel import PeriodicTask, TaskSet


def response_time(
    task: PeriodicTask,
    higher_priority: Sequence[PeriodicTask],
    *,
    limit: Optional[int] = None,
) -> Optional[int]:
    """Worst-case synchronous response time, or None when iteration
    exceeds ``limit`` (divergence: the response exceeds any bound up to
    ``limit``).

    ``limit`` defaults to the task's deadline -- adequate for a
    schedulability verdict, where "diverged past the deadline" and
    "misses the deadline" coincide.  Callers that need the actual
    response of a deadline-missing task (witness synthesis, reports)
    pass a larger limit; see :func:`response_times`."""
    limit = task.deadline if limit is None else limit
    response = task.wcet
    while True:
        interference = sum(
            math.ceil(response / other.period) * other.wcet
            for other in higher_priority
        )
        next_response = task.wcet + interference
        if next_response == response:
            return response
        if next_response > limit:
            return None
        response = next_response


def rta_exactness(tasks: TaskSet) -> str:
    """How the synchronous RTA verdict relates to the true one.

    ``"exact"`` when every task releases at t = 0 (the synchronous
    pattern is the critical instant); ``"sufficient"`` when any task has
    a nonzero offset -- then a passing RTA still proves schedulability
    (the synchronous response upper-bounds every offset pattern), but a
    failing RTA proves nothing, mirroring the oracle's demotion of
    offset-bearing cases."""
    synchronous = all(task.offset == 0 for task in tasks)
    return "exact" if synchronous else "sufficient"


def rta_schedulable(tasks: TaskSet, *, ordering: str = "rate") -> bool:
    """Fixed-priority verdict from the synchronous critical instant.

    Exact for synchronous constrained-deadline periodic task sets; for
    offset-bearing sets the verdict is sufficient-only (``True`` is
    sound, ``False`` is inconclusive) -- consult :func:`rta_exactness`
    before concluding unschedulability.

    ``ordering``: ``"rate"`` (RM), ``"deadline"`` (DM) or ``"explicit"``
    (the Priority property).
    """
    ordered = tasks.ordered(ordering)
    for index, task in enumerate(ordered):
        response = response_time(task, ordered[:index])
        if response is None or response > task.deadline:
            return False
    return True


def response_times(
    tasks: TaskSet, *, ordering: str = "rate", limit: Optional[int] = None
) -> Dict[str, Optional[int]]:
    """Per-task worst-case synchronous response times.

    A computed response is returned even when it exceeds the deadline --
    callers compare against ``task.deadline`` themselves, so a report
    can show *by how much* a task misses.  ``None`` is reserved for
    genuine divergence: the iteration escaped ``limit`` without reaching
    a fixed point.  ``limit`` defaults to the task set's hyperperiod
    (the level-i busy period cannot extend past it while U <= 1; an
    over-utilized set diverges, and ``None`` is the honest answer).

    Previously both "diverged" and "exceeds the deadline" collapsed to
    ``None``, which made a 1-quantum miss indistinguishable from an
    unbounded backlog.
    """
    if limit is None:
        limit = max(
            tasks.hyperperiod, max(task.deadline for task in tasks)
        )
    ordered = tasks.ordered(ordering)
    result: Dict[str, Optional[int]] = {}
    for index, task in enumerate(ordered):
        result[task.name] = response_time(
            task, ordered[:index], limit=limit
        )
    return result

