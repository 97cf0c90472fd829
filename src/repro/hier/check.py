"""Demand-vs-supply schedulability checks against a BDR interface.

The partition-level analogue of the classical tests: instead of the
full processor (supply ``t`` in any window of length ``t``), a partition
receives at least :meth:`~repro.hier.interface.BdrInterface.sbf` of
supply, and the task set is accepted when its demand never exceeds that
guarantee.

* **EDF** (Shin & Lee's compositional condition): the partition is
  schedulable if ``U <= alpha`` and ``dbf(t) <= sbf(t)`` at every
  absolute deadline ``t`` up to ``max(delta, D_max) + lcm(H, P)``.
  Beyond that horizon both sides advance by at least ``(alpha - U) * L
  >= 0`` per hyperperiod-of-both, so no later point can fail first;
  checking only deadline points is exact because ``dbf`` steps at
  deadlines while ``sbf`` is non-decreasing.
* **Fixed priority** (time-demand against ``sbf``): task ``i`` is
  accepted when some point ``t`` in ``{k T_j <= D_i} + {D_i}`` has
  ``C_i + sum_{j in hp(i)} ceil(t / T_j) C_j <= sbf(t)`` -- the
  synchronous critical instant, evaluated at the right endpoints of the
  intervals on which the demand is constant.

Both checks are *sufficient* (offsets and server phasings only remove
demand or add supply relative to what they assume), which is exactly
the soundness class the portfolio's hier tier claims: a pass is a
proof, a fail merely escalates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Set

from repro.hier.interface import BdrInterface
from repro.sched.demand import demand_bound_function
from repro.sched.taskmodel import PeriodicTask, TaskSet


class PartitionCheck:
    """Outcome of one partition-vs-interface check."""

    __slots__ = ("ok", "detail")

    def __init__(self, ok: bool, detail: str) -> None:
        self.ok = ok
        self.detail = detail

    def __repr__(self) -> str:
        return f"PartitionCheck(ok={self.ok}, {self.detail!r})"


def fractional_utilization(tasks: TaskSet) -> Fraction:
    """Exact task-set utilization (the float property rounds)."""
    return sum(
        (Fraction(task.wcet, task.period) for task in tasks), Fraction(0)
    )


def check_partition_edf(
    tasks: TaskSet, interface: BdrInterface
) -> PartitionCheck:
    """``dbf(t) <= sbf(t)`` at every deadline up to the repetition point."""
    util = fractional_utilization(tasks)
    if util > interface.alpha:
        return PartitionCheck(
            False,
            f"U={util} exceeds availability factor alpha={interface.alpha}",
        )
    max_deadline = max(task.deadline for task in tasks)
    cycle = math.lcm(tasks.hyperperiod, interface.period)
    horizon = max(interface.delta, max_deadline) + cycle
    for t in _deadline_points(tasks, horizon):
        demand = demand_bound_function(tasks, t)
        if demand > interface.sbf(t):
            return PartitionCheck(
                False,
                f"dbf({t})={demand} > sbf({t})={interface.sbf(t)}",
            )
    return PartitionCheck(
        True,
        f"dbf<=sbf on (0, {horizon}], U={util} <= alpha={interface.alpha}",
    )


def check_partition_fp(
    tasks: TaskSet, interface: BdrInterface, ordering: str
) -> PartitionCheck:
    """Per-task time-demand against ``sbf`` at the critical instant."""
    ordered = tasks.ordered(ordering)
    for index, task in enumerate(ordered):
        higher = ordered[:index]
        if not _fp_task_fits(task, higher, interface):
            return PartitionCheck(
                False,
                f"{task.name}: time demand exceeds sbf at every point "
                f"up to D={task.deadline}",
            )
    return PartitionCheck(
        True,
        f"time demand met for all {len(ordered)} task(s) "
        f"under sbf({interface.token})",
    )


def check_partition(
    tasks: TaskSet,
    interface: BdrInterface,
    *,
    ordering: Optional[str],
    edf: bool = False,
) -> Optional[PartitionCheck]:
    """Dispatch to the matching analytic check, or None when the
    partition's policy has no analytic partition test (LLF) and the
    caller must fall back to the flattened simulation."""
    if len(tasks) == 0:
        return PartitionCheck(True, "no periodic demand")
    if ordering is not None:
        return check_partition_fp(tasks, interface, ordering)
    if edf:
        return check_partition_edf(tasks, interface)
    return None


def _fp_task_fits(
    task: PeriodicTask,
    higher: List[PeriodicTask],
    interface: BdrInterface,
) -> bool:
    points: Set[int] = {task.deadline}
    for other in higher:
        release = other.period
        while release <= task.deadline:
            points.add(release)
            release += other.period
    for t in sorted(points):
        demand = task.wcet + sum(
            -(-t // other.period) * other.wcet for other in higher
        )
        if demand <= interface.sbf(t):
            return True
    return False


def _deadline_points(tasks: TaskSet, horizon: int) -> List[int]:
    points: Set[int] = set()
    for task in tasks:
        deadline = task.deadline
        while deadline <= horizon:
            points.add(deadline)
            deadline += task.period
    return sorted(points)

