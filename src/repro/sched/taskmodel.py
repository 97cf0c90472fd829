"""Periodic task-set abstraction of an AADL model.

Classical schedulability theory works on task tuples ``(C, T, D)``; this
module extracts them from a bound AADL instance (worst-case execution
times, quantized) so the baselines and the ACSR verdict can be compared
on the same inputs.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import SchedError
from repro.aadl.instance import ComponentInstance, SystemInstance
from repro.aadl.properties import (
    DISPATCH_PROTOCOL,
    PRIORITY,
    DispatchProtocol,
    SchedulingProtocol,
)
from repro.translate.quantum import TimingQuantizer

#: Fixed-priority protocols and the :meth:`TaskSet.ordered` ordering
#: each induces.
FIXED_PRIORITY_ORDERING = {
    SchedulingProtocol.RATE_MONOTONIC: "rate",
    SchedulingProtocol.DEADLINE_MONOTONIC: "deadline",
    SchedulingProtocol.HIGHEST_PRIORITY_FIRST: "explicit",
}


class PeriodicTask:
    """One periodic (or sporadic, treated as its worst case) task."""

    __slots__ = (
        "name", "wcet", "period", "deadline", "priority", "bcet", "offset",
    )

    def __init__(
        self,
        name: str,
        wcet: int,
        period: int,
        deadline: Optional[int] = None,
        priority: Optional[int] = None,
        bcet: Optional[int] = None,
        offset: int = 0,
    ) -> None:
        if wcet < 1:
            raise SchedError(f"task {name}: WCET must be >= 1, got {wcet}")
        if period < 1:
            raise SchedError(f"task {name}: period must be >= 1, got {period}")
        deadline = period if deadline is None else deadline
        if deadline < wcet:
            raise SchedError(
                f"task {name}: deadline {deadline} < WCET {wcet}"
            )
        if deadline > period:
            raise SchedError(
                f"task {name}: deadline {deadline} > period {period} "
                f"(constrained deadlines required)"
            )
        bcet = wcet if bcet is None else bcet
        if not (1 <= bcet <= wcet):
            raise SchedError(
                f"task {name}: BCET {bcet} out of range [1, {wcet}]"
            )
        if not (0 <= offset < period):
            raise SchedError(
                f"task {name}: offset {offset} out of range [0, {period})"
            )
        self.offset = offset
        self.name = name
        self.wcet = wcet
        self.period = period
        self.deadline = deadline
        self.priority = priority
        self.bcet = bcet

    @property
    def utilization(self) -> float:
        return self.wcet / self.period

    def __repr__(self) -> str:
        return (
            f"PeriodicTask({self.name!r}, C={self.wcet}, T={self.period}, "
            f"D={self.deadline})"
        )


class TaskSet:
    """An ordered collection of periodic tasks on one processor."""

    def __init__(self, tasks: Sequence[PeriodicTask]) -> None:
        names = [task.name for task in tasks]
        if len(set(names)) != len(names):
            raise SchedError("duplicate task names in task set")
        self.tasks: List[PeriodicTask] = list(tasks)

    def __iter__(self) -> Iterator[PeriodicTask]:
        return iter(self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)

    def __getitem__(self, index: int) -> PeriodicTask:
        return self.tasks[index]

    @property
    def utilization(self) -> float:
        return sum(task.utilization for task in self.tasks)

    @property
    def hyperperiod(self) -> int:
        result = 1
        for task in self.tasks:
            result = result * task.period // math.gcd(result, task.period)
        return result

    def by_rate_monotonic(self) -> List[PeriodicTask]:
        """Tasks ordered highest-priority-first under RM."""
        return sorted(self.tasks, key=lambda t: (t.period, t.name))

    def by_deadline_monotonic(self) -> List[PeriodicTask]:
        """Tasks ordered highest-priority-first under DM."""
        return sorted(self.tasks, key=lambda t: (t.deadline, t.name))

    def by_explicit_priority(self) -> List[PeriodicTask]:
        """Tasks ordered highest-priority-first by the Priority property
        (larger value = higher priority)."""
        for task in self.tasks:
            if task.priority is None:
                raise SchedError(
                    f"task {task.name} has no explicit priority"
                )
        return sorted(self.tasks, key=lambda t: (-t.priority, t.name))

    def ordered(self, ordering: str) -> List[PeriodicTask]:
        """Tasks highest-priority-first under ``ordering``: ``"rate"``
        (RM), ``"deadline"`` (DM) or ``"explicit"`` (the Priority
        property)."""
        if ordering == "rate":
            return self.by_rate_monotonic()
        if ordering == "deadline":
            return self.by_deadline_monotonic()
        if ordering == "explicit":
            return self.by_explicit_priority()
        raise SchedError(f"unknown priority ordering {ordering!r}")

    def __repr__(self) -> str:
        return f"TaskSet({self.tasks!r})"


def extract_task_set(
    instance: SystemInstance,
    processor: ComponentInstance,
    quantizer: Optional[TimingQuantizer] = None,
) -> TaskSet:
    """Task-set abstraction of the periodic/sporadic threads bound to one
    processor, in quanta.

    Aperiodic and background threads have no period and are skipped (the
    classical tests do not apply to them); the exhaustive ACSR analysis
    is the tool that covers them.
    """
    quantizer = quantizer or TimingQuantizer.natural(instance)
    tasks: List[PeriodicTask] = []
    for thread in instance.threads():
        if thread.bound_processor is not processor:
            continue
        protocol = thread.property(DISPATCH_PROTOCOL)
        if protocol not in (
            DispatchProtocol.PERIODIC,
            DispatchProtocol.SPORADIC,
        ):
            continue
        timing = quantizer.thread_timing(thread)
        if timing.period is None:
            raise SchedError(
                f"{thread.qualified_name}: periodic/sporadic thread "
                f"without a period"
            )
        tasks.append(
            PeriodicTask(
                thread.qualified_name,
                wcet=timing.cmax,
                period=timing.period,
                deadline=timing.deadline,
                priority=thread.property_int(PRIORITY),
                bcet=timing.cmin,
                offset=timing.offset,
            )
        )
    return TaskSet(tasks)
