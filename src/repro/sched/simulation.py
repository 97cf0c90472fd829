"""Cheddar-style discrete-time scheduler simulation (paper S6).

Simulates one synchronous run of a periodic task set over the
hyperperiod under a preemptive scheduling policy.  For deterministic
synchronous periodic sets this single run is the worst case and the
verdict is exact; with execution-time uncertainty or event-driven
dispatching it is only *one* behaviour -- the contrast the paper draws
against exhaustive state-space exploration ("exploring the state space
of a formal executable model offers exhaustive analysis of all possible
behaviors").

The simulator also produces a per-quantum schedule usable as a Gantt
chart, mirroring the timeline view of the analysis front end.

:func:`run_schedule` is the one scheduling loop of the package: the
plain run here, the flattened partition under its server
(:mod:`repro.hier.flatten`) and the mode-switch transient
(:mod:`repro.modal.transient`) each build a release source and a supply
model and call it.  :func:`exact_simulation_horizon` is the one window
rule they share.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SchedError
from repro.sched.taskmodel import PeriodicTask, TaskSet

#: One task's release pattern for :func:`run_schedule`: ``(task,
#: first_release, stop)`` releases a job at ``first_release + k * T``
#: for every ``k >= 0`` strictly before ``stop`` (None: never stops).
Release = Tuple[PeriodicTask, int, Optional[int]]


def exact_simulation_horizon(
    tasks: TaskSet,
    *,
    supply: Optional[Tuple[int, int]] = None,
    lead_in: int = 0,
) -> Optional[int]:
    """The window over which one worst-case run decides exactly.

    ``lead_in + O_max + 2 * lcm(H, P)``: after ``O_max + lcm(H, P)`` the
    task releases and the supply pattern of the end-of-period server
    ``supply = (P, Q)`` (``P = 1`` on the full processor) repeat
    together, so any miss shows up within one more joint period
    (Leung & Merrill).  ``lead_in`` delays the releases, e.g. by a mode
    switch and its carry-over deadlines.  A synchronous set on the full
    processor with no lead-in needs one hyperperiod only.

    Returns None for an offset-bearing set whose utilization exceeds
    its supply share ``Q/P``: backlog then grows without bound and may
    defer the first miss past any fixed window.  Such a set is
    unschedulable; the callers decide it without simulating.  A
    synchronous set over its share misses inside the window anyway.
    """
    max_offset = max((task.offset for task in tasks), default=0)
    if supply is None and max_offset == 0 and lead_in == 0:
        return tasks.hyperperiod
    period, budget = supply or (1, 1)
    hyper = tasks.hyperperiod
    if max_offset > 0:
        demand = sum(task.wcet * (hyper // task.period) for task in tasks)
        if demand * period > budget * hyper:  # U > Q/P, exactly
            return None
    return lead_in + max_offset + 2 * math.lcm(hyper, period)


class _Job:
    __slots__ = ("task", "release", "deadline", "remaining")

    def __init__(self, task: PeriodicTask, release: int) -> None:
        self.task = task
        self.release = release
        self.deadline = release + task.deadline
        self.remaining = task.wcet


class SimulationResult:
    """Outcome of one simulated run."""

    def __init__(
        self,
        horizon: int,
        schedule: List[Optional[str]],
        misses: List[Tuple[str, int]],
        response_times: Dict[str, Optional[int]],
        supply_slots: int,
    ) -> None:
        self.horizon = horizon
        #: task name executing in each quantum (None = idle or no supply)
        self.schedule = schedule
        #: (task name, absolute time) of each deadline miss
        self.misses = misses
        #: observed worst-case response time per task; None for tasks
        #: with no completed job in the window (every job missed and
        #: was abandoned, or none finished before the horizon) -- a 0
        #: here used to masquerade as a perfect response
        self.response_times = response_times
        #: quanta in which the processor (or server) supplied time
        self.supply_slots = supply_slots

    @property
    def schedulable(self) -> bool:
        return not self.misses

    def gantt(self, tasks: Sequence[str]) -> str:
        """ASCII Gantt chart, one row per task."""
        lines = []
        width = max((len(name) for name in tasks), default=0)
        for name in tasks:
            row = "".join(
                "#" if slot == name else "." for slot in self.schedule
            )
            lines.append(f"{name:<{width}} |{row}|")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"SimulationResult(horizon={self.horizon}, "
            f"misses={len(self.misses)})"
        )


def simulate(
    tasks: TaskSet,
    *,
    policy: str = "rate",
    horizon: Optional[int] = None,
    stop_at_first_miss: bool = False,
) -> SimulationResult:
    """Simulate a synchronous run under ``policy``.

    Policies: ``"rate"`` (RM), ``"deadline"`` (DM), ``"explicit"``
    (Priority property), ``"edf"``, ``"llf"``.
    """
    if len(tasks) == 0:
        raise SchedError("empty task set")
    if horizon is None:
        horizon = exact_simulation_horizon(tasks)
        if horizon is None:
            # Over-utilized: no finite window is exact anyway, so keep
            # the cheap one-hyperperiod sweep (plus the offset lead-in)
            # as a best-effort miss hunt.
            horizon = tasks.hyperperiod + max(
                task.offset for task in tasks
            )
    return run_schedule(
        [(task, task.offset, None) for task in tasks],
        policy=policy,
        window=horizon,
        stop_at_first_miss=stop_at_first_miss,
    )


def run_schedule(
    releases: Sequence[Release],
    *,
    policy: str,
    window: int,
    supply: Optional[Tuple[int, int]] = None,
    stop_at_first_miss: bool = False,
) -> SimulationResult:
    """Simulate ``[0, window)`` one quantum at a time under ``policy``.

    The one scheduling loop behind :func:`simulate`, the flattened
    partition run and the mode-switch transient.  ``releases`` holds
    one :data:`Release` per task; ``supply`` is None for the full
    processor or the end-of-period server ``(P, Q)``, which supplies
    quantum ``t`` iff ``t mod P >= P - Q``.  A job still pending at its
    deadline is a miss and is abandoned (the ACSR model deadlocks
    there; the simulator keeps going to report every miss), unless
    ``stop_at_first_miss`` ends the run at that quantum.  Jobs
    unfinished at the window's end with deadlines inside it are misses
    too.
    """
    tasks = [task for task, _, _ in releases]
    rank: Optional[Dict[str, int]] = None
    if policy not in ("edf", "llf"):
        rank = {
            task.name: index
            for index, task in enumerate(TaskSet(tasks).ordered(policy))
        }
    period, budget = supply or (1, 1)
    blackout = period - budget

    ready: List[_Job] = []
    schedule: List[Optional[str]] = []
    misses: List[Tuple[str, int]] = []
    response: Dict[str, Optional[int]] = {task.name: None for task in tasks}
    supply_slots = 0

    for now in range(window):
        for task, first, stop in releases:
            if (
                now >= first
                and (now - first) % task.period == 0
                and (stop is None or now < stop)
            ):
                ready.append(_Job(task, now))

        # Deadline misses: jobs still pending at their absolute deadline.
        still_ready: List[_Job] = []
        for job in ready:
            if now >= job.deadline:
                misses.append((job.task.name, job.deadline))
                if stop_at_first_miss:
                    return SimulationResult(
                        now, schedule, misses, response, supply_slots
                    )
                continue
            still_ready.append(job)
        ready = still_ready

        if now % period < blackout:  # the server holds no budget
            schedule.append(None)
            continue
        supply_slots += 1
        running = _pick(ready, policy, rank, now)
        if running is None:
            schedule.append(None)
            continue
        schedule.append(running.task.name)
        running.remaining -= 1
        if running.remaining == 0:
            finish = now + 1 - running.release
            seen = response[running.task.name]
            response[running.task.name] = (
                finish if seen is None else max(seen, finish)
            )
            ready.remove(running)

    for job in ready:
        if job.deadline <= window:
            misses.append((job.task.name, job.deadline))
    return SimulationResult(window, schedule, misses, response, supply_slots)


def _pick(
    ready: List[_Job],
    policy: str,
    rank: Optional[Dict[str, int]],
    now: int,
) -> Optional[_Job]:
    # Every ready job has work left: completed jobs leave the list.
    if not ready:
        return None
    if rank is not None:
        return min(ready, key=lambda job: (rank[job.task.name], job.release))
    if policy == "edf":
        return min(ready, key=lambda job: (job.deadline, job.task.name))
    # LLF: laxity = time-to-deadline minus remaining work.
    return min(
        ready,
        key=lambda job: (job.deadline - now - job.remaining, job.task.name),
    )
