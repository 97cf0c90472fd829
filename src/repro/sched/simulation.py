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
rule they share, and it stays the cap of every run.

The loop is event-driven: it jumps from a release, completion, deadline
or supply edge to the next, filling the schedule one slice at a time
(LLF, whose laxity order changes between events, steps one quantum at
a time while a job runs).  Once the releases have settled into their
joint period, it hashes the ready jobs at each point of that settle
lattice; a state repeated with no miss in between proves the run
periodic and miss-free forever, so the loop stops there and fills the
rest of the window by repeating the cycle.  The result is identical to
a quantum-by-quantum run over the whole window.  Each run adds its work
(``sim.steps``, ``sim.quanta`` up to the stop, ``sim.repeat_stops``) to
the current trace span.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SchedError
from repro.obs.tracer import current_tracer
from repro.sched.taskmodel import PeriodicTask, TaskSet

#: One task's release pattern for :func:`run_schedule`: ``(task,
#: first_release, stop)`` releases a job at ``first_release + k * T``
#: for every ``k >= 0`` strictly before ``stop`` (None: never stops);
#: ``first_release >= 0``.
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
    __slots__ = ("task", "index", "release", "deadline", "remaining", "key")

    def __init__(
        self,
        task: PeriodicTask,
        index: int,
        release: int,
        rank: Optional[Dict[str, int]],
    ) -> None:
        self.task = task
        #: position of the job's :data:`Release` in the kernel's input
        self.index = index
        self.release = release
        self.deadline = release + task.deadline
        self.remaining = task.wcet
        #: the static dispatch key: fixed priority, then release; or
        #: EDF's deadline, then name.  LLF's key depends on the time.
        self.key = (
            (self.deadline, task.name)
            if rank is None
            else (rank[task.name], release)
        )


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
    """Simulate ``[0, window)`` under ``policy``, event to event.

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

    The result is the quantum-by-quantum run, computed in slices: the
    loop jumps from one event to the next (a release, a completion, a
    deadline, a supply edge, a settle-lattice point or the window end),
    between which the same job runs.  LLF steps one quantum at a time
    while a job runs, because laxities reorder between events.

    From the settle time on (:func:`_settle_lattice`) the releases and
    the supply repeat every joint period ``L``.  At each lattice point
    the ready jobs are hashed; a state seen at an earlier lattice point
    with no miss since proves the run periodic and miss-free forever,
    so the loop stops there and fills the rest of the window by
    repeating the cycle.
    """
    rank: Optional[Dict[str, int]] = None
    if policy not in ("edf", "llf"):
        ordered = TaskSet([task for task, _, _ in releases]).ordered(policy)
        rank = {task.name: index for index, task in enumerate(ordered)}
    llf = policy == "llf"
    period, budget = supply or (1, 1)
    blackout = period - budget
    check, joint = _settle_lattice(releases, period)

    #: the next release time of each release (None: no more releases)
    upcoming: List[Optional[int]] = []
    for task, first, stop in releases:
        upcoming.append(first if stop is None or first < stop else None)

    ready: List[_Job] = []
    schedule: List[Optional[str]] = []
    misses: List[Tuple[str, int]] = []
    response: Dict[str, Optional[int]] = {
        task.name: None for task, _, _ in releases
    }
    supply_slots = 0
    seen: Dict[tuple, Tuple[int, int]] = {}
    steps = 0
    earliest = window  # no ready job has an earlier deadline
    now = 0
    while now < window:
        if now == check:
            key = tuple(
                (job.index, job.remaining, job.deadline - now,
                 job.release - now)
                for job in ready
            )
            visit = seen.get(key)
            if visit is not None and visit[1] == len(misses):
                # The state of ``visit[0]`` again with no miss since.
                start = visit[0]
                repeats, rest = divmod(window - now, now - start)
                segment = schedule[start:now]
                schedule.extend(segment * repeats)
                schedule.extend(segment[:rest])
                supply_slots += _supplied(window, period, blackout) - (
                    _supplied(now, period, blackout)
                )
                _count(steps, now, repeated=True)
                return SimulationResult(
                    window, schedule, misses, response, supply_slots
                )
            seen[key] = (now, len(misses))
            check += joint
        steps += 1

        # Deadline misses: jobs still pending at their absolute deadline.
        if earliest <= now:
            still_ready: List[_Job] = []
            for job in ready:
                if job.deadline <= now:
                    misses.append((job.task.name, job.deadline))
                    if stop_at_first_miss:
                        _count(steps, now)
                        return SimulationResult(
                            now, schedule, misses, response, supply_slots
                        )
                    continue
                still_ready.append(job)
            ready = still_ready

        nxt = window if window < check else check
        for index, due in enumerate(upcoming):
            if due == now:
                task, _, stop = releases[index]
                ready.append(_Job(task, index, now, rank))
                due += task.period
                if stop is not None and due >= stop:
                    due = None
                upcoming[index] = due
            if due is not None and due < nxt:
                nxt = due
        earliest = window
        for job in ready:
            if job.deadline < earliest:
                earliest = job.deadline
        if earliest < nxt:
            nxt = earliest

        phase = now % period
        if phase < blackout:  # the server holds no budget
            if now - phase + blackout < nxt:
                nxt = now - phase + blackout
            schedule.extend([None] * (nxt - now))
            now = nxt
            continue
        if blackout and now - phase + period < nxt:
            nxt = now - phase + period
        running = _pick(ready, llf, now)
        if running is None:
            schedule.extend([None] * (nxt - now))
        else:
            if llf:
                nxt = now + 1
            if now + running.remaining < nxt:
                nxt = now + running.remaining
            schedule.extend([running.task.name] * (nxt - now))
            running.remaining -= nxt - now
            if running.remaining == 0:
                finish = nxt - running.release
                seen_finish = response[running.task.name]
                response[running.task.name] = (
                    finish if seen_finish is None
                    else max(seen_finish, finish)
                )
                ready.remove(running)
        supply_slots += nxt - now
        now = nxt

    _count(steps, window)
    for job in ready:
        if job.deadline <= window:
            misses.append((job.task.name, job.deadline))
    return SimulationResult(window, schedule, misses, response, supply_slots)


def _settle_lattice(
    releases: Sequence[Release], period: int
) -> Tuple[int, int]:
    """``(t0, L)``: from ``t0`` on, the releases and the supply of
    period ``period`` repeat every ``L`` quanta.

    ``t0`` is the latest first release of the releases that never stop
    and the stop of every stopping release that releases at all; ``L``
    is the lcm of ``period`` and the never-stopping periods.
    """
    settle = 0
    joint = period
    for task, first, stop in releases:
        if stop is None:
            settle = max(settle, first)
            joint = math.lcm(joint, task.period)
        elif first < stop:
            settle = max(settle, stop)
    return settle, joint


def _supplied(end: int, period: int, blackout: int) -> int:
    """Supplied quanta in ``[0, end)`` under the end-of-period server."""
    return (end // period) * (period - blackout) + max(
        0, end % period - blackout
    )


def _count(steps: int, quanta: int, *, repeated: bool = False) -> None:
    """Add the kernel's work to the current trace span."""
    span = current_tracer().current()
    span.incr("sim.steps", steps).incr("sim.quanta", quanta)
    if repeated:
        span.incr("sim.repeat_stops")


_static_key = attrgetter("key")


def _pick(ready: List[_Job], llf: bool, now: int) -> Optional[_Job]:
    # Every ready job has work left: completed jobs leave the list.
    if len(ready) < 2:
        return ready[0] if ready else None
    if llf:  # laxity = time-to-deadline minus remaining work
        return min(
            ready,
            key=lambda job: (
                job.deadline - now - job.remaining, job.task.name
            ),
        )
    return min(ready, key=_static_key)
