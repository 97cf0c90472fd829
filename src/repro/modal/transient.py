"""Transition-transient schedulability under a mode-change protocol.

A mode switch is not instantaneous for the workload: jobs of
deactivated threads released before the switch still hold their
deadlines, while threads the new mode activates start releasing at the
switch.  Whether that *transient* overlap can miss a deadline depends
on the mode-change protocol:

* ``synchronous`` -- the runtime delays the switch to the next
  hyperperiod boundary of the old mode.  At a boundary of a schedulable
  constrained-deadline mode every released job has completed, so there
  is no carry-over at all and the steady per-mode verdicts already
  cover the transition.  This is the sound fast path (and the standard
  ARINC-653 reading of a major-frame switch).
* ``asynchronous`` -- the switch may happen at any instant.  The
  transient workload is the union of completing old-mode jobs and the
  newly released new-mode jobs.  Two-step decision procedure:

  1. **analytic (sufficient)**: the *union* task set -- every task of
     either mode, offsets stripped (the synchronous release is the
     critical instant, so this upper-bounds every switch phasing) --
     checked with the existing response-time / EDF demand machinery.
     A pass proves every transient phasing safe; a fail proves nothing.
  2. **escalation (exact over the window)**: simulate the actual
     switch at *every* boundary phasing in one old-mode hyperperiod,
     old tasks ceasing release at the switch but completing in-flight
     jobs, new tasks released from the switch on.  Each phasing is
     one :func:`~repro.sched.simulation.run_schedule` call over the
     :func:`~repro.sched.simulation.exact_simulation_horizon` window,
     with the switch and the carry-over deadlines as lead-in.  Caps on
     phasings and window length return UNKNOWN rather than guess.

``fault="shrink-transient-window"`` deliberately corrupts step 2 into
the classic unsound shortcut -- drop carry-over jobs at the switch and
observe only a truncated window -- so the oracle campaign
(:mod:`repro.oracle.modal`) can prove it would catch such a bug.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import AnalysisError, SchedError
from repro.sched.demand import edf_schedulable
from repro.sched.rta import rta_schedulable
from repro.sched.simulation import (
    Release,
    exact_simulation_horizon,
    run_schedule,
)
from repro.sched.taskmodel import PeriodicTask, TaskSet

#: Recognized mode-change protocols, in CLI order.
PROTOCOLS = ("synchronous", "asynchronous")

#: Registered transient-checker defects for oracle self-tests.
MODAL_FAULTS = ("shrink-transient-window",)

#: Caps on the escalated simulation: switch phasings tried (one per
#: quantum of the old-mode hyperperiod) and simulated quanta per
#: phasing.  Exceeding either yields UNKNOWN, never a guess.
DEFAULT_MAX_PHASINGS = 512
DEFAULT_TRANSIENT_WINDOW = 1 << 15

_EPSILON = 1e-12


class TransientCheck:
    """Outcome of one transition's transient analysis."""

    __slots__ = ("schedulable", "decided_by", "detail", "escalated")

    def __init__(
        self,
        schedulable: Optional[bool],
        decided_by: str,
        detail: str,
        *,
        escalated: bool = False,
    ) -> None:
        #: True / False / None (= undecided under the caps)
        self.schedulable = schedulable
        self.decided_by = decided_by
        self.detail = detail
        self.escalated = escalated

    def __repr__(self) -> str:
        return (
            f"TransientCheck({self.schedulable}, by={self.decided_by!r})"
        )


def union_task_set(
    old_tasks: Sequence[PeriodicTask], new_tasks: Sequence[PeriodicTask]
) -> TaskSet:
    """The offset-free union of both modes' tasks, by name.

    A thread present in both modes contributes once; if its parameters
    differ between modes (distinct classifiers under one name) the
    worst case of each parameter is kept, so the union stays an upper
    bound on transient demand.
    """
    merged: Dict[str, PeriodicTask] = {}
    for task in list(old_tasks) + list(new_tasks):
        seen = merged.get(task.name)
        if seen is None:
            merged[task.name] = _strip_offset(task)
        elif (
            seen.wcet != task.wcet
            or seen.period != task.period
            or seen.deadline != task.deadline
        ):
            merged[task.name] = PeriodicTask(
                task.name,
                wcet=max(seen.wcet, task.wcet),
                period=min(seen.period, task.period),
                deadline=min(
                    seen.deadline, task.deadline, min(seen.period, task.period)
                ),
                priority=seen.priority,
            )
    if not merged:
        raise AnalysisError("transition with no tasks on either side")
    return TaskSet(list(merged.values()))


def _strip_offset(task: PeriodicTask) -> PeriodicTask:
    if task.offset == 0:
        return task
    return PeriodicTask(
        task.name,
        wcet=task.wcet,
        period=task.period,
        deadline=task.deadline,
        priority=task.priority,
        bcet=task.bcet,
    )


def transient_union_check(
    old_tasks: Sequence[PeriodicTask],
    new_tasks: Sequence[PeriodicTask],
    *,
    ordering: Optional[str] = None,
    edf: bool = False,
) -> Optional[bool]:
    """The sufficient analytic transient test: is the *union* of both
    modes schedulable as a permanent set?  True proves every switch
    phasing transient-safe; None means undecided (escalate) -- either
    the union failed (transients can still work out: the overload is
    never sustained) or no analytic test fits the policy."""
    union = union_task_set(old_tasks, new_tasks)
    if union.utilization > 1.0 + _EPSILON:
        return None
    try:
        if edf:
            ok = edf_schedulable(union)
        elif ordering is not None:
            ok = rta_schedulable(union, ordering=ordering)
        else:
            return None
    except SchedError:
        return None
    return True if ok else None


def simulate_transition(
    old_tasks: Sequence[PeriodicTask],
    new_tasks: Sequence[PeriodicTask],
    *,
    switch: int,
    policy: str,
    window: int,
) -> Tuple[bool, Optional[str]]:
    """Simulate one asynchronous mode switch at absolute time ``switch``.

    Old-mode tasks release synchronously from 0 (plus their offsets) and
    stop releasing at the switch, but in-flight jobs keep their
    deadlines and complete under the new contention.  New-mode-only
    tasks release from ``switch`` on (plus offsets); tasks present in
    both modes keep their old-mode release pattern uninterrupted.
    Returns ``(schedulable, first-miss detail)`` over ``[0, window)``.
    """
    continued = {t.name for t in old_tasks} & {t.name for t in new_tasks}
    releases: List[Release] = [
        (t, t.offset, None if t.name in continued else switch)
        for t in old_tasks
    ]
    releases += [
        (t, switch + t.offset, None)
        for t in new_tasks
        if t.name not in continued
    ]
    run = run_schedule(
        releases, policy=policy, window=window, stop_at_first_miss=True
    )
    if run.schedulable:
        return True, None
    name, deadline = run.misses[0]
    return False, f"{name} misses at t={deadline} (switch at t={switch})"


def check_transition(
    old_tasks: Sequence[PeriodicTask],
    new_tasks: Sequence[PeriodicTask],
    *,
    ordering: Optional[str] = None,
    edf: bool = False,
    policy: Optional[str] = None,
    max_phasings: int = DEFAULT_MAX_PHASINGS,
    max_window: int = DEFAULT_TRANSIENT_WINDOW,
    fault: Optional[str] = None,
) -> TransientCheck:
    """Decide one asynchronous transition on one processor.

    Analytic union test first; on undecided, escalate to exhaustive
    switch-phasing simulation.  ``fault`` injects a registered
    :data:`MODAL_FAULTS` defect into the escalated simulation only
    (the analytic step stays honest -- a fault must corrupt exactly
    the layer whose soundness the oracle relation checks).
    """
    if fault is not None and fault not in MODAL_FAULTS:
        raise AnalysisError(
            f"unknown modal fault {fault!r}; choose from {list(MODAL_FAULTS)}"
        )
    if not old_tasks and not new_tasks:
        return TransientCheck(
            True, "empty", "no tasks on either side of the switch"
        )
    analytic = transient_union_check(
        old_tasks, new_tasks, ordering=ordering, edf=edf
    )
    if analytic:
        return TransientCheck(
            True,
            "transient-union-" + ("edf" if edf else "rta"),
            "union of both modes schedulable as a permanent set",
        )
    if policy is None:
        return TransientCheck(
            None,
            "inapplicable",
            "no simulation policy for this scheduling protocol",
            escalated=True,
        )

    old_hyper = TaskSet(list(old_tasks)).hyperperiod
    if old_hyper > max_phasings:
        return TransientCheck(
            None,
            "transient-simulation",
            f"old-mode hyperperiod {old_hyper} exceeds the phasing cap "
            f"{max_phasings}",
            escalated=True,
        )
    new_set = TaskSet(list(new_tasks))
    max_old_deadline = max(
        (t.offset + t.deadline for t in old_tasks), default=0
    )
    for switch in range(old_hyper):
        if fault == "shrink-transient-window":
            # The unsound shortcut under test: pretend the switch is a
            # clean restart -- no carry-over, and only a sliver of the
            # new mode observed.
            ok, detail = simulate_transition(
                [],
                list(new_tasks),
                switch=switch,
                policy=policy,
                window=switch + max(1, new_set.hyperperiod // 2),
            )
        else:
            # The new mode's releases start after the switch and the
            # old mode's carry-over deadlines.
            window = exact_simulation_horizon(
                new_set, lead_in=switch + max_old_deadline
            )
            if window is None:
                return TransientCheck(
                    False,
                    "transient-simulation",
                    f"new mode over-utilized with offsets "
                    f"(U={new_set.utilization:.4f} > 1): backlog grows "
                    f"without bound",
                    escalated=True,
                )
            if window > max_window:
                return TransientCheck(
                    None,
                    "transient-simulation",
                    f"transient window {window} exceeds the cap "
                    f"{max_window} at switch t={switch}",
                    escalated=True,
                )
            ok, detail = simulate_transition(
                list(old_tasks),
                list(new_tasks),
                switch=switch,
                policy=policy,
                window=window,
            )
        if not ok:
            return TransientCheck(
                False, "transient-simulation", detail or "", escalated=True
            )
    return TransientCheck(
        True,
        "transient-simulation",
        f"all {old_hyper} switch phasing(s) miss-free",
        escalated=True,
    )
