"""Injectable translator faults: the oracle harness's own test fixtures.

A differential oracle that has never caught anything is untested
infrastructure.  These canned faults perturb the task set handed to the
*pipeline* side of a campaign -- emulating a defect in the AADL -> ACSR
translation (the model analyzed silently differing from the model
specified) -- so tests and the nightly job can assert that a real
discrepancy is (a) detected, (b) shrunk to a small reproducer and (c)
persisted as a replayable bundle.

Faults never touch the classical-oracle side; the oracles keep judging
the model as specified.

Reduction faults are a separate registry
(:data:`repro.engine.reduce.REDUCTION_FAULTS`, exercised by ``repro
oracle request --fault ...``): they perturb the reduction passes rather
than the task set, so the layered-vs-plain campaign can prove it
catches an unsound reduction.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import SchedError
from repro.sched.taskmodel import PeriodicTask, TaskSet


class Fault:
    """A named task-set perturbation applied to the pipeline input."""

    def __init__(
        self,
        name: str,
        description: str,
        transform: Callable[[TaskSet], TaskSet],
    ) -> None:
        self.name = name
        self.description = description
        self._transform = transform

    def __call__(self, tasks: TaskSet) -> TaskSet:
        return self._transform(tasks)

    def __repr__(self) -> str:
        return f"Fault({self.name!r})"


def _copy(task: PeriodicTask, **overrides) -> PeriodicTask:
    fields = {
        "wcet": task.wcet,
        "period": task.period,
        "deadline": task.deadline,
        "priority": task.priority,
        "bcet": task.bcet,
        "offset": task.offset,
    }
    fields.update(overrides)
    fields["bcet"] = min(fields["bcet"], fields["wcet"])
    return PeriodicTask(task.name, **fields)


def _underestimate_wcet(tasks: TaskSet) -> TaskSet:
    """Translate every WCET one quantum short (classic off-by-one in a
    duration-to-quanta conversion): over-full sets look schedulable."""
    return TaskSet(
        [
            _copy(task, wcet=max(1, task.wcet - 1))
            for task in tasks
        ]
    )


def _ignore_offsets(tasks: TaskSet) -> TaskSet:
    """Drop Dispatch_Offset on the way in: phase-separated sets that are
    only schedulable thanks to their offsets now look unschedulable."""
    return TaskSet([_copy(task, offset=0) for task in tasks])


def _deadline_as_period(tasks: TaskSet) -> TaskSet:
    """Ignore Compute_Deadline and use the period instead: constrained-
    deadline misses go unnoticed."""
    return TaskSet(
        [_copy(task, deadline=task.period) for task in tasks]
    )


FAULTS: Dict[str, Fault] = {
    fault.name: fault
    for fault in (
        Fault(
            "underestimate-wcet",
            "translate every WCET one quantum short",
            _underestimate_wcet,
        ),
        Fault(
            "ignore-offsets",
            "drop Dispatch_Offset during translation",
            _ignore_offsets,
        ),
        Fault(
            "deadline-as-period",
            "substitute the period for Compute_Deadline",
            _deadline_as_period,
        ),
    )
}


def get_fault(name: str) -> Fault:
    try:
        return FAULTS[name]
    except KeyError:
        raise SchedError(
            f"unknown fault {name!r}; choose from {sorted(FAULTS)}"
        ) from None


def fault_names() -> List[str]:
    return sorted(FAULTS)
