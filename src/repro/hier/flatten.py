"""Flattened reference semantics: simulate a partition under its server.

The BDR interface deliberately under-promises supply; this module is
the other side of the oracle relation -- a concrete, supply-aware
discrete simulation of the partition's task set under the periodic
server ``(P, Q)`` itself.  The server grants its budget in one slot at
the **end** of each replenishment period, which is the worst fixed
phasing for a synchronous release (the first ``P - Q`` quanta after a
critical instant deliver nothing, and consecutive grants are separated
by up to ``2 (P - Q)`` -- exactly the gap the BDR delay bounds).

Because the BDR supply bound is below *every* phasing of the server, a
task set accepted against the interface must also survive this
simulation; the converse direction (simulation passes where the
interface check fails) is ordinary interface conservatism.  The hier
oracle campaign (:mod:`repro.oracle.hier`) gates on exactly that
asymmetry.

The run is exact for its semantics: the simulated window is
:func:`~repro.sched.simulation.exact_simulation_horizon` with the
server as supply, ``O_max + 2 * lcm(H, P)`` -- the joint repetition
period of the task releases and the supply pattern, with the
Leung--Merrill lead-in -- after which a miss-free schedule repeats
forever.  The exception is an offset-bearing set whose utilization
exceeds the server share ``Q / P``: its backlog grows without bound,
no finite window is exact, and the run reports it unschedulable
without simulating.  A window above the caller's cap returns None
(UNKNOWN) instead of silently truncating.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import SchedError
from repro.sched.simulation import exact_simulation_horizon, run_schedule
from repro.sched.taskmodel import TaskSet

#: Windows above this many quanta report UNKNOWN rather than running a
#: (possibly astronomically long) exact simulation; same default budget
#: as the portfolio's simulation tier.
DEFAULT_MAX_WINDOW = 1 << 20


class FlattenedRun:
    """Outcome of one supply-aware partition simulation."""

    __slots__ = ("horizon", "misses", "schedulable", "supply_slots")

    def __init__(
        self,
        horizon: int,
        misses: List[Tuple[str, int]],
        schedulable: Optional[bool],
        supply_slots: int,
    ) -> None:
        self.horizon = horizon
        self.misses = misses
        #: True/False when the window was simulated; None when it
        #: exceeded the cap and the run never started (UNKNOWN); False
        #: with no misses and horizon 0 for an offset-bearing set over
        #: the server share, decided without a run
        self.schedulable = schedulable
        self.supply_slots = supply_slots

    def __repr__(self) -> str:
        return (
            f"FlattenedRun(horizon={self.horizon}, "
            f"schedulable={self.schedulable})"
        )


def simulate_partition(
    tasks: TaskSet,
    server_period: int,
    server_budget: int,
    *,
    policy: str = "rate",
    max_window: int = DEFAULT_MAX_WINDOW,
) -> FlattenedRun:
    """Simulate ``tasks`` under the end-of-period server ``(P, Q)``.

    Policies are those of :func:`repro.sched.simulation.simulate`.
    Supply exists in quantum ``t`` iff ``t mod P >= P - Q``.
    """
    if len(tasks) == 0:
        return FlattenedRun(0, [], True, 0)
    if not (1 <= server_budget <= server_period):
        raise SchedError(
            f"server budget {server_budget} out of range "
            f"[1, {server_period}]"
        )
    supply = (server_period, server_budget)
    horizon = exact_simulation_horizon(tasks, supply=supply)
    if horizon is None:  # offsets and U > Q/P: unbounded backlog
        return FlattenedRun(0, [], False, 0)
    if horizon > max_window:
        return FlattenedRun(horizon, [], None, 0)
    run = run_schedule(
        [(task, task.offset, None) for task in tasks],
        policy=policy,
        window=horizon,
        supply=supply,
    )
    return FlattenedRun(horizon, run.misses, run.schedulable, run.supply_slots)
