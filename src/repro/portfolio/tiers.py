"""The analytic tiers, in escalating cost order.

Each tier is a classical schedulability test wrapped with an explicit
*soundness class* (:class:`Soundness`) that bounds what it may conclude
about the ACSR exploration verdict:

* ``NECESSARY`` -- its failure proves UNSCHEDULABLE; its success proves
  nothing (the ``U <= 1`` cap);
* ``SUFFICIENT`` -- its success proves SCHEDULABLE; its failure proves
  nothing (utilization bounds);
* ``EXACT`` -- both directions, on the tier's own applicability domain
  (RTA on synchronous sets, EDF demand, worst-case simulation).

A tier examines one :class:`~repro.portfolio.context.AnalyticUnit` at a
time and returns a :class:`UnitDecision` or None (inconclusive).
:func:`~repro.portfolio.analyzer.screen` runs the chain, and
:func:`~repro.portfolio.analyzer.analyze_portfolio` escalates to the
exact analysis when units remain undecided.  Tiers
self-demote where their exactness is conditional: RTA and EDF demand
draw no UNSCHEDULABLE conclusions from offset-bearing sets (see
:func:`repro.sched.rta.rta_exactness`), mirroring the oracle relations.
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.aadl.properties import SchedulingProtocol
from repro.analysis.raising import AadlScenario
from repro.errors import SchedError
from repro.portfolio.context import AnalyticUnit
from repro.portfolio.witness import (
    explanation_witness,
    miss_witness,
    scenario_from_simulation,
)
from repro.sched.demand import edf_schedulable
from repro.sched.rta import response_times
from repro.sched.simulation import exact_simulation_horizon, simulate
from repro.sched.utilization import hyperbolic_bound_test

#: Utilization comparisons tolerate float rounding, like the oracle's.
_EPSILON = 1e-12

#: Default cap on witness-hunt and simulation-tier horizons, in quanta.
DEFAULT_MAX_HORIZON = 1 << 20


class Soundness(enum.Enum):
    """What a tier's verdicts are allowed to mean."""

    EXACT = "exact"
    SUFFICIENT = "sufficient"
    NECESSARY = "necessary"


class UnitDecision:
    """A tier's conclusion about one unit."""

    __slots__ = ("schedulable", "detail", "scenario")

    def __init__(
        self,
        schedulable: bool,
        detail: str = "",
        scenario: Optional[AadlScenario] = None,
    ) -> None:
        self.schedulable = schedulable
        self.detail = detail
        #: synthesized failing scenario (unschedulable decisions only)
        self.scenario = scenario

    def __repr__(self) -> str:
        verdict = "schedulable" if self.schedulable else "unschedulable"
        detail = f" ({self.detail})" if self.detail else ""
        return f"UnitDecision({verdict}{detail})"


class Tier:
    """One analytic test in the portfolio chain."""

    name: str = "?"
    soundness: Soundness = Soundness.EXACT
    #: Whether this tier understands partition units (those carrying a
    #: BDR supply interface).  Full-supply tiers must never see them:
    #: their verdicts assume the whole processor, which over-promises
    #: supply for a partition.
    #: :func:`~repro.portfolio.analyzer.screen` enforces the split.
    interface_aware: bool = False

    def applicable(self, unit: AnalyticUnit) -> bool:
        raise NotImplementedError

    def decide(self, unit: AnalyticUnit) -> Optional[UnitDecision]:
        """A verdict for ``unit``, or None when this tier cannot tell."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class UtilizationCapTier(Tier):
    """``U <= 1`` on one processor is necessary: any over-utilized unit
    is unschedulable, full stop.  The witness is hunted by bounded
    simulation (the backlog forces a miss eventually); if the hunt
    horizon runs out, an explanation-only scenario carries the fact."""

    name = "utilization-cap"
    soundness = Soundness.NECESSARY

    def __init__(self, max_horizon: int = DEFAULT_MAX_HORIZON) -> None:
        self.max_horizon = max_horizon

    def applicable(self, unit: AnalyticUnit) -> bool:
        return True

    def decide(self, unit: AnalyticUnit) -> Optional[UnitDecision]:
        utilization = unit.tasks.utilization
        if utilization <= 1.0 + _EPSILON:
            return None
        detail = f"U={utilization:.4f} > 1"
        horizon = min(self.max_horizon, 4 * unit.tasks.hyperperiod)
        scenario = miss_witness(
            unit.tasks, policy=unit.sim_policy, horizon=horizon
        )
        if scenario is None:
            scenario = explanation_witness(
                unit.tasks, f"processor over-utilized: {detail}"
            )
        return UnitDecision(False, detail, scenario)


class UtilizationBoundTier(Tier):
    """Sufficient utilization bounds: the hyperbolic RM bound (which
    dominates Liu & Layland) and EDF's ``U <= 1`` optimality on
    implicit deadlines.  Both hold for arbitrary offsets."""

    name = "utilization-bound"
    soundness = Soundness.SUFFICIENT

    def applicable(self, unit: AnalyticUnit) -> bool:
        return unit.protocol in (
            SchedulingProtocol.RATE_MONOTONIC,
            SchedulingProtocol.EARLIEST_DEADLINE_FIRST,
        )

    def decide(self, unit: AnalyticUnit) -> Optional[UnitDecision]:
        utilization = unit.tasks.utilization
        if unit.protocol is SchedulingProtocol.RATE_MONOTONIC:
            try:
                passed = hyperbolic_bound_test(unit.tasks)
            except SchedError:
                # Constrained deadlines: the bound does not apply.
                return None
            if passed:
                return UnitDecision(
                    True, f"hyperbolic bound, U={utilization:.4f}"
                )
            return None
        # EDF is optimal on implicit-deadline periodic sets: U <= 1 is
        # exact there, independent of offsets; used here one-sidedly.
        implicit = all(
            task.deadline == task.period for task in unit.tasks
        )
        if implicit and utilization <= 1.0 + _EPSILON:
            return UnitDecision(
                True, f"EDF implicit deadlines, U={utilization:.4f} <= 1"
            )
        return None


class RtaTier(Tier):
    """Response-time analysis for fixed-priority units.

    A passing RTA proves schedulability even with offsets (the
    synchronous response upper-bounds every release pattern); a failing
    RTA proves unschedulability only on synchronous sets, where t = 0
    is the critical instant -- offset-bearing failures escalate."""

    name = "rta"
    soundness = Soundness.EXACT

    def applicable(self, unit: AnalyticUnit) -> bool:
        if unit.ordering is None:
            return False
        if unit.ordering == "explicit" and any(
            task.priority is None for task in unit.tasks
        ):
            return False
        return True

    def decide(self, unit: AnalyticUnit) -> Optional[UnitDecision]:
        responses = response_times(unit.tasks, ordering=unit.ordering)
        failing: List[str] = []
        for task in unit.tasks:
            response = responses[task.name]
            if response is None or response > task.deadline:
                failing.append(task.name)
        if not failing:
            worst = max(
                (responses[task.name], task.name) for task in unit.tasks
            )
            return UnitDecision(
                True, f"worst response {worst[1]}: R={worst[0]}"
            )
        if not unit.synchronous:
            # Sufficient-only with offsets: a failure proves nothing.
            return None
        name = failing[0]
        response = responses[name]
        deadline = next(
            task.deadline for task in unit.tasks if task.name == name
        )
        detail = (
            f"{name}: R diverged past {deadline}"
            if response is None
            else f"{name}: R={response} > D={deadline}"
        )
        # The synchronous run realizes the critical instant, so the
        # simulated prefix exhibits the analytically-proven miss.
        scenario = miss_witness(
            unit.tasks,
            policy=unit.ordering,
            horizon=unit.tasks.hyperperiod,
        )
        if scenario is None:
            scenario = explanation_witness(unit.tasks, detail)
        return UnitDecision(False, detail, scenario)


class EdfDemandTier(Tier):
    """The processor-demand criterion for EDF units.

    Exact for synchronous sets; a passing test also covers offset
    patterns (synchronous release maximizes demand), while a failing
    offset-bearing set escalates."""

    name = "edf-demand"
    soundness = Soundness.EXACT

    def applicable(self, unit: AnalyticUnit) -> bool:
        return (
            unit.protocol is SchedulingProtocol.EARLIEST_DEADLINE_FIRST
        )

    def decide(self, unit: AnalyticUnit) -> Optional[UnitDecision]:
        utilization = unit.tasks.utilization
        if edf_schedulable(unit.tasks):
            return UnitDecision(
                True, f"demand bound holds, U={utilization:.4f}"
            )
        if not unit.synchronous:
            return None
        scenario = miss_witness(
            unit.tasks, policy="edf", horizon=unit.tasks.hyperperiod
        )
        detail = f"demand exceeds supply, U={utilization:.4f}"
        if scenario is None:
            scenario = explanation_witness(unit.tasks, detail)
        return UnitDecision(False, detail, scenario)


class SimulationTier(Tier):
    """Worst-case scheduler simulation over the exact window.

    :func:`~repro.sched.simulation.exact_simulation_horizon`: one
    hyperperiod for synchronous sets, ``O_max + 2H`` for offset-bearing
    ones (Leung & Merrill) -- within that window the single worst-case
    run decides exactly.  LLF is excluded, mirroring
    the oracle (its tie-breaking need not match the ACSR encoding), and
    windows past ``max_horizon`` escalate instead of stalling."""

    name = "simulation"
    soundness = Soundness.EXACT

    def __init__(self, max_horizon: int = DEFAULT_MAX_HORIZON) -> None:
        self.max_horizon = max_horizon

    def applicable(self, unit: AnalyticUnit) -> bool:
        if unit.protocol is SchedulingProtocol.LEAST_LAXITY_FIRST:
            return False
        if unit.ordering == "explicit" and any(
            task.priority is None for task in unit.tasks
        ):
            return False
        return unit.sim_policy is not None

    def decide(self, unit: AnalyticUnit) -> Optional[UnitDecision]:
        # None when U > 1 with offsets: the utilization-cap tier
        # already decided those.
        horizon = exact_simulation_horizon(unit.tasks)
        if horizon is None or horizon > self.max_horizon:
            return None
        sim = simulate(
            unit.tasks,
            policy=unit.sim_policy,
            horizon=horizon,
            stop_at_first_miss=True,
        )
        if sim.misses:
            name, time = sim.misses[0]
            return UnitDecision(
                False,
                f"{name} misses at t={time} (horizon {horizon})",
                scenario_from_simulation(unit.tasks, sim),
            )
        return UnitDecision(True, f"clean run over horizon {horizon}")


class HierTier(Tier):
    """Demand-vs-supply check of a partition against its BDR interface.

    The only tier allowed to decide partition units.  Sufficient by
    construction: the interface under-promises the server's supply, so
    a pass proves schedulability under the real server while a fail
    only reflects interface conservatism and escalates (to the
    supply-aware flattened simulation, via the hier escalation path).
    """

    name = "hier"
    soundness = Soundness.SUFFICIENT
    interface_aware = True

    def applicable(self, unit: AnalyticUnit) -> bool:
        if unit.interface is None:
            return False
        if unit.ordering == "explicit" and any(
            task.priority is None for task in unit.tasks
        ):
            return False
        return True

    def decide(self, unit: AnalyticUnit) -> Optional[UnitDecision]:
        from repro.hier.check import check_partition

        check = check_partition(
            unit.tasks,
            unit.interface,
            ordering=unit.ordering,
            edf=(
                unit.protocol
                is SchedulingProtocol.EARLIEST_DEADLINE_FIRST
            ),
        )
        if check is None:  # LLF: no analytic partition test
            return None
        return UnitDecision(
            check.ok, f"{unit.interface.token}: {check.detail}"
        )


#: The default chain's tier classes, in order.  The hier tier leads:
#: it is the only one applicable to partition units, and the unit sets
#: are disjoint so order against the full-supply tiers is immaterial.
_CHAIN = (
    HierTier,
    UtilizationCapTier,
    UtilizationBoundTier,
    RtaTier,
    EdfDemandTier,
    SimulationTier,
)


def default_tiers() -> List[Tier]:
    """The standard chain, cheapest first."""
    return [tier() for tier in _CHAIN]


def tiers_from_token(token: Optional[str]) -> List[Tier]:
    """Rebuild a tier chain from its config token (``"+"``-joined tier
    names, the cache-key form).  None, the empty string or ``"default"``
    (:data:`repro.analysis.request.DEFAULT_TIERS`) selects the default
    chain; unknown names raise."""
    if not token or token == "default":
        return default_tiers()
    by_name = {tier.name: tier for tier in _CHAIN}
    tiers: List[Tier] = []
    for name in token.split("+"):
        tier = by_name.get(name)
        if tier is None:
            raise SchedError(f"unknown portfolio tier {name!r}")
        tiers.append(tier())
    return tiers
