"""Applicability screening for the analytic tiers.

The classical tests speak for the ACSR model only on its *classical
fragment*: independent periodic threads statically bound to processors,
with no queued connections, shared data, modes, buses or devices (pure
data-port connections are inert: the translator gives them no queue
process, so they do not perturb the task model).  On that
fragment the translation of each processor's threads is exactly the
periodic task set the textbook algorithms assume -- extracted with the
*same* quantizer the translation itself uses, so the analytic verdict
and the exploration verdict are about the same quantized model.

Anything outside the fragment (event-driven dispatch, communication,
modal behaviour) makes the model's behaviours richer than any task-set
abstraction, and the portfolio must escalate to exhaustive exploration.
:func:`build_context` encodes that boundary in one place and returns
either the per-processor :class:`AnalyticUnit` list or the reason the
tiers must stand aside.
"""

from __future__ import annotations

from typing import List, Optional

from repro.aadl.instance import SystemInstance
from repro.aadl.properties import (
    DISPATCH_PROTOCOL,
    EXECUTION_TIME,
    PERIOD,
    PRIORITY,
    SCHEDULING_PROTOCOL,
    DispatchProtocol,
    SchedulingProtocol,
)
from repro.errors import HierError, QuantizationError, SchedError
from repro.hier.interface import BdrInterface
from repro.sched.taskmodel import (
    FIXED_PRIORITY_ORDERING,
    PeriodicTask,
    TaskSet,
    extract_task_set,
)
from repro.translate.quantum import TimingQuantizer

class AnalyticUnit:
    """One scheduling context's independent task set, ready for tests.

    On the classical fragment processors do not interact, so each unit
    is analyzed on its own and the model-level verdict is the
    conjunction (mirroring the compositional island decomposition).
    Two flavours exist:

    * a *host* unit (``interface is None``): a physical processor's
      directly-bound threads, plus one synthetic server task per
      virtual processor it hosts (period = replenishment, WCET =
      budget, deadline = period) -- the classical tiers then decide
      whether the host can honour every server's contract;
    * a *partition* unit (``interface`` set): a virtual processor's
      bound threads, to be checked against the partition's BDR supply
      interface rather than a full processor.  Only interface-aware
      tiers may decide these -- a full-supply tier passing a partition
      unit would be unsound.
    """

    __slots__ = (
        "processor", "tasks", "protocol", "ordering", "synchronous",
        "interface",
    )

    def __init__(
        self,
        processor: str,
        tasks: TaskSet,
        protocol: SchedulingProtocol,
        interface: Optional[BdrInterface] = None,
    ) -> None:
        self.processor = processor
        self.tasks = tasks
        self.protocol = protocol
        #: fixed-priority task ordering, or None for dynamic priorities
        self.ordering = FIXED_PRIORITY_ORDERING.get(protocol)
        self.synchronous = all(task.offset == 0 for task in tasks)
        #: BDR supply abstraction for partition units; None for hosts
        self.interface = interface

    @property
    def sim_policy(self) -> Optional[str]:
        """The :func:`repro.sched.simulation.simulate` policy name."""
        if self.ordering is not None:
            return self.ordering
        if self.protocol is SchedulingProtocol.EARLIEST_DEADLINE_FIRST:
            return "edf"
        if self.protocol is SchedulingProtocol.LEAST_LAXITY_FIRST:
            return "llf"
        return None

    def __repr__(self) -> str:
        return (
            f"AnalyticUnit({self.processor!r}, {self.protocol.value}, "
            f"{len(self.tasks)} tasks)"
        )


class PortfolioContext:
    """The task-model view of an instance, or the reason there is none."""

    __slots__ = ("units", "quantizer", "inapplicable")

    def __init__(
        self,
        units: List[AnalyticUnit],
        quantizer: Optional[TimingQuantizer],
        inapplicable: Optional[str] = None,
    ) -> None:
        self.units = units
        self.quantizer = quantizer
        #: why the analytic tiers cannot speak for this model (None when
        #: they can)
        self.inapplicable = inapplicable

    @property
    def applicable(self) -> bool:
        return self.inapplicable is None

    def __repr__(self) -> str:
        if self.inapplicable is not None:
            return f"PortfolioContext(inapplicable: {self.inapplicable})"
        return f"PortfolioContext({len(self.units)} unit(s))"


def build_context(
    instance: SystemInstance,
    quantizer: Optional[TimingQuantizer] = None,
) -> PortfolioContext:
    """Screen ``instance`` and extract per-processor analytic units.

    An instance pinned to one system operation mode
    (:attr:`~repro.aadl.instance.SystemInstance.pinned_mode`) passes
    the multi-modal applicability bar: the verdict is claimed for that
    steady mode only, and no mode switch occurs within its behaviour.

    ``quantizer`` pins the quantum when the caller will escalate with a
    quantum override; the default is the same exact GCD quantizer the
    translation uses, which keeps the analytic and exploration verdicts
    about the same discrete model.
    """
    reason = _outside_classical_fragment(instance)
    if reason is not None:
        return PortfolioContext([], None, reason)
    try:
        quantizer = quantizer or TimingQuantizer.natural(instance)
    except QuantizationError as exc:
        return PortfolioContext([], None, str(exc))

    threads = instance.threads()
    units: List[AnalyticUnit] = []

    # -- partition units: one per thread-bearing virtual processor,
    #    carrying the BDR interface its server parameters induce.
    partitions = []
    for vproc in instance.virtual_processors():
        bound = [t for t in threads if t.bound_processor is vproc]
        if not bound:
            continue
        name = vproc.qualified_name
        if vproc.bound_processor is None:
            return PortfolioContext(
                [],
                None,
                f"virtual processor {name} is not bound to a processor",
            )
        protocol = vproc.property(SCHEDULING_PROTOCOL)
        if not isinstance(protocol, SchedulingProtocol):
            return PortfolioContext(
                [],
                None,
                f"virtual processor {name}: missing or invalid "
                f"Scheduling_Protocol",
            )
        period_tv = vproc.property_time(PERIOD)
        budget_tv = vproc.property_time(EXECUTION_TIME)
        if period_tv is None or budget_tv is None:
            return PortfolioContext(
                [],
                None,
                f"virtual processor {name}: missing server Period or "
                f"Execution_Time",
            )
        try:
            tasks = extract_task_set(instance, vproc, quantizer)
        except (SchedError, QuantizationError) as exc:
            return PortfolioContext([], None, str(exc))
        if len(tasks) != len(bound):
            return PortfolioContext(
                [],
                None,
                f"virtual processor {name}: some bound threads fall "
                f"outside the periodic task model",
            )
        # Supply-side rounding is conservative: replenishment up (rarer
        # refills), budget down (less supply).  Exact under the natural
        # quantizer, whose GCD includes both durations.
        try:
            interface = BdrInterface.from_server(
                name,
                quantizer.quanta_ceil(period_tv),
                quantizer.quanta_floor(budget_tv),
            )
        except HierError as exc:
            return PortfolioContext([], None, str(exc))
        units.append(AnalyticUnit(name, tasks, protocol, interface))
        partitions.append((vproc, period_tv, budget_tv))

    # -- host units: each physical processor's direct threads plus one
    #    server task per hosted partition (demand-side rounding: budget
    #    up, replenishment down -- more load, never less).
    for processor in instance.processors():
        direct = [t for t in threads if t.bound_processor is processor]
        hosted = [
            entry
            for entry in partitions
            if entry[0].bound_processor is processor
        ]
        if not direct and not hosted:
            continue
        protocol = processor.property(SCHEDULING_PROTOCOL)
        if not isinstance(protocol, SchedulingProtocol):
            return PortfolioContext(
                [],
                None,
                f"processor {processor.qualified_name}: missing or invalid "
                f"Scheduling_Protocol",
            )
        try:
            tasks = extract_task_set(instance, processor, quantizer)
        except (SchedError, QuantizationError) as exc:
            # e.g. a missing period or an infeasible deadline: the
            # exhaustive translation is the tool that judges those.
            return PortfolioContext([], None, str(exc))
        if len(tasks) != len(direct):
            return PortfolioContext(
                [],
                None,
                f"processor {processor.qualified_name}: some bound threads "
                f"fall outside the periodic task model",
            )
        task_list = list(tasks)
        for vproc, period_tv, budget_tv in hosted:
            server_period = quantizer.quanta_floor(period_tv)
            server_wcet = quantizer.quanta_ceil(budget_tv)
            if server_period < 1 or server_wcet > server_period:
                return PortfolioContext(
                    [],
                    None,
                    f"virtual processor {vproc.qualified_name}: server "
                    f"parameters degenerate at quantum "
                    f"{quantizer.quantum}",
                )
            priority = vproc.property_int(PRIORITY)
            if (
                protocol is SchedulingProtocol.HIGHEST_PRIORITY_FIRST
                and priority is None
            ):
                return PortfolioContext(
                    [],
                    None,
                    f"virtual processor {vproc.qualified_name}: bound to "
                    f"an HPF processor but lacks Priority",
                )
            task_list.append(
                PeriodicTask(
                    f"{vproc.qualified_name}.server",
                    wcet=server_wcet,
                    period=server_period,
                    deadline=server_period,
                    priority=priority,
                )
            )
        units.append(
            AnalyticUnit(
                processor.qualified_name, TaskSet(task_list), protocol
            )
        )
    if not units:
        return PortfolioContext(
            [], None, "no processor-bound periodic threads"
        )
    return PortfolioContext(units, quantizer)


def _outside_classical_fragment(instance: SystemInstance) -> Optional[str]:
    """The reason the classical task model does not cover ``instance``,
    or None when it does."""
    threads = instance.threads()
    if not threads:
        return "model has no threads"
    for thread in threads:
        protocol = thread.property(DISPATCH_PROTOCOL)
        if protocol is not DispatchProtocol.PERIODIC:
            # Sporadic threads translate to event-driven dispatchers
            # whose behaviours the periodic abstraction cannot bound.
            name = getattr(protocol, "value", protocol)
            return (
                f"{thread.qualified_name}: dispatch protocol {name} is "
                f"outside the periodic task model"
            )
        if thread.bound_processor is None:
            return f"{thread.qualified_name}: not bound to a processor"
    # Pure data-port connections into periodic threads get no queue
    # process from the translator (paper S2: periodic threads ignore
    # external events) -- they are semantically inert, exactly as the
    # compositional partitioner treats them.  Anything queued or carried
    # by a bus changes the resource picture and escapes the task model.
    from repro.translate.translator import _needs_queue

    for conn in instance.connections:
        if _needs_queue(conn):
            return (
                f"connection {conn.qualified_name} is queued; classical "
                f"tests assume independent tasks"
            )
        if conn.buses:
            return (
                f"connection {conn.qualified_name} is bus-bound; its "
                f"resource demand is outside the task model"
            )
    if instance.access_connections:
        return "model has shared data access"
    if instance.multi_modal():
        return "model has multi-modal components"
    if instance.buses() or instance.devices():
        return "model has buses or devices"
    return None
