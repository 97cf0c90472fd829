"""Hierarchical schedulability analysis of partitioned AADL systems.

``analyze_hier`` is the entry point behind ``repro analyze --hier``: it
decides an ARINC-653 style model -- threads bound to virtual processors
whose server parameters (``Period``, ``Execution_Time``) carve up each
physical processor -- without ever flattening partitions onto a full
processor (which would silently over-supply them; the translator
refuses such models for exactly that reason).

The three stages mirror the :data:`repro.obs.schema.HIER_STAGES` spans:

1. ``hier.derive`` -- build the per-partition BDR interfaces and the
   host/partition analytic units (shared with the portfolio's context
   extraction, so both paths reason about the same quantized model);
2. ``hier.check`` -- demand-vs-supply against each partition's
   interface (:mod:`repro.hier.check`), and an exact host-level check
   that every processor can honour its servers' contracts alongside
   its directly-bound threads;
3. ``hier.flatten`` -- for partitions the (sufficient) interface check
   cannot settle, the supply-aware flattened simulation
   (:mod:`repro.hier.flatten`) decides exactly for the end-of-period
   server semantics; a window past the cap demotes to UNKNOWN rather
   than truncating.  A partition whose utilization exceeds its server
   share ``Q / P`` is unschedulable without a run.

The verdict is the conjunction over partitions and hosts, packaged as
an ordinary :class:`~repro.analysis.schedulability.AnalysisResult` so
the CLI, batch pool and report consume it unchanged.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import List, Optional

from repro.aadl.instance import SystemInstance
from repro.aadl.properties import SchedulingProtocol, TimeValue
from repro.analysis.schedulability import AnalysisResult, Verdict
from repro.engine.stats import EngineStats
from repro.errors import HierError
from repro.hier.check import check_partition, fractional_utilization
from repro.hier.flatten import DEFAULT_MAX_WINDOW, simulate_partition
from repro.sched.simulation import simulate
from repro.translate.quantum import TimingQuantizer


def analyze_hier(
    instance: SystemInstance,
    *,
    quantum: Optional[TimeValue] = None,
    max_window: int = DEFAULT_MAX_WINDOW,
    fault: Optional[str] = None,
) -> AnalysisResult:
    """Decide a partitioned system through its BDR interfaces, under
    ``quantum`` (None: the natural GCD quantum).  An instance pinned to
    one mode is decided for that steady mode only.  ``fault`` injects a
    registered :data:`~repro.hier.interface.HIER_FAULTS` derivation bug
    into every partition's interface (oracle self-tests only)."""
    from repro.obs.tracer import current_tracer

    tracer = current_tracer()
    start = time.perf_counter()
    # Deferred: portfolio.context imports repro.hier.interface.
    from repro.portfolio.context import build_context

    with tracer.span("hier.derive", root=instance.qualified_name) as span:
        context = build_context(
            instance, None if quantum is None else TimingQuantizer(quantum)
        )
        if not context.applicable:
            raise HierError(
                f"hierarchical analysis inapplicable: "
                f"{context.inapplicable}"
            )
        partition_units = [
            u for u in context.units if u.interface is not None
        ]
        host_units = [u for u in context.units if u.interface is None]
        if not partition_units:
            raise HierError(
                "model has no thread-bearing virtual processors; use the "
                "plain analysis"
            )
        if fault:
            for unit in partition_units:
                unit.interface = unit.interface.with_fault(fault)
        span.set(
            partitions=len(partition_units),
            hosts=len(host_units),
            interfaces=",".join(
                u.interface.token for u in partition_units
            ),
        )

    trail: List[str] = []
    verdicts: List[Verdict] = []
    partitions_checked = 0
    interface_hits = 0
    sim_escalations = 0

    for unit in partition_units:
        partitions_checked += 1
        with tracer.span("hier.check", partition=unit.processor) as span:
            check = check_partition(
                unit.tasks,
                unit.interface,
                ordering=unit.ordering,
                edf=(
                    unit.protocol
                    is SchedulingProtocol.EARLIEST_DEADLINE_FIRST
                ),
            )
            span.set(
                interface=unit.interface.token,
                ok=None if check is None else check.ok,
            )
        if check is not None and check.ok:
            interface_hits += 1
            verdicts.append(Verdict.SCHEDULABLE)
            trail.append(
                f"hier: {unit.processor} schedulable by interface "
                f"({check.detail})"
            )
            continue
        # Interface conservatism (or no analytic test for the policy):
        # the flattened supply-aware run decides exactly for the
        # end-of-period server semantics.
        sim_escalations += 1
        # A partition demanding more than its server's share builds
        # backlog without bound: unschedulable without a run, like a
        # host with U > 1 (with offsets no finite window is exact).
        # The share is the true Q/P, not the interface's alpha, which a
        # fault may have inflated.
        util = fractional_utilization(unit.tasks)
        share = Fraction(unit.interface.budget, unit.interface.period)
        if util > share:
            verdicts.append(Verdict.UNSCHEDULABLE)
            trail.append(
                f"hier: {unit.processor} over-subscribed (U={util} > "
                f"Q/P={share} under server "
                f"({unit.interface.period},{unit.interface.budget}))"
            )
            continue
        with tracer.span("hier.flatten", partition=unit.processor) as span:
            run = simulate_partition(
                unit.tasks,
                unit.interface.period,
                unit.interface.budget,
                policy=unit.sim_policy or "rate",
                max_window=max_window,
            )
            span.set(horizon=run.horizon, schedulable=run.schedulable)
        if run.schedulable is None:
            verdicts.append(Verdict.UNKNOWN)
            trail.append(
                f"hier: {unit.processor} window {run.horizon} exceeds "
                f"cap {max_window}; verdict unknown"
            )
        elif run.schedulable:
            verdicts.append(Verdict.SCHEDULABLE)
            trail.append(
                f"hier: {unit.processor} schedulable by flattened "
                f"simulation (horizon {run.horizon})"
            )
        else:
            name, miss_t = run.misses[0]
            verdicts.append(Verdict.UNSCHEDULABLE)
            trail.append(
                f"hier: {unit.processor} unschedulable -- {name} misses "
                f"at t={miss_t} under server "
                f"({unit.interface.period},{unit.interface.budget})"
            )

    for unit in host_units:
        with tracer.span("hier.check", host=unit.processor) as span:
            if unit.tasks.utilization > 1.0 + 1e-12:
                verdicts.append(Verdict.UNSCHEDULABLE)
                trail.append(
                    f"hier: host {unit.processor} over-utilized "
                    f"(U={unit.tasks.utilization:.4f} > 1)"
                )
                span.set(ok=False)
                continue
            sim = simulate(unit.tasks, policy=unit.sim_policy or "rate")
            span.set(ok=sim.schedulable)
        if sim.schedulable:
            verdicts.append(Verdict.SCHEDULABLE)
            trail.append(
                f"hier: host {unit.processor} honours its servers "
                f"(clean run over {sim.horizon})"
            )
        else:
            name, miss_t = sim.misses[0]
            verdicts.append(Verdict.UNSCHEDULABLE)
            trail.append(
                f"hier: host {unit.processor} unschedulable -- {name} "
                f"misses at t={miss_t}"
            )

    verdict = Verdict.combine(verdicts)
    stats = EngineStats(
        strategy="hier",
        elapsed=time.perf_counter() - start,
        counters={
            "hier.partitions_checked": partitions_checked,
            "hier.interface_hits": interface_hits,
            "hier.sim_escalations": sim_escalations,
        },
    )
    if verdict is not Verdict.UNKNOWN:
        stats.incr("portfolio.hits.hier")
    return AnalysisResult.analytic(
        verdict,
        stats,
        decided_by="hier",
        tier_trail=trail,
        quantizer=context.quantizer,
    )
