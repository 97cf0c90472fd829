"""The portfolio driver: analytic fast path, exact analysis as escalation.

:func:`screen` runs a tier chain over the per-processor analytic units.
Units proven schedulable accumulate across tiers (a utilization bound
may settle one processor while RTA settles another); the first
UNSCHEDULABLE unit short-circuits the whole model, carrying its
synthesized witness.  When units remain undecided after the last tier
-- or the model falls outside the classical fragment entirely --
:func:`analyze_portfolio` hands the instance to :func:`escalate`, the
exact analysis the compose runner's islands use too, and stamps the
result accordingly.

Analytic verdicts are packaged by
:meth:`~repro.analysis.schedulability.AnalysisResult.analytic` as
ordinary results with a zero-state exploration, so the CLI, batch pool,
compose runner and oracle all consume them unchanged; ``decided_by``
and the per-tier counters on :class:`~repro.engine.stats.EngineStats`
record who did the work.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.aadl.instance import SystemInstance
from repro.aadl.properties import TimeValue
from repro.analysis.schedulability import (
    AnalysisResult,
    Verdict,
    analyze_model,
)
from repro.engine.reduce import DEFAULT_REDUCTION
from repro.engine.stats import EngineStats
from repro.portfolio.context import build_context
from repro.portfolio.tiers import Soundness, Tier, tiers_from_token
from repro.translate.quantum import TimingQuantizer


def screen(
    instance: SystemInstance,
    tiers: Sequence[Tier],
    *,
    quantizer: Optional[TimingQuantizer] = None,
) -> Tuple[Optional[AnalysisResult], Dict[str, int], List[str]]:
    """Run the tier chain ``tiers``; returns ``(result, attempts, trail)``.

    ``result`` is None when undecided; ``attempts`` counts tiers
    consulted (for the escalation path to fold into its stats) and
    ``trail`` narrates each tier's contribution.
    """
    from repro.obs.tracer import current_tracer

    tracer = current_tracer()
    start = time.perf_counter()
    attempts: Dict[str, int] = {}
    trail: List[str] = []

    context = build_context(instance, quantizer=quantizer)
    if not context.applicable:
        trail.append(f"inapplicable: {context.inapplicable}")
        return None, attempts, trail

    def decided(verdict, tier_name, scenario=None) -> AnalysisResult:
        stats = EngineStats(
            strategy="portfolio",
            elapsed=time.perf_counter() - start,
            counters={
                f"portfolio.attempts.{name}": count
                for name, count in attempts.items()
            },
        )
        stats.incr(f"portfolio.hits.{tier_name}")
        return AnalysisResult.analytic(
            verdict,
            stats,
            decided_by=tier_name,
            scenario=scenario,
            tier_trail=trail,
            quantizer=context.quantizer,
        )

    pending = list(context.units)
    for tier in tiers:
        # Partition units (those carrying a BDR supply interface)
        # may only meet interface-aware tiers: a full-supply tier
        # would over-promise a partition's processor share.
        units = [
            unit
            for unit in pending
            if tier.interface_aware == (unit.interface is not None)
            and tier.applicable(unit)
        ]
        if not units:
            continue
        with tracer.span(f"portfolio.tier.{tier.name}") as span:
            attempts[tier.name] = attempts.get(tier.name, 0) + 1
            span.set(units=len(units))
            settled = []
            for unit in units:
                decision = tier.decide(unit)
                if decision is None:
                    continue
                if not decision.schedulable:
                    if tier.soundness is Soundness.SUFFICIENT:
                        # A sufficient test failing proves nothing.
                        continue
                    trail.append(
                        f"{tier.name}: {unit.processor} unschedulable "
                        f"({decision.detail})"
                    )
                    span.set(verdict=Verdict.UNSCHEDULABLE.value)
                    result = decided(
                        Verdict.UNSCHEDULABLE, tier.name, decision.scenario
                    )
                    return result, attempts, trail
                if tier.soundness is Soundness.NECESSARY:
                    # A necessary test passing proves nothing.
                    continue
                settled.append(unit)
                trail.append(
                    f"{tier.name}: {unit.processor} schedulable "
                    f"({decision.detail})"
                )
            for unit in settled:
                pending.remove(unit)
            span.incr("decided", len(settled))
            if not pending:
                span.set(verdict=Verdict.SCHEDULABLE.value)
                result = decided(Verdict.SCHEDULABLE, tier.name)
                return result, attempts, trail
    trail.append(
        f"undecided after {len(tiers)} tier(s): "
        f"{len(pending)} unit(s) remain"
    )
    return None, attempts, trail


def escalate(
    instance: SystemInstance,
    *,
    quantum: Optional[TimeValue] = None,
    max_states: int = 1_000_000,
    reduction=DEFAULT_REDUCTION,
    reduction_fault: Optional[str] = None,
) -> AnalysisResult:
    """The exact analysis of ``instance``, for what the tiers leave
    undecided.

    The ACSR translation has no server semantics: flattening a virtual
    processor into a full one would silently over-supply the partition.
    So a partitioned instance goes to the hierarchical analysis
    (interface check plus supply-aware flattened simulation), which
    speaks for one mode when the instance is pinned to it; any other
    instance to exhaustive exploration under ``reduction``.
    """
    if instance.partitioned():
        from repro.hier.analysis import analyze_hier

        return analyze_hier(instance, quantum=quantum)
    return analyze_model(
        instance,
        quantum=quantum,
        max_states=max_states,
        reduction=reduction,
        reduction_fault=reduction_fault,
    )


def analyze_portfolio(
    instance: SystemInstance,
    *,
    tiers: Optional[str] = None,
    quantum: Optional[TimeValue] = None,
    max_states: int = 1_000_000,
    reduction=DEFAULT_REDUCTION,
    reduction_fault: Optional[str] = None,
) -> AnalysisResult:
    """Tiered analysis: the chain named by the ``tiers`` token (see
    :func:`~repro.portfolio.tiers.tiers_from_token`; None is the default
    chain) first, :func:`escalate` when it leaves units undecided.

    The result's ``decided_by`` names the deciding tier, ``"hier"``
    after a partitioned escalation or ``"exploration"`` after any
    other, and the per-tier counters land on the engine stats either
    way.  ``max_states`` and ``reduction`` / ``reduction_fault`` only
    matter on escalation -- the analytic tiers never build the state
    space.
    """
    from repro.obs.tracer import current_tracer

    quantizer = TimingQuantizer(quantum) if quantum is not None else None
    result, attempts, trail = screen(
        instance, tiers_from_token(tiers), quantizer=quantizer
    )
    if result is not None:
        return result

    with current_tracer().span("portfolio.escalate") as span:
        span.set(reason=trail[-1])
        result = escalate(
            instance,
            quantum=quantum,
            max_states=max_states,
            reduction=reduction,
            reduction_fault=reduction_fault,
        )
        if result.decided_by == "hier":
            span.set(hier=True)
            step = "escalated to hierarchical (BDR) analysis"
        else:
            result.decided_by = "exploration"
            step = "escalated to exhaustive exploration"
    result.tier_trail = trail + [step] + result.tier_trail
    stats = result.exploration.stats
    if stats is not None:
        for name, count in attempts.items():
            stats.incr(f"portfolio.attempts.{name}", count)
        stats.incr("portfolio.escalations")
    return result
