"""The portfolio driver: analytic fast path, exploration as escalation.

:class:`PortfolioAnalyzer` runs the tier chain over the per-processor
analytic units.  Units proven schedulable accumulate across tiers (a
utilization bound may settle one processor while RTA settles another);
the first UNSCHEDULABLE unit short-circuits the whole model, carrying
its synthesized witness.  When units remain undecided after the last
tier -- or the model falls outside the classical fragment entirely --
:func:`analyze_portfolio` escalates to the exhaustive ACSR exploration
and stamps the result accordingly.

Analytic verdicts are packaged as ordinary
:class:`~repro.analysis.schedulability.AnalysisResult` objects with a
synthetic zero-state :class:`~repro.engine.result.ExplorationResult`, so
the CLI, batch pool, compose runner and oracle all consume them
unchanged; ``decided_by`` and the per-tier counters on
:class:`~repro.engine.stats.EngineStats` record who did the work.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.aadl.components import DeclarativeModel
from repro.aadl.instance import SystemInstance, instantiate
from repro.aadl.properties import TimeValue
from repro.analysis.raising import AadlScenario
from repro.analysis.schedulability import (
    AnalysisResult,
    Verdict,
    analyze_model,
)
from repro.engine.reduce import DEFAULT_REDUCTION
from repro.engine.result import ExplorationResult
from repro.engine.stats import EngineStats
from repro.portfolio.context import PortfolioContext, build_context
from repro.portfolio.tiers import (
    DEFAULT_MAX_HORIZON,
    Soundness,
    Tier,
    default_tiers,
)
from repro.translate.quantum import TimingQuantizer


class PortfolioAnalyzer:
    """Runs the analytic tier chain over a model."""

    def __init__(
        self,
        tiers: Optional[Iterable[Tier]] = None,
        *,
        max_horizon: int = DEFAULT_MAX_HORIZON,
    ) -> None:
        self.tiers: List[Tier] = (
            list(tiers)
            if tiers is not None
            else default_tiers(max_horizon=max_horizon)
        )

    @property
    def config_token(self) -> str:
        """Stable name of the tier chain, for verdict-cache keys: two
        runs disagreeing on the chain must never share a cache entry."""
        return "+".join(tier.name for tier in self.tiers)

    def try_analytic(
        self,
        instance: SystemInstance,
        *,
        quantizer: Optional[TimingQuantizer] = None,
        steady_mode: bool = False,
    ) -> Optional[AnalysisResult]:
        """An analytic verdict for ``instance``, or None when the tiers
        cannot decide and the caller must explore."""
        result, _, _ = self.screen(
            instance, quantizer=quantizer, steady_mode=steady_mode
        )
        return result

    def screen(
        self,
        instance: SystemInstance,
        *,
        quantizer: Optional[TimingQuantizer] = None,
        steady_mode: bool = False,
    ) -> Tuple[Optional[AnalysisResult], Dict[str, int], List[str]]:
        """Run the tier chain; returns ``(result, attempts, trail)``.

        ``result`` is None when undecided; ``attempts`` counts tiers
        consulted (for the escalation path to fold into its stats) and
        ``trail`` narrates each tier's contribution.  ``steady_mode``
        waives the multi-modal applicability bar for instances pinned
        to one mode (see :func:`repro.portfolio.context.build_context`).
        """
        from repro.obs.tracer import current_tracer

        tracer = current_tracer()
        start = time.perf_counter()
        attempts: Dict[str, int] = {}
        trail: List[str] = []

        context = build_context(
            instance, quantizer=quantizer, steady_mode=steady_mode
        )
        if not context.applicable:
            trail.append(f"inapplicable: {context.inapplicable}")
            return None, attempts, trail

        pending = list(context.units)
        for tier in self.tiers:
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
                decided = []
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
                        result = self._analytic_result(
                            Verdict.UNSCHEDULABLE,
                            tier.name,
                            decision.scenario,
                            context,
                            attempts,
                            trail,
                            start,
                        )
                        return result, attempts, trail
                    if tier.soundness is Soundness.NECESSARY:
                        # A necessary test passing proves nothing.
                        continue
                    decided.append(unit)
                    trail.append(
                        f"{tier.name}: {unit.processor} schedulable "
                        f"({decision.detail})"
                    )
                for unit in decided:
                    pending.remove(unit)
                span.incr("decided", len(decided))
                if not pending:
                    span.set(verdict=Verdict.SCHEDULABLE.value)
                    result = self._analytic_result(
                        Verdict.SCHEDULABLE,
                        tier.name,
                        None,
                        context,
                        attempts,
                        trail,
                        start,
                    )
                    return result, attempts, trail
        trail.append(
            f"undecided after {len(self.tiers)} tier(s): "
            f"{len(pending)} unit(s) remain"
        )
        return None, attempts, trail

    def _analytic_result(
        self,
        verdict: Verdict,
        tier_name: str,
        scenario: Optional[AadlScenario],
        context: PortfolioContext,
        attempts: Dict[str, int],
        trail: List[str],
        start: float,
    ) -> AnalysisResult:
        elapsed = time.perf_counter() - start
        stats = EngineStats(
            strategy="portfolio",
            elapsed=elapsed,
            counters={
                f"portfolio.attempts.{name}": count
                for name, count in attempts.items()
            },
        )
        stats.incr(f"portfolio.hits.{tier_name}")
        exploration = ExplorationResult(
            None,  # type: ignore[arg-type]
            num_states=0,
            num_transitions=0,
            deadlock_states=[],
            target_states=[],
            completed=True,
            elapsed=elapsed,
            parent={},
            transitions=None,
            stats=stats,
        )
        return AnalysisResult(
            verdict,
            None,
            exploration,
            scenario,
            decided_by=tier_name,
            tier_trail=trail,
            quantizer=context.quantizer,
        )


def analyze_portfolio(
    model: Union[SystemInstance, DeclarativeModel],
    *,
    root_impl: Optional[str] = None,
    quantum: Optional[TimeValue] = None,
    options=None,
    max_states: int = 1_000_000,
    max_seconds: Optional[float] = None,
    stop_at_first_deadlock: bool = True,
    strategy=None,
    observers=None,
    analyzer: Optional[PortfolioAnalyzer] = None,
    reduction=DEFAULT_REDUCTION,
    reduction_fault=None,
    steady_mode: bool = False,
) -> AnalysisResult:
    """Tiered analysis: analytic tiers first, exploration on escalation.

    Drop-in for :func:`~repro.analysis.schedulability.analyze_model`
    (same signature plus ``analyzer``); the result's ``decided_by``
    names the deciding tier, or ``"exploration"`` after escalation, and
    the per-tier counters land on the engine stats either way.
    ``reduction`` / ``reduction_fault`` only matter on escalation --
    the analytic tiers never build the state space at all.
    ``steady_mode`` asserts the instance is pinned to one operation
    mode so the analytic tiers may speak for it (per-mode drivers only).
    """
    from repro.obs.tracer import current_tracer

    analyzer = analyzer if analyzer is not None else PortfolioAnalyzer()
    if isinstance(model, DeclarativeModel):
        if root_impl is None:
            raise ValueError(
                "root_impl is required when passing a declarative model"
            )
        instance = instantiate(model, root_impl)
    else:
        instance = model

    effective_quantum = quantum
    if effective_quantum is None and options is not None:
        effective_quantum = options.quantum
    quantizer = (
        TimingQuantizer(effective_quantum)
        if effective_quantum is not None
        else None
    )

    result, attempts, trail = analyzer.screen(
        instance, quantizer=quantizer, steady_mode=steady_mode
    )
    if result is not None:
        return result

    tracer = current_tracer()
    if instance.partitioned():
        # The ACSR translation has no server semantics: flattening a
        # virtual processor into a full one would silently over-supply
        # the partition, so escalation routes to the hierarchical
        # analysis (interface check plus supply-aware flattened
        # simulation) instead of exploration.
        from repro.hier.analysis import analyze_hier

        with tracer.span("portfolio.escalate") as span:
            span.set(reason=trail[-1] if trail else "", hier=True)
            result = analyze_hier(instance, quantizer=quantizer)
        result.tier_trail = trail + [
            "escalated to hierarchical (BDR) analysis"
        ] + list(result.tier_trail or [])
    else:
        with tracer.span("portfolio.escalate") as span:
            span.set(reason=trail[-1] if trail else "")
            result = analyze_model(
                instance,
                quantum=quantum,
                options=options,
                max_states=max_states,
                max_seconds=max_seconds,
                stop_at_first_deadlock=stop_at_first_deadlock,
                strategy=strategy,
                observers=observers,
                reduction=reduction,
                reduction_fault=reduction_fault,
            )
        result.decided_by = "exploration"
        result.tier_trail = trail + ["escalated to exhaustive exploration"]
    stats = result.exploration.stats
    if stats is not None:
        for name, count in attempts.items():
            stats.incr(f"portfolio.attempts.{name}", count)
        stats.incr("portfolio.escalations")
    return result
