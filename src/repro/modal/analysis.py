"""Transition-aware schedulability of multi-modal AADL models.

:func:`analyze_modal` is the front door of :mod:`repro.modal`: it
combines the steady per-mode analysis (:mod:`repro.analysis.modes` --
reachable modes only, optionally through the portfolio and the batch
pool) with a transient check of every reachable mode *transition*
under an explicit mode-change protocol
(:mod:`repro.modal.transient`).  The overall verdict is the
conjunction of every steady mode and every transition; the result's
``format()`` renders the per-transition trail the CLI shows.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.errors import AadlLegalityError, AnalysisError
from repro.aadl.components import DeclarativeModel
from repro.aadl.instance import SystemInstance, instantiate
from repro.aadl.printer import format_model
from repro.aadl.properties import TimeValue
from repro.analysis.modes import ModalAnalysisResult, analyze_all_modes
from repro.analysis.request import DEFAULT_TIERS, AnalysisRequest
from repro.analysis.schedulability import Verdict
from repro.engine.reduce import DEFAULT_REDUCTION
from repro.engine.stats import EngineStats
from repro.modal.automaton import ModeAutomaton, TransitionEdge
from repro.modal.transient import (
    DEFAULT_MAX_PHASINGS,
    DEFAULT_TRANSIENT_WINDOW,
    PROTOCOLS,
    TransientCheck,
    check_transition,
)


class TransitionOutcome:
    """One transition's verdict under the chosen protocol."""

    __slots__ = (
        "edge",
        "verdict",
        "decided_by",
        "detail",
        "escalated",
    )

    def __init__(
        self,
        edge: TransitionEdge,
        verdict: Verdict,
        decided_by: str,
        detail: str,
        *,
        escalated: bool = False,
    ) -> None:
        self.edge = edge
        self.verdict = verdict
        self.decided_by = decided_by
        self.detail = detail
        self.escalated = escalated

    def format(self) -> str:
        delta = []
        if self.edge.activated:
            delta.append("+" + ",".join(self.edge.activated))
        if self.edge.deactivated:
            delta.append("-" + ",".join(self.edge.deactivated))
        delta_text = f" [{' '.join(delta)}]" if delta else ""
        line = (
            f"{self.edge.label}: {self.verdict.value} "
            f"({self.decided_by}){delta_text}"
        )
        if self.detail:
            line += f"\n    {self.detail}"
        return line

    def __repr__(self) -> str:
        return (
            f"TransitionOutcome({self.edge.label}, {self.verdict.value})"
        )


class ModalResult:
    """Steady per-mode verdicts plus per-transition transient verdicts."""

    def __init__(
        self,
        *,
        impl_name: str,
        protocol: str,
        steady: ModalAnalysisResult,
        transitions: List[TransitionOutcome],
        stats: EngineStats,
        elapsed: float,
    ) -> None:
        self.impl_name = impl_name
        self.protocol = protocol
        self.steady = steady
        self.transitions = transitions
        self.stats = stats
        self.elapsed = elapsed

    @property
    def verdict(self) -> Verdict:
        return Verdict.combine(
            [self.steady.verdict]
            + [outcome.verdict for outcome in self.transitions]
        )

    @property
    def unreachable_modes(self) -> tuple:
        return self.steady.unreachable_modes

    @property
    def num_states(self) -> int:
        return self.steady.num_states

    @property
    def failing_transitions(self) -> List[TransitionOutcome]:
        return [
            o
            for o in self.transitions
            if o.verdict is Verdict.UNSCHEDULABLE
        ]

    def format(self, *, show_stats: bool = False) -> str:
        lines = [
            f"modal analysis of {self.impl_name} "
            f"(protocol: {self.protocol})",
            f"verdict: {self.verdict.value}",
            "steady modes:",
        ]
        lines.extend(
            "  " + line for line in self.steady.format().splitlines()
        )
        if self.transitions:
            lines.append("transitions:")
            for outcome in self.transitions:
                lines.extend(
                    "  " + line for line in outcome.format().splitlines()
                )
        else:
            lines.append("transitions: none declared")
        if show_stats:
            lines.extend(["", self.stats.format()])
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ModalResult({self.impl_name!r}, {self.verdict.value}, "
            f"{len(self.transitions)} transition(s))"
        )


def analyze_modal(
    model: DeclarativeModel,
    root_impl: str,
    *,
    protocol: str = "synchronous",
    quantum: Optional[TimeValue] = None,
    max_states: int = 1_000_000,
    portfolio: bool = False,
    tiers: Optional[str] = None,
    reduction: Optional[str] = DEFAULT_REDUCTION,
    workers: Optional[int] = None,
    cache=None,
    progress=None,
    max_phasings: int = DEFAULT_MAX_PHASINGS,
    max_window: int = DEFAULT_TRANSIENT_WINDOW,
    fault: Optional[str] = None,
) -> ModalResult:
    """Transition-aware analysis of a multi-modal model.

    Steady half: every mode reachable from the initial mode, analyzed
    as its own bound system by :func:`repro.analysis.modes.
    analyze_all_modes` under one ``modes="all"`` request built from the
    printed model and the steady arguments (``quantum``, ``max_states``,
    ``portfolio`` / ``tiers``, ``reduction``); ``workers`` / ``cache``
    / ``progress`` reach its batch fan-out.  Transition half:
    every reachable transition checked under ``protocol``
    (:data:`repro.modal.transient.PROTOCOLS`); ``fault`` injects a
    registered transient-checker defect for oracle self-tests.
    """
    from repro.batch.pool import fold_stats
    from repro.obs.tracer import current_tracer

    if protocol not in PROTOCOLS:
        raise AnalysisError(
            f"unknown mode-change protocol {protocol!r}; choose from "
            f"{list(PROTOCOLS)}"
        )
    started = time.perf_counter()
    tracer = current_tracer()
    impl = model.implementation(root_impl)
    if not impl.modes:
        raise AnalysisError(
            f"{root_impl} declares no modes; use analyze_model instead"
        )

    with tracer.span("modal.automaton", impl=impl.name) as span:
        automaton = ModeAutomaton.from_implementation(model, impl)
        span.set(
            modes=len(automaton.modes),
            transitions=len(automaton.edges),
            unreachable=len(automaton.unreachable_modes()),
        )
        if automaton.violations:
            raise AadlLegalityError(
                "mode declarations are not legal:\n  - "
                + "\n  - ".join(automaton.violations)
            )

    steady = analyze_all_modes(
        model,
        AnalysisRequest(
            source=format_model(model),
            root=impl.name,
            modes="all",
            quantum_ps=None if quantum is None else quantum.picoseconds,
            max_states=max_states,
            tiers=(tiers or DEFAULT_TIERS) if portfolio else None,
            reduce=reduction,
        ),
        workers=workers,
        cache=cache,
        progress=progress,
    )

    outcomes: List[TransitionOutcome] = []
    escalations = 0
    edges = automaton.reachable_edges()
    mode_units: Dict[str, object] = {}
    if edges and protocol == "asynchronous":
        # Task sets of *different* modes meet in one union, so both
        # sides must be quantized identically: one common quantizer
        # (the GCD across every reachable mode) for all extractions.
        mode_units = _steady_unit_map(
            model, impl, list(steady.per_mode), quantum
        )
    for edge in edges:
        with tracer.span(
            "modal.transition", edge=edge.label, protocol=protocol
        ) as span:
            if protocol == "synchronous":
                outcome = _synchronous_outcome(edge, steady)
            else:
                outcome = _asynchronous_outcome(
                    edge,
                    mode_units,
                    max_phasings=max_phasings,
                    max_window=max_window,
                    fault=fault,
                    tracer=tracer,
                )
            span.set(verdict=outcome.verdict.value)
        if outcome.escalated:
            escalations += 1
        outcomes.append(outcome)

    stats = fold_stats(
        steady.per_mode.values(),
        misses=steady.cache_misses,
        strategy="modal",
        wall_elapsed=time.perf_counter() - started,
    )
    stats.counters["modal.transitions_checked"] = len(outcomes)
    stats.counters["modal.transient_escalations"] = escalations
    return ModalResult(
        impl_name=impl.name,
        protocol=protocol,
        steady=steady,
        transitions=outcomes,
        stats=stats,
        elapsed=time.perf_counter() - started,
    )


def _synchronous_outcome(
    edge: TransitionEdge, steady: ModalAnalysisResult
) -> TransitionOutcome:
    """The sound fast path: the runtime defers the switch to the old
    mode's next hyperperiod boundary, where a schedulable
    constrained-deadline mode has no job in flight -- no carry-over,
    so the steady endpoint verdicts decide the transition."""
    endpoint_verdicts = [
        steady.per_mode[mode].verdict
        for mode in (edge.source, edge.target)
        if mode in steady.per_mode
    ]
    verdict = Verdict.combine(endpoint_verdicts)
    detail = (
        "switch deferred to the old mode's hyperperiod boundary; "
        "no carry-over, steady verdicts govern"
        if verdict is Verdict.SCHEDULABLE
        else "an endpoint mode is not (known) schedulable"
    )
    return TransitionOutcome(
        edge, verdict, "hyperperiod-boundary", detail
    )


def _asynchronous_outcome(
    edge: TransitionEdge,
    mode_units: Dict[str, object],
    *,
    max_phasings: int,
    max_window: int,
    fault: Optional[str],
    tracer,
) -> TransitionOutcome:
    """The asynchronous overlap: union analytic test, then escalation
    to exhaustive switch-phasing simulation (:mod:`.transient`)."""
    old_units = mode_units.get(edge.source.lower())
    new_units = mode_units.get(edge.target.lower())
    if isinstance(old_units, str) or isinstance(new_units, str):
        reason = old_units if isinstance(old_units, str) else new_units
        return TransitionOutcome(
            edge,
            Verdict.UNKNOWN,
            "inapplicable",
            f"transient analysis needs the classical task model on "
            f"both sides: {reason}",
        )
    if old_units is None or new_units is None:
        # An endpoint outside the reachable steady set (defensive).
        return TransitionOutcome(
            edge,
            Verdict.UNKNOWN,
            "inapplicable",
            "endpoint mode was not analyzed",
        )

    checks: List[Tuple[str, TransientCheck]] = []
    escalated = False
    for processor in sorted(set(old_units) | set(new_units)):
        old_unit = old_units.get(processor)
        new_unit = new_units.get(processor)
        unit = new_unit or old_unit
        with tracer.span(
            "modal.transient", edge=edge.label, processor=processor
        ) as span:
            check = check_transition(
                list(old_unit.tasks) if old_unit else [],
                list(new_unit.tasks) if new_unit else [],
                ordering=unit.ordering,
                edf=unit.sim_policy == "edf",
                policy=unit.sim_policy,
                max_phasings=max_phasings,
                max_window=max_window,
                fault=fault,
            )
            span.set(
                decided=check.decided_by,
                schedulable=check.schedulable,
                escalated=check.escalated,
            )
        escalated = escalated or check.escalated
        checks.append((processor, check))
        if check.schedulable is False:
            break

    verdicts = {
        None: Verdict.UNKNOWN,
        True: Verdict.SCHEDULABLE,
        False: Verdict.UNSCHEDULABLE,
    }
    verdict = Verdict.combine(
        verdicts[check.schedulable] for _, check in checks
    )
    if verdict is Verdict.SCHEDULABLE:
        decided = sorted({check.decided_by for _, check in checks})
        decided_by = "+".join(decided)
        detail = ""
    else:
        processor, check = next(
            (p, c)
            for p, c in checks
            if verdicts[c.schedulable] is verdict
        )
        decided_by = check.decided_by
        detail = f"{processor}: {check.detail}"
    return TransitionOutcome(
        edge, verdict, decided_by, detail, escalated=escalated
    )


def _steady_unit_map(
    model: DeclarativeModel,
    impl,
    modes: List[str],
    quantum: Optional[TimeValue],
) -> Dict[str, object]:
    """Per-processor analytic units of every steady mode, extracted
    under ONE common quantizer (the GCD of every mode's natural
    quantum, unless the caller pinned one) so tasks from different
    modes are comparable in the transient union.  A mode outside the
    classical fragment maps to its reason string instead -- the
    transient machinery is task-model based and abstains there.
    """
    import math

    from repro.errors import QuantizationError
    from repro.portfolio.context import build_context
    from repro.translate.quantum import TimingQuantizer

    instances: Dict[str, SystemInstance] = {
        mode.lower(): instantiate(
            model, impl.name, mode_overrides={impl.name: mode}
        )
        for mode in modes
    }
    if quantum is not None:
        quantizer = TimingQuantizer(quantum)
    else:
        gcd_ps = 0
        try:
            for instance in instances.values():
                natural = TimingQuantizer.natural(instance)
                gcd_ps = math.gcd(gcd_ps, natural.quantum.picoseconds)
        except QuantizationError as exc:
            reason = str(exc)
            return {key: reason for key in instances}
        quantizer = TimingQuantizer(TimeValue(gcd_ps, "ps"))

    units: Dict[str, object] = {}
    for key, instance in instances.items():
        context = build_context(
            instance, quantizer=quantizer, steady_mode=True
        )
        if not context.applicable:
            units[key] = f"mode {key}: {context.inapplicable}"
        else:
            units[key] = {unit.processor: unit for unit in context.units}
    return units
