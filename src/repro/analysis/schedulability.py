"""Top-level schedulability analysis (the paper's three-step plugin, S5).

1. translate the AADL instance to ACSR (Algorithm 1);
2. explore the prioritized state space looking for deadlocks (VERSA);
3. raise any deadlock trace back to AADL terms.

The verdict is

* ``SCHEDULABLE`` -- the reachable state space is deadlock-free (every
  thread meets every deadline in every behaviour);
* ``UNSCHEDULABLE`` -- a deadlock was found; the result carries the
  failing scenario;
* ``UNKNOWN`` -- the exploration budget was exhausted first.
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional, Union

from repro.errors import AnalysisError
from repro.engine.budget import Budget
from repro.engine.core import explore
from repro.engine.reduce import DEFAULT_REDUCTION, build_reduction
from repro.engine.result import ExplorationResult
from repro.engine.stats import EngineStats
from repro.aadl.instance import SystemInstance
from repro.aadl.properties import TimeValue
from repro.analysis.raising import AadlScenario, raise_trace
from repro.translate.quantum import TimingQuantizer
from repro.translate.translator import (
    TranslationOptions,
    TranslationResult,
    translate,
)


class Verdict(enum.Enum):
    SCHEDULABLE = "schedulable"
    UNSCHEDULABLE = "unschedulable"
    UNKNOWN = "unknown"

    @property
    def exit_code(self) -> int:
        """The CLI exit-code contract: 0 schedulable, 1 unschedulable,
        3 unknown (budget exhausted).  2 is reserved for usage and
        model errors, matching the argparse convention."""
        return {
            Verdict.SCHEDULABLE: 0,
            Verdict.UNSCHEDULABLE: 1,
            Verdict.UNKNOWN: 3,
        }[self]

    @classmethod
    def combine(cls, verdicts: Iterable["Verdict"]) -> "Verdict":
        """Conjunction over independent sub-analyses (compositional
        verdict combination): any UNSCHEDULABLE wins, else any UNKNOWN
        demotes the whole answer, else SCHEDULABLE.  An empty sequence
        is vacuously SCHEDULABLE."""
        combined = cls.SCHEDULABLE
        for verdict in verdicts:
            if verdict is cls.UNSCHEDULABLE:
                return cls.UNSCHEDULABLE
            if verdict is cls.UNKNOWN:
                combined = cls.UNKNOWN
        return combined


class AnalysisResult:
    """Everything the analysis produced.

    ``translation`` is None when an analytic portfolio tier decided the
    verdict without translating the model to ACSR; ``decided_by`` then
    names the tier (``"exploration"`` after an escalated portfolio run,
    None for a plain non-portfolio analysis) and ``tier_trail`` records
    each tier's contribution in order.
    """

    def __init__(
        self,
        verdict: Verdict,
        translation: Optional[TranslationResult],
        exploration: ExplorationResult,
        scenario: Optional[AadlScenario],
        *,
        decided_by: Optional[str] = None,
        tier_trail: Optional[Iterable[str]] = None,
        quantizer: Optional["TimingQuantizer"] = None,
    ) -> None:
        self.verdict = verdict
        self.translation = translation
        self.exploration = exploration
        #: failing scenario (UNSCHEDULABLE only)
        self.scenario = scenario
        self.decided_by = decided_by
        self.tier_trail = list(tier_trail) if tier_trail is not None else []
        self._quantizer = quantizer

    @classmethod
    def analytic(
        cls,
        verdict: Verdict,
        stats: EngineStats,
        *,
        decided_by: str,
        scenario: Optional[AadlScenario] = None,
        tier_trail: Optional[Iterable[str]] = None,
        quantizer: Optional["TimingQuantizer"] = None,
    ) -> "AnalysisResult":
        """A verdict reached without translating the model.  Its
        ``exploration`` explored zero states: it carries ``stats`` and
        their elapsed time, and is complete unless the verdict is
        UNKNOWN."""
        exploration = ExplorationResult(
            None,  # type: ignore[arg-type]
            num_states=0,
            num_transitions=0,
            deadlock_states=[],
            target_states=[],
            completed=verdict is not Verdict.UNKNOWN,
            elapsed=stats.elapsed,
            parent={},
            transitions=None,
            stats=stats,
        )
        return cls(
            verdict,
            None,
            exploration,
            scenario,
            decided_by=decided_by,
            tier_trail=tier_trail,
            quantizer=quantizer,
        )

    @property
    def quantizer(self) -> Optional["TimingQuantizer"]:
        """The quantizer behind the verdict, whether the model was
        translated or decided analytically."""
        if self.translation is not None:
            return self.translation.quantizer
        return self._quantizer

    @property
    def schedulable(self) -> Optional[bool]:
        """True / False, or None when the verdict is UNKNOWN."""
        if self.verdict is Verdict.SCHEDULABLE:
            return True
        if self.verdict is Verdict.UNSCHEDULABLE:
            return False
        return None

    @property
    def num_states(self) -> int:
        return self.exploration.num_states

    @property
    def elapsed(self) -> float:
        return self.exploration.elapsed

    @property
    def stats(self) -> Optional[EngineStats]:
        return self.exploration.stats

    def format(self, *, show_stats: bool = False) -> str:
        lines = [
            f"verdict: {self.verdict.value}",
            f"states explored: {self.exploration.num_states} "
            f"({self.exploration.elapsed:.3f}s)",
        ]
        quantizer = self.quantizer
        if quantizer is not None:
            lines.append(f"quantum: {quantizer.quantum}")
        if self.decided_by is not None:
            lines.append(f"decided by: {self.decided_by}")
        if show_stats and self.stats is not None:
            lines.append("engine stats:")
            for stat_line in self.stats.format().splitlines():
                lines.append(f"  {stat_line}")
        if self.scenario is not None:
            lines.append("failing scenario:")
            lines.append(self.scenario.format())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"AnalysisResult({self.verdict.value}, "
            f"states={self.exploration.num_states})"
        )


def analyze_model(
    instance: SystemInstance,
    *,
    quantum: Optional[TimeValue] = None,
    options: Optional[TranslationOptions] = None,
    max_states: int = 1_000_000,
    stop_at_first_deadlock: bool = True,
    portfolio: bool = False,
    reduction: Union[str, Iterable[str], None] = DEFAULT_REDUCTION,
    reduction_fault: Optional[str] = None,
) -> AnalysisResult:
    """Analyze an instantiated, bound AADL system for schedulability.

    ``quantum`` overrides the default exact (GCD) quantization;
    ``options`` gives full control over the translation.  The search is
    breadth-first, which keeps counterexamples shortest.  ``portfolio``
    routes the model through the default analytic tier chain first,
    escalating only when no tier decides
    (:func:`repro.portfolio.analyze_portfolio`); that route sets no
    exploration options, so ``options`` or
    ``stop_at_first_deadlock=False`` with it raise :class:`ValueError`.
    ``reduction`` names the state-space reduction passes
    (``"sym,por"``-style spec, default
    :data:`~repro.engine.reduce.DEFAULT_REDUCTION`; ``None`` or
    ``"none"`` explores unreduced) -- the verdict, including honest
    UNKNOWN on truncation, is preserved; ``reduction_fault`` injects a
    registered reduction bug for oracle self-tests.

    A deadlock found in a reduced space is raised from an unreduced
    search: the same translation is explored once more without the
    reduction, under the same budget, up to its first deadlock, and the
    scenario comes from that search (see :func:`_unreduced_witness`).
    The result's stats count both searches.  When that search completes
    without a deadlock the reduction was unsound, and
    :class:`~repro.errors.AnalysisError` is raised.
    """
    if portfolio:
        given = {
            "options": options is not None,
            "stop_at_first_deadlock": not stop_at_first_deadlock,
        }
        exploration_only = [name for name, set_ in given.items() if set_]
        if exploration_only:
            raise ValueError(
                f"portfolio=True cannot take {', '.join(exploration_only)}: "
                f"the portfolio sets no exploration options"
            )
        # Imported lazily: repro.portfolio imports this module.
        from repro.portfolio import analyze_portfolio

        return analyze_portfolio(
            instance,
            quantum=quantum,
            max_states=max_states,
            reduction=reduction,
            reduction_fault=reduction_fault,
        )

    from repro.obs.tracer import current_tracer

    tracer = current_tracer()
    with tracer.span("analysis.analyze") as analyze_span:
        analyze_span.set(root=instance.qualified_name)

        if options is None:
            options = TranslationOptions(quantum=quantum)
        elif quantum is not None:
            options.quantum = quantum

        translation = translate(instance, options)
        reduction_obj = build_reduction(
            translation, reduction, fault=reduction_fault
        )
        budget = Budget(max_states=max_states, on_limit="truncate")
        exploration = explore(
            translation.system,
            budget=budget,
            stop_at_first_deadlock=stop_at_first_deadlock,
            reduction=reduction_obj,
        )
        if reduction_obj is not None and exploration.deadlock_states:
            exploration = _unreduced_witness(translation, exploration, budget)

        trace = exploration.first_deadlock_trace()
        if trace is not None:
            # A deadlock witness is definitive even on a truncated run.
            with tracer.span("analysis.raise") as raise_span:
                scenario = raise_trace(translation, trace, deadlocked=True)
                raise_span.incr("trace_steps", len(trace)).incr(
                    "events", len(scenario.events)
                )
            analyze_span.set(verdict=Verdict.UNSCHEDULABLE.value)
            return AnalysisResult(
                Verdict.UNSCHEDULABLE, translation, exploration, scenario
            )
        if exploration.completed:
            analyze_span.set(verdict=Verdict.SCHEDULABLE.value)
            return AnalysisResult(
                Verdict.SCHEDULABLE, translation, exploration, None
            )
        # Truncated and deadlock-less: the budget was exhausted before
        # the space was covered, so nothing was proved either way.
        # (Previously a truncated full-space run could silently read as
        # schedulable.)
        analyze_span.set(verdict=Verdict.UNKNOWN.value)
        return AnalysisResult(Verdict.UNKNOWN, translation, exploration, None)


def _unreduced_witness(
    translation: TranslationResult,
    reduced: ExplorationResult,
    budget: Budget,
) -> ExplorationResult:
    """The exploration a reduced run's deadlock is raised from.

    A reduction keeps a subset of the interleavings, so which deadlock
    it reaches first -- and the scenario raised from it -- depends on
    the reduction.  Exploring the translation again without it, up to
    its first deadlock, gives the scenario an unreduced run reports.
    When that search exhausts ``budget`` first, the reduced witness
    stands: a sound reduction's paths are real paths of the system.
    When it covers the whole space without a deadlock, it refutes the
    reduced witness -- the reduction was unsound -- and
    :class:`~repro.errors.AnalysisError` is raised rather than either
    verdict.  The returned result's stats and elapsed time count both
    searches.
    """
    plain = explore(
        translation.system, budget=budget, stop_at_first_deadlock=True
    )
    if plain.completed and not plain.deadlock_states:
        raise AnalysisError(
            f"the reduced search's deadlock is refuted by the unreduced "
            f"search, which covered all {plain.num_states} states without "
            f"one: the reduction is unsound for this model"
        )
    witness = plain if plain.deadlock_states else reduced
    witness.stats = EngineStats.aggregate(
        (reduced.stats, plain.stats), strategy=plain.stats.strategy
    )
    witness.elapsed = reduced.elapsed + plain.elapsed
    return witness
