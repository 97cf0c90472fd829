"""Verdict combination across islands.

Islands are timing-independent by construction, so schedulability of
the whole model is the conjunction of the island verdicts:

* every island SCHEDULABLE -> SCHEDULABLE;
* any island UNSCHEDULABLE -> UNSCHEDULABLE, carrying that island's
  raised counterexample (a deadlock in a slice is a deadlock of the
  full composition: the removed components cannot un-block it);
* otherwise any UNKNOWN -> UNKNOWN (some island's budget ran out).

An island that *errors* (worker-side translation or model failure)
poisons the combination: the error is re-raised rather than folded
into a verdict, matching what the monolithic pipeline would do.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.schedulability import Verdict
from repro.batch.pool import JobOutcome, fold_stats
from repro.compose.coupling import Partition
from repro.engine.stats import EngineStats
from repro.errors import ComposeError


class CompositionResult:
    """What ``analyze --compose`` produced.

    ``mode`` is ``"compositional"`` (islands analyzed separately,
    ``outcomes`` populated) or ``"monolithic-fallback"`` (``monolithic``
    holds the ordinary :class:`~repro.analysis.AnalysisResult` and
    ``fallback_reason`` says why).
    """

    def __init__(
        self,
        *,
        partition: Partition,
        mode: str,
        verdict: Verdict,
        outcomes: Optional[List[JobOutcome]] = None,
        monolithic=None,
        fallback_reason: Optional[str] = None,
        cache_misses: Optional[int] = None,
    ) -> None:
        self.partition = partition
        self.mode = mode
        self.verdict = verdict
        self.outcomes = outcomes or []
        self.monolithic = monolithic
        self.fallback_reason = fallback_reason
        #: verdict-cache misses of the island fan-out (None: no cache)
        self.cache_misses = cache_misses

    @property
    def compositional(self) -> bool:
        return self.mode == "compositional"

    @property
    def decided_by(self) -> Optional[str]:
        """The fallback's deciding tier, as the monolithic result names
        it (None for a composition)."""
        return getattr(self.monolithic, "decided_by", None)

    @property
    def scenario(self):
        """The fallback's failing scenario (a composition renders its
        culprit island instead)."""
        return getattr(self.monolithic, "scenario", None)

    @property
    def num_states(self) -> int:
        """States explored: sum over islands, or the monolithic count."""
        if self.compositional:
            return sum(outcome.num_states for outcome in self.outcomes)
        return self.monolithic.num_states if self.monolithic else 0

    @property
    def stats(self) -> Optional[EngineStats]:
        """The islands' stats (:func:`~repro.batch.pool.fold_stats`)."""
        if self.compositional:
            return fold_stats(self.outcomes, misses=self.cache_misses)
        return self.monolithic.stats if self.monolithic else None

    def format(self, *, show_stats: bool = False) -> str:
        if not self.compositional:
            lines = [
                f"compose: monolithic fallback ({self.fallback_reason})",
            ]
            if self.monolithic is not None:
                lines.append(self.monolithic.format(show_stats=show_stats))
            return "\n".join(lines)
        lines = [
            f"compose: {len(self.outcomes)} islands "
            f"({self.num_states} states total)"
        ]
        for outcome in self.outcomes:
            cached = " [cached]" if outcome.cached else ""
            lines.append(
                f"  {outcome.island.label}: {outcome.verdict.value}, "
                f"{outcome.num_states} states "
                f"({outcome.elapsed:.3f}s){cached}"
            )
        lines.append(f"verdict: {self.verdict.value}")
        if show_stats:
            lines.append("engine stats:")
            lines.extend("  " + s for s in self.stats.format().splitlines())
        culprit = self.first_unschedulable()
        if culprit is not None and culprit.rendered:
            lines.append(f"counterexample island: {culprit.island.label}")
            for line in culprit.rendered.splitlines():
                lines.append(f"  {line}")
        return "\n".join(lines)

    def first_unschedulable(self) -> Optional[JobOutcome]:
        for outcome in self.outcomes:
            if outcome.verdict is Verdict.UNSCHEDULABLE:
                return outcome
        return None

    @property
    def exit_code(self) -> int:
        return self.verdict.exit_code

    def __repr__(self) -> str:
        return f"CompositionResult({self.mode}, {self.verdict.value})"


def combine_outcomes(
    partition: Partition,
    outcomes: List[JobOutcome],
    *,
    cache_misses: Optional[int] = None,
) -> CompositionResult:
    """Fold island outcomes into the composed verdict.

    Raises :class:`~repro.errors.ComposeError` if any island errored;
    a partial composition has no sound verdict.
    """
    errored = [o for o in outcomes if o.error]
    if errored:
        details = "; ".join(
            f"{o.island.label}: {o.error}" for o in errored
        )
        raise ComposeError(f"island analysis failed: {details}")
    verdict = Verdict.combine(o.verdict for o in outcomes)
    return CompositionResult(
        partition=partition,
        mode="compositional",
        verdict=verdict,
        outcomes=outcomes,
        cache_misses=cache_misses,
    )
