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

from typing import Any, Dict, List, Optional

from repro.analysis.schedulability import Verdict
from repro.compose.coupling import Island, Partition
from repro.errors import ComposeError


class IslandOutcome:
    """One island's analysis outcome (a thin, JSON-friendly view of the
    batch :class:`~repro.batch.jobs.JobResult` that produced it)."""

    __slots__ = (
        "island",
        "verdict",
        "states",
        "elapsed",
        "stats",
        "rendered",
        "cached",
        "error",
    )

    def __init__(
        self,
        *,
        island: Island,
        verdict: Verdict,
        states: int,
        elapsed: float,
        stats: Optional[Dict[str, Any]] = None,
        rendered: Optional[str] = None,
        cached: bool = False,
        error: Optional[str] = None,
    ) -> None:
        self.island = island
        self.verdict = verdict
        self.states = states
        self.elapsed = elapsed
        self.stats = stats
        self.rendered = rendered
        self.cached = cached
        self.error = error

    def __repr__(self) -> str:
        extra = " cached" if self.cached else ""
        return (
            f"IslandOutcome({self.island.label!r}, "
            f"{self.verdict.value}{extra})"
        )


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
        outcomes: Optional[List[IslandOutcome]] = None,
        monolithic=None,
        fallback_reason: Optional[str] = None,
    ) -> None:
        self.partition = partition
        self.mode = mode
        self.verdict = verdict
        self.outcomes = outcomes or []
        self.monolithic = monolithic
        self.fallback_reason = fallback_reason

    @property
    def compositional(self) -> bool:
        return self.mode == "compositional"

    @property
    def num_states(self) -> int:
        """States explored: sum over islands, or the monolithic count."""
        if self.compositional:
            return sum(outcome.states for outcome in self.outcomes)
        return self.monolithic.num_states if self.monolithic else 0

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
                f"{outcome.states} states "
                f"({outcome.elapsed:.3f}s){cached}"
            )
        lines.append(f"verdict: {self.verdict.value}")
        culprit = self.first_unschedulable()
        if culprit is not None and culprit.rendered:
            lines.append(f"counterexample island: {culprit.island.label}")
            for line in culprit.rendered.splitlines():
                lines.append(f"  {line}")
        return "\n".join(lines)

    def first_unschedulable(self) -> Optional[IslandOutcome]:
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
    partition: Partition, outcomes: List[IslandOutcome]
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
    )
