"""Per-mode schedulability analysis of multi-modal models.

The paper models multi-modal systems in AADL (S2) but omits modes from
the translation presentation ("quite involved").  This module provides
the natural compositional approximation: instantiate and analyze each
*system operation mode* of the root implementation separately, treating
each steady mode as its own completely-bound system.

Two precision rules sharpen the approximation:

* only modes **reachable** from the initial mode through the declared
  transition automaton count -- an unreachable mode never occurs at
  runtime, so its workload must not turn the verdict (models that
  declare no transitions keep the historical reading: every mode is a
  possible externally-chosen configuration).  Skipped modes are
  reported as ``unreachable_modes``.
* each steady mode is one pinned-mode
  :class:`~repro.analysis.request.AnalysisRequest` run through the batch
  pool, so it reuses the whole analysis stack: the tiered portfolio
  (with the multi-modal applicability bar waived per mode -- see
  :func:`repro.portfolio.context.build_context`), state-space
  reduction, the compose or hier decomposition, and persistent verdict
  caching (``workers`` / ``cache``) under a key that carries the mode
  name.

Transition *transients* are the business of :mod:`repro.modal`, which
builds on this module for its steady half.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

from repro.errors import AnalysisError
from repro.aadl.components import DeclarativeModel
from repro.aadl.properties import TimeValue
from repro.analysis.schedulability import Verdict


@dataclasses.dataclass
class ModeOutcome:
    """One steady mode's verdict, from the mode's batch
    :class:`~repro.batch.jobs.JobResult`.  A job that ran in this
    process keeps its live result, so ``scenario`` and ``decided_by``
    are set; a pooled or cached one carries only the worker's formatted
    report in ``rendered``."""

    mode: str
    verdict: Verdict
    num_states: int = 0
    scenario: Any = None
    decided_by: Optional[str] = None
    stats: Any = None
    cached: bool = False
    rendered: Optional[str] = None

    @classmethod
    def from_job(cls, mode: str, result) -> "ModeOutcome":
        from repro.engine.stats import EngineStats

        if result.verdict == "error":
            raise AnalysisError(f"mode {mode}: {result.error}")
        return cls(
            mode=mode,
            verdict=Verdict(result.verdict),
            num_states=result.states,
            scenario=getattr(result.analysis, "scenario", None),
            decided_by=getattr(result.analysis, "decided_by", None),
            stats=(
                EngineStats.from_dict(result.stats)
                if result.stats is not None
                else None
            ),
            cached=result.cached,
            rendered=result.rendered,
        )

    def __repr__(self) -> str:
        return f"ModeOutcome({self.mode!r}, {self.verdict.value})"


class ModalAnalysisResult:
    """Verdicts for every reachable mode of the root implementation."""

    def __init__(
        self,
        per_mode: Dict[str, ModeOutcome],
        unreachable_modes: tuple = (),
    ) -> None:
        if not per_mode:
            raise AnalysisError("no modes analyzed")
        self.per_mode = per_mode
        #: declared modes skipped because no transition path reaches
        #: them from the initial mode
        self.unreachable_modes = tuple(unreachable_modes)

    @property
    def verdict(self) -> Verdict:
        """SCHEDULABLE iff every mode is; UNKNOWN dominates UNSCHEDULABLE
        only when no mode is outright unschedulable."""
        verdicts = {result.verdict for result in self.per_mode.values()}
        if Verdict.UNSCHEDULABLE in verdicts:
            return Verdict.UNSCHEDULABLE
        if Verdict.UNKNOWN in verdicts:
            return Verdict.UNKNOWN
        return Verdict.SCHEDULABLE

    @property
    def num_states(self) -> int:
        return sum(o.num_states for o in self.per_mode.values())

    @property
    def failing_modes(self) -> List[str]:
        return [
            mode
            for mode, result in self.per_mode.items()
            if result.verdict is Verdict.UNSCHEDULABLE
        ]

    def format(self, *, show_stats: bool = False) -> str:
        lines = [f"overall: {self.verdict.value}"]
        for mode, result in self.per_mode.items():
            cached = " [cached]" if result.cached else ""
            lines.append(
                f"  mode {mode}: {result.verdict.value} "
                f"({result.num_states} states){cached}"
            )
        if self.unreachable_modes:
            lines.append(
                "  unreachable from the initial mode (skipped): "
                + ", ".join(self.unreachable_modes)
            )
        for mode in self.failing_modes:
            scenario = self.per_mode[mode].scenario
            if scenario is not None:
                lines.append(f"  failing scenario in mode {mode}:")
                lines.append(scenario.format())
        if show_stats:
            from repro.engine.stats import EngineStats

            stats = EngineStats.aggregate(
                o.stats for o in self.per_mode.values()
            )
            lines.append("  engine stats:")
            lines.extend(f"    {line}" for line in stats.format().splitlines())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ModalAnalysisResult({self.verdict.value}, "
            f"modes={list(self.per_mode)})"
        )


def analyze_all_modes(
    model: DeclarativeModel,
    root_impl: str,
    *,
    quantum: Optional[TimeValue] = None,
    max_states: int = 1_000_000,
    portfolio: bool = False,
    tiers: Optional[str] = None,
    reduction: Optional[str] = None,
    workers: Optional[int] = None,
    cache=None,
    progress=None,
    decomposition: Optional[str] = None,
    max_window: Optional[int] = None,
    fault: Optional[str] = None,
) -> ModalAnalysisResult:
    """Analyze every reachable mode of ``root_impl`` as a separate
    bound system.

    Each mode is one pinned-mode :class:`~repro.analysis.request.
    AnalysisRequest` -- ``portfolio`` (``tiers`` optionally naming the
    chain), ``reduction``, ``decomposition`` (``"compose"`` or
    ``"hier"``), ``max_window`` and ``fault`` ride in it -- and one
    :func:`repro.batch.run_batch` job.  With ``workers`` and ``cache``
    both None the jobs run inline, on ``model`` itself; otherwise they
    fan out through the pool, with persistent, mode-keyed verdict
    caching.  Raises :class:`AnalysisError` when the root implementation
    declares no modes (use
    :func:`~repro.analysis.schedulability.analyze_model` directly in
    that case).
    """
    from repro.aadl.printer import format_model
    from repro.analysis.request import DEFAULT_TIERS, AnalysisRequest
    from repro.batch import AnalysisJob, run_batch
    from repro.modal.automaton import ModeAutomaton

    impl = model.implementation(root_impl)
    if not impl.modes:
        raise AnalysisError(
            f"{root_impl} declares no modes; use analyze_model instead"
        )
    automaton = ModeAutomaton.from_implementation(model, impl)
    reachable = {m.lower() for m in automaton.reachable_modes()}
    modes = [m for m in automaton.modes if m.lower() in reachable]
    source = format_model(model)
    jobs = [
        AnalysisJob.from_request(
            AnalysisRequest(
                source=source,
                root=impl.name,
                mode=mode,
                quantum_ps=None if quantum is None else quantum.picoseconds,
                max_states=max_states,
                decomposition=decomposition,
                tiers=(tiers or DEFAULT_TIERS) if portfolio else None,
                reduce=reduction,
                max_window=max_window,
                fault=fault,
            ),
            job_id=f"mode:{mode}",
            model=model,
        )
        for mode in modes
    ]
    inline = workers is None and cache is None
    report = run_batch(
        jobs, workers=1 if inline else workers, cache=cache, progress=progress
    )
    return ModalAnalysisResult(
        {
            mode: ModeOutcome.from_job(mode, result)
            for mode, result in zip(modes, report.results)
        },
        automaton.unreachable_modes(),
    )
