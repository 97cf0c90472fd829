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
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import AnalysisError
from repro.aadl.components import DeclarativeModel
from repro.analysis.request import AnalysisRequest
from repro.analysis.schedulability import Verdict
from repro.engine.stats import EngineStats

if TYPE_CHECKING:
    from repro.batch.pool import JobOutcome


class ModalAnalysisResult:
    """Verdicts for every reachable mode of the root implementation."""

    def __init__(
        self,
        per_mode: Dict[str, "JobOutcome"],
        unreachable_modes: tuple = (),
        cache_misses: Optional[int] = None,
    ) -> None:
        if not per_mode:
            raise AnalysisError("no modes analyzed")
        self.per_mode = per_mode
        #: declared modes skipped because no transition path reaches
        #: them from the initial mode
        self.unreachable_modes = tuple(unreachable_modes)
        #: verdict-cache misses of the per-mode fan-out (None: no cache)
        self.cache_misses = cache_misses

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
    def stats(self) -> EngineStats:
        """The modes' stats, folded by :func:`repro.batch.pool.fold_stats`."""
        from repro.batch.pool import fold_stats

        return fold_stats(self.per_mode.values(), misses=self.cache_misses)

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
            lines.append("  engine stats:")
            lines.extend("    " + s for s in self.stats.format().splitlines())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ModalAnalysisResult({self.verdict.value}, "
            f"modes={list(self.per_mode)})"
        )


def analyze_all_modes(
    model: DeclarativeModel,
    request: AnalysisRequest,
    *,
    workers: Optional[int] = None,
    cache=None,
    progress=None,
) -> ModalAnalysisResult:
    """Analyze every reachable mode of ``request.root`` in ``model``
    (whose printed text ``request.source`` is) as a separate bound
    system.

    Each mode is one :func:`repro.batch.run_batch` job whose request is
    ``replace(request, modes=None, mode=m)``, so the portfolio tiers,
    reduction, decomposition, ``max_window`` and ``fault`` of the
    parent request ride in every child.  With ``workers`` and ``cache``
    both None the jobs run inline, on ``model`` itself; otherwise they
    fan out through the pool, with persistent, mode-keyed verdict
    caching.  Raises :class:`AnalysisError` when the root implementation
    declares no modes (use
    :func:`~repro.analysis.schedulability.analyze_model` directly in
    that case).
    """
    from repro.batch import AnalysisJob, run_batch
    from repro.batch.pool import JobOutcome
    from repro.modal.automaton import ModeAutomaton

    impl = model.implementation(request.root)
    if not impl.modes:
        raise AnalysisError(
            f"{request.root} declares no modes; use analyze_model instead"
        )
    automaton = ModeAutomaton.from_implementation(model, impl)
    reachable = {m.lower() for m in automaton.reachable_modes()}
    modes = [m for m in automaton.modes if m.lower() in reachable]
    jobs = [
        AnalysisJob.from_request(
            dataclasses.replace(request, modes=None, mode=mode),
            job_id=f"mode:{mode}",
            model=model,
        )
        for mode in modes
    ]
    inline = workers is None and cache is None
    report = run_batch(
        jobs, workers=1 if inline else workers, cache=cache, progress=progress
    )
    per_mode = {}
    for mode, result in zip(modes, report.results):
        if result.verdict == "error":
            raise AnalysisError(f"mode {mode}: {result.error}")
        per_mode[mode] = JobOutcome.from_job(result, mode=mode)
    return ModalAnalysisResult(
        per_mode,
        automaton.unreachable_modes(),
        cache_misses=report.stats.counters.get("batch.verdict_cache_misses"),
    )
