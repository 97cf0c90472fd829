"""Seeded differential-testing campaigns.

A campaign draws ``seeds`` cases (round-robin over the workload
generators, every parameter derived from the seed), runs each through
the full AADL -> ACSR -> engine pipeline *and* the classical oracles,
classifies the agreement, and -- on disagreement -- shrinks the case to
a minimal reproducer and persists it as a replayable JSON bundle under
``artifacts/oracle/``.

Case evaluation fans out across the :mod:`repro.batch` worker pool
(``jobs`` processes, default one per core) and can consult the
persistent verdict cache, so a repeated campaign skips already-proven
cases; per-job seeding is deterministic, which makes ``jobs=1`` and
``jobs=N`` produce identical verdict sets.  Shrinking stays in the
parent process: it is a sequential search whose every probe depends on
the previous answer.  Every evaluation's
:class:`~repro.engine.stats.EngineStats` snapshot is aggregated into
campaign totals, so a run accounts for exactly where its state budget
went.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.engine.observers import ProgressObserver
from repro.errors import SchedError
from repro.oracle.bundle import DEFAULT_ARTIFACTS_DIR, ReproBundle
from repro.oracle.case import OracleCase
from repro.oracle.faults import Fault, get_fault
from repro.oracle.shrink import shrink_case
from repro.oracle.verdicts import (
    AgreementStatus,
    CaseClassification,
    evaluate_case,
)


class CampaignProfile:
    """Parameter envelope of one campaign flavour."""

    __slots__ = (
        "name",
        "generators",
        "n_range",
        "utilization_range",
        "boundary_fraction",
        "max_states",
        "shrink_evaluations",
        "generator_params",
        "schedulings",
    )

    def __init__(
        self,
        name: str,
        *,
        generators: Tuple[str, ...],
        n_range: Tuple[int, int],
        utilization_range: Tuple[float, float],
        boundary_fraction: float,
        max_states: int,
        shrink_evaluations: int,
        generator_params: Optional[Dict[str, Dict[str, Any]]] = None,
        schedulings: Optional[Dict[str, Tuple[str, ...]]] = None,
    ) -> None:
        self.name = name
        self.generators = generators
        self.n_range = n_range
        self.utilization_range = utilization_range
        #: fraction of draws forced near the U = 1 boundary, where
        #: disagreements (quantization, off-by-one interference) cluster
        self.boundary_fraction = boundary_fraction
        self.max_states = max_states
        self.shrink_evaluations = shrink_evaluations
        self.generator_params = generator_params or {}
        #: scheduling protocols drawn per generator; constrained-deadline
        #: sets pair with DM (the optimal fixed-priority order there)
        self.schedulings = schedulings or {
            "uniform": ("RMS", "EDF"),
            "harmonic": ("RMS", "EDF"),
            "constrained": ("DMS", "EDF"),
            "offset": ("RMS", "EDF"),
        }


#: Small periods keep hyperperiods -- and ACSR state spaces -- tractable.
_SMALL_PERIODS = (4, 6, 8, 12)

PROFILES: Dict[str, CampaignProfile] = {
    "smoke": CampaignProfile(
        "smoke",
        generators=("uniform", "harmonic", "constrained", "offset"),
        n_range=(1, 4),
        utilization_range=(0.3, 1.15),
        boundary_fraction=0.25,
        max_states=150_000,
        shrink_evaluations=300,
        generator_params={
            "uniform": {"periods": _SMALL_PERIODS},
            "constrained": {"periods": _SMALL_PERIODS},
            "offset": {"periods": _SMALL_PERIODS},
        },
    ),
    "nightly": CampaignProfile(
        "nightly",
        generators=("uniform", "harmonic", "constrained", "offset"),
        n_range=(2, 6),
        utilization_range=(0.3, 1.2),
        boundary_fraction=0.3,
        max_states=600_000,
        shrink_evaluations=600,
    ),
}


class CaseOutcome:
    """One case's journey through a campaign."""

    __slots__ = (
        "case",
        "verdict",
        "classification",
        "states",
        "elapsed",
        "limit_hit",
        "shrunk_case",
        "bundle_path",
    )

    def __init__(
        self,
        case: OracleCase,
        verdict: str,
        classification: CaseClassification,
        states: int,
        elapsed: float,
        limit_hit: Optional[str],
        shrunk_case: Optional[OracleCase] = None,
        bundle_path: Optional[str] = None,
    ) -> None:
        self.case = case
        self.verdict = verdict
        self.classification = classification
        self.states = states
        self.elapsed = elapsed
        self.limit_hit = limit_hit
        self.shrunk_case = shrunk_case
        self.bundle_path = bundle_path

    def __repr__(self) -> str:
        return (
            f"CaseOutcome({self.case.case_id!r}, {self.verdict}, "
            f"{self.classification.status.value})"
        )


class CampaignReport:
    """Aggregated result of one campaign run."""

    def __init__(
        self,
        *,
        profile: str,
        seeds: int,
        base_seed: int,
        fault: Optional[str],
        outcomes: List[CaseOutcome],
        totals: Dict[str, Any],
        elapsed: float,
        workers: int = 1,
    ) -> None:
        self.profile = profile
        self.seeds = seeds
        self.base_seed = base_seed
        self.fault = fault
        self.outcomes = outcomes
        #: aggregated EngineStats across every pipeline run of the
        #: campaign (including shrink re-evaluations)
        self.totals = totals
        self.elapsed = elapsed
        #: worker-pool width the cases were evaluated with
        self.workers = workers

    def _by_status(self, status: AgreementStatus) -> List[CaseOutcome]:
        return [
            outcome
            for outcome in self.outcomes
            if outcome.classification.status is status
        ]

    @property
    def agreed(self) -> List[CaseOutcome]:
        return self._by_status(AgreementStatus.AGREED)

    @property
    def disagreements(self) -> List[CaseOutcome]:
        return self._by_status(AgreementStatus.DISAGREED)

    @property
    def unknown(self) -> List[CaseOutcome]:
        return self._by_status(AgreementStatus.UNKNOWN)

    def format(self) -> str:
        lines = [
            f"oracle campaign: profile={self.profile} seeds={self.seeds} "
            f"base_seed={self.base_seed}"
            + (f" fault={self.fault}" if self.fault else "")
            + (f" jobs={self.workers}" if self.workers != 1 else ""),
        ]
        generators = sorted(
            {outcome.case.generator for outcome in self.outcomes}
        )
        width = max([len(g) for g in generators] + [10])
        header = "  " + " " * 11 + "".join(
            f"{g:>{width + 2}}" for g in generators
        ) + f"{'total':>{width + 2}}"
        lines.append("agreement matrix:")
        lines.append(header)
        for status in AgreementStatus:
            row = self._by_status(status)
            counts = {
                g: sum(1 for o in row if o.case.generator == g)
                for g in generators
            }
            lines.append(
                f"  {status.value:<11}"
                + "".join(f"{counts[g]:>{width + 2}}" for g in generators)
                + f"{len(row):>{width + 2}}"
            )
        totals = self.totals
        lines.append(
            f"engine totals: {totals['runs']} pipeline run(s), "
            f"{totals['states']} states, {totals['transitions']} "
            f"transitions in {totals['engine_elapsed']:.2f}s "
            f"(campaign wall clock {self.elapsed:.2f}s)"
        )
        cache_total = totals["cache_hits"] + totals["cache_misses"]
        if cache_total:
            lines.append(
                f"cache: {totals['cache_hits']} hits / "
                f"{totals['cache_misses']} misses "
                f"({totals['cache_hits'] / cache_total:.1%} hit rate)"
            )
        vc_hits = totals.get("verdict_cache_hits", 0)
        vc_misses = totals.get("verdict_cache_misses", 0)
        if vc_hits or vc_misses:
            lines.append(
                f"verdict cache: {vc_hits} hits / {vc_misses} misses "
                f"({vc_hits / (vc_hits + vc_misses):.1%} hit rate)"
            )
        if totals["budget_capped"]:
            lines.append(
                f"budget-capped runs: {totals['budget_capped']} "
                f"(reported as UNKNOWN, never as agreement)"
            )
        for outcome in self.unknown:
            lines.append(
                f"unknown: {outcome.case.case_id} "
                f"(limit_hit={outcome.limit_hit!r}, "
                f"{outcome.states} states explored)"
            )
        for outcome in self.disagreements:
            shrunk = outcome.shrunk_case
            lines.append(
                f"DISAGREEMENT: {outcome.case.case_id} "
                f"pipeline={outcome.verdict} "
                f"conflicts={outcome.classification.conflicts}"
            )
            if shrunk is not None:
                lines.append(
                    f"  shrunk from {len(outcome.case.tasks)} to "
                    f"{len(shrunk.tasks)} task(s): "
                    + "; ".join(
                        f"{t['name']}(C={t['wcet']}, T={t['period']}, "
                        f"D={t['deadline']}, O={t['offset']})"
                        for t in shrunk.tasks
                    )
                )
            if outcome.bundle_path is not None:
                lines.append(
                    f"  replay: repro oracle replay {outcome.bundle_path}"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"CampaignReport(profile={self.profile!r}, seeds={self.seeds}, "
            f"agreed={len(self.agreed)}, "
            f"disagreed={len(self.disagreements)}, "
            f"unknown={len(self.unknown)})"
        )


def draw_case(
    profile: CampaignProfile, seed: int, index: int
) -> OracleCase:
    """Deterministically derive case number ``index`` of a campaign.

    The generator cycles round-robin; every numeric parameter comes from
    a generator seeded with the case seed, so the draw is reproducible
    from the ``(profile, seed)`` pair alone.
    """
    generator = profile.generators[index % len(profile.generators)]
    prng = np.random.default_rng([seed, 0x0FACE])
    lo, hi = profile.n_range
    n = int(prng.integers(lo, hi + 1))
    if prng.random() < profile.boundary_fraction:
        utilization = float(prng.uniform(0.85, 1.1))
    else:
        utilization = float(prng.uniform(*profile.utilization_range))
    choices = profile.schedulings.get(generator, ("RMS", "EDF"))
    scheduling = choices[int(prng.integers(len(choices)))]
    params = profile.generator_params.get(generator, {})
    return OracleCase.generate(
        generator,
        seed,
        n=n,
        utilization=round(utilization, 4),
        scheduling=scheduling,
        **params,
    )


def _accumulate(totals: Dict[str, Any], pipeline) -> None:
    stats = pipeline.exploration.stats
    totals["runs"] += 1
    totals["states"] += pipeline.num_states
    totals["elapsed"] = totals.get("elapsed", 0.0)
    if stats is not None:
        totals["transitions"] += stats.transitions
        totals["engine_elapsed"] += stats.elapsed
        totals["cache_hits"] += stats.cache_hits
        totals["cache_misses"] += stats.cache_misses
        if stats.limit_hit is not None:
            totals["budget_capped"] += 1


def run_campaign(
    *,
    seeds: int,
    profile: Union[str, CampaignProfile] = "smoke",
    base_seed: int = 0,
    artifacts_dir: str = DEFAULT_ARTIFACTS_DIR,
    fault: Union[Fault, str, None] = None,
    max_states: Optional[int] = None,
    progress: Union[bool, Callable[[int, int, CaseOutcome], None]] = False,
    jobs: Optional[int] = None,
    cache=None,
) -> CampaignReport:
    """Run a differential campaign of ``seeds`` cases.

    Cases are drawn upfront and evaluated through
    :func:`repro.batch.run_batch` (``jobs`` workers, default one per
    core; ``cache`` enables the persistent verdict cache).  Cached
    results are served without re-running and are *not* counted in
    ``totals["runs"]``.  Disagreements are shrunk in the parent process
    and persisted under ``artifacts_dir``; the returned report carries
    every outcome plus aggregated engine statistics.  ``fault`` injects
    a known translator defect into the pipeline side (see
    :mod:`repro.oracle.faults`) -- used to test the harness itself.
    """
    from repro.batch import AnalysisJob, run_batch

    if seeds < 1:
        raise SchedError(f"need at least one seed, got {seeds}")
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise SchedError(
                f"unknown campaign profile {profile!r}; "
                f"choose from {sorted(PROFILES)}"
            ) from None
    if isinstance(fault, str):
        fault = get_fault(fault)
    budget = max_states if max_states is not None else profile.max_states
    fault_name = fault.name if fault is not None else None

    totals: Dict[str, Any] = {
        "runs": 0,
        "states": 0,
        "transitions": 0,
        "engine_elapsed": 0.0,
        "cache_hits": 0,
        "cache_misses": 0,
        "budget_capped": 0,
        "verdict_cache_hits": 0,
        "verdict_cache_misses": 0,
    }

    def evaluate(case: OracleCase):
        # Parent-process path, used for shrinking: every probe depends
        # on the previous answer, so this never rides the pool.  Live
        # progress on explorations that grow large; every run's
        # EngineStats snapshot lands in the campaign totals.
        observer = ProgressObserver(every_states=50_000)
        pipeline, oracles, classification = evaluate_case(
            case, max_states=budget, fault=fault, observers=observer
        )
        _accumulate(totals, pipeline)
        return pipeline, oracles, classification

    from repro.obs.tracer import current_tracer

    campaign_span = current_tracer().span(
        "oracle.campaign", profile=profile.name, seeds=seeds
    )
    started = time.perf_counter()
    cases = [
        draw_case(profile, base_seed + index, index)
        for index in range(seeds)
    ]
    job_list = [
        AnalysisJob.from_case(
            case,
            job_id=case.case_id,
            max_states=budget,
            fault=fault_name,
        )
        for case in cases
    ]

    def batch_progress(done: int, total: int, result) -> None:
        if done % 10 == 0 or done == total:
            status = (result.classification or {}).get("status", "?")
            mark = " [cached]" if result.cached else ""
            print(
                f"  [{done}/{total}] {result.job_id}: "
                f"{result.verdict} ({status}){mark}",
                file=sys.stderr,
            )

    report = run_batch(
        job_list,
        workers=jobs,
        cache=cache,
        progress=batch_progress
        if (progress and not callable(progress))
        else None,
    )

    for result in report.results:
        if not result.cached:
            totals["runs"] += 1
            totals["states"] += result.states
            if result.limit_hit is not None:
                totals["budget_capped"] += 1
            if result.stats is not None:
                totals["transitions"] += result.stats.get("transitions", 0)
                totals["engine_elapsed"] += result.stats.get("elapsed", 0.0)
                totals["cache_hits"] += result.stats.get("cache_hits", 0)
                totals["cache_misses"] += result.stats.get(
                    "cache_misses", 0
                )
    totals["verdict_cache_hits"] = report.cache_hits
    totals["verdict_cache_misses"] = report.cache_misses

    outcomes: List[CaseOutcome] = []
    for index, (case, result) in enumerate(zip(cases, report.results)):
        if result.error is not None:
            raise SchedError(f"case {case.case_id}: {result.error}")
        classification = CaseClassification.from_dict(result.classification)
        outcome = CaseOutcome(
            case,
            result.verdict,
            classification,
            result.states,
            result.elapsed,
            result.limit_hit,
        )

        if classification.status is AgreementStatus.DISAGREED:
            def still_disagrees(candidate: OracleCase) -> bool:
                _, _, cls = evaluate(candidate)
                return cls.status is AgreementStatus.DISAGREED

            shrink = shrink_case(
                case,
                still_disagrees,
                max_evaluations=profile.shrink_evaluations,
            )
            (
                shrunk_pipeline,
                shrunk_oracles,
                shrunk_classification,
            ) = evaluate(shrink.case)
            bundle = ReproBundle.from_evaluation(
                kind="disagreement",
                case=shrink.case,
                pipeline=shrunk_pipeline,
                oracles=shrunk_oracles,
                classification=shrunk_classification,
                max_states=budget,
                profile=profile.name,
                fault=fault_name,
                original_case=case,
                shrink_evaluations=shrink.evaluations,
            )
            outcome.shrunk_case = shrink.case
            outcome.bundle_path = bundle.save(artifacts_dir)

        outcomes.append(outcome)
        if callable(progress):
            progress(index + 1, seeds, outcome)

    campaign_span.incr("cases", len(outcomes)).incr(
        "disagreements",
        sum(
            1
            for o in outcomes
            if o.classification.status is AgreementStatus.DISAGREED
        ),
    )
    campaign_span.finish()
    return CampaignReport(
        profile=profile.name,
        seeds=seeds,
        base_seed=base_seed,
        fault=fault_name,
        outcomes=outcomes,
        totals=totals,
        elapsed=time.perf_counter() - started,
        workers=report.workers,
    )
