"""The compositional driver: partition, fan out, combine.

:func:`analyze_compositionally` is the ``analyze --compose`` entry
point.  It partitions the instance into processor islands
(:mod:`~repro.compose.coupling`), ships one batch job per island -- an
:class:`~repro.analysis.request.AnalysisRequest` carrying the island's
members, which the worker hands to :func:`analyze_island` -- through the
:mod:`repro.batch` pool, so islands analyze in parallel and land in the
persistent verdict cache under per-island keys, and folds the island
verdicts into one answer (:mod:`~repro.compose.combiner`).  When
decomposition is unsound or pointless it runs the ordinary monolithic
pipeline instead and says why.

Every island is analyzed with the *full* model's natural quantum, not
its own: an island's GCD can be coarser than the whole model's, and a
coarser quantum changes preemption points.  Pinning the quantum makes
island-by-island exploration semantically a projection of the
monolithic one, which is what the request oracle relation
(:mod:`repro.oracle.request`) checks end to end.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.aadl.instance import SystemInstance
from repro.analysis.request import AnalysisRequest, IslandSpec
from repro.analysis.schedulability import AnalysisResult
from repro.batch.jobs import AnalysisJob
from repro.batch.pool import JobOutcome, ProgressFn, run_batch
from repro.compose.combiner import CompositionResult, combine_outcomes
from repro.compose.coupling import Partition, partition_instance
from repro.translate.quantum import TimingQuantizer

def plan(
    instance: SystemInstance, *, steady_mode: bool = False
) -> Partition:
    """Partition without analyzing (the ``repro compose plan`` command)."""
    from repro.obs.tracer import current_tracer

    with current_tracer().span("compose.partition") as span:
        partition = partition_instance(instance, steady_mode=steady_mode)
        span.set(
            decomposable=partition.decomposable,
            islands=len(partition.islands),
            edges=len(partition.graph.edges) if partition.graph else 0,
            fallback=partition.fallback_reason,
        )
    return partition


def analyze_compositionally(
    instance: SystemInstance,
    request: AnalysisRequest,
    *,
    workers: Optional[int] = None,
    cache=None,
    progress: Optional[ProgressFn] = None,
) -> CompositionResult:
    """Analyze ``instance`` -- ``request``'s system, instantiated in its
    pinned mode if any -- island by island when that is sound, and as
    one system (the planner's :func:`~repro.analysis.request.
    analyze_configuration` on the same instance, with the reason
    recorded on the result) when it is not.

    Each island is one :func:`repro.batch.run_batch` job, forwarded
    ``workers`` / ``cache`` / ``progress``, whose request is
    ``replace(request, decomposition=None, tiers=None, island=...,
    quantum_ps=...)``: the reduction spec and the pinned mode ride in
    every island's cache key, and the island re-instantiates the same
    mode in its worker.  A pinned mode waives the multi-modal
    decomposition bar -- the verdict claimed is for that mode only.

    ``request.tiers`` screens every island through the analytic tiers
    *before* the fan-out: islands the tiers decide (microseconds,
    in-process) never spawn an exploration job, and only the undecided
    remainder ships to the pool -- as ordinary island jobs, so their
    cache entries are shared with non-portfolio compose runs.  The
    fallback keeps the tiers, and routes a partitioned instance through
    them even without, so that it escalates to the hierarchical
    analysis rather than the ACSR translation.
    """
    from repro.analysis.request import DEFAULT_TIERS, analyze_configuration
    from repro.obs.tracer import current_tracer

    tracer = current_tracer()
    steady = request.mode is not None
    partition = plan(instance, steady_mode=steady)

    if not partition.decomposable:
        tiers = request.tiers
        if tiers is None and instance.partitioned():
            tiers = DEFAULT_TIERS
        monolithic = analyze_configuration(
            dataclasses.replace(request, decomposition=None, tiers=tiers),
            instance,
        )
        return CompositionResult(
            partition=partition,
            mode="monolithic-fallback",
            verdict=monolithic.verdict,
            monolithic=monolithic,
            fallback_reason=partition.fallback_reason,
        )

    # Pin every island to the full model's quantum (see module docstring).
    pinned_quantizer = (
        TimingQuantizer(request.quantum)
        if request.quantum_ps is not None
        else TimingQuantizer.natural(instance)
    )

    outcomes: dict = {}
    if request.tiers is not None:
        outcomes = _screen_islands(
            instance, partition, pinned_quantizer, steady_mode=steady
        )
    pending_islands = [
        island for island in partition.islands if island.label not in outcomes
    ]
    jobs = [
        AnalysisJob.from_request(
            dataclasses.replace(
                request,
                decomposition=None,
                tiers=None,
                island=IslandSpec(
                    island.label,
                    tuple(t.qualified_name for t in island.threads),
                    tuple(p.qualified_name for p in island.processors),
                ),
                quantum_ps=pinned_quantizer.quantum.picoseconds,
            ),
            job_id=island.label,
            model=instance.declarative,
        )
        for island in pending_islands
    ]
    misses = None
    if jobs:
        report = run_batch(
            jobs, workers=workers, cache=cache, progress=progress
        )
        for island, result in zip(pending_islands, report.results):
            outcomes[island.label] = JobOutcome.from_job(result, island=island)
        misses = report.stats.counters.get("batch.verdict_cache_misses")

    with tracer.span(
        "compose.combine",
        islands=len(partition.islands),
        analytic=len(partition.islands) - len(jobs),
    ) as span:
        combined = combine_outcomes(
            partition,
            [outcomes[island.label] for island in partition.islands],
            cache_misses=misses,
        )
        span.set(verdict=combined.verdict.value).incr(
            "states", combined.num_states
        )
    return combined


def analyze_island(
    instance: SystemInstance, request: AnalysisRequest
) -> AnalysisResult:
    """Analyze the slice of ``instance`` holding ``request.island``'s
    members (qualified names) under the request's pinned quantum -- the
    full model's -- by the portfolio's escalation route
    (:func:`repro.portfolio.escalate`): the hierarchical (BDR) analysis
    for a partitioned slice, exploration for any other."""
    from repro.aadl import slice_instance
    from repro.errors import ComposeError
    from repro.obs.tracer import current_tracer
    from repro.portfolio import escalate

    island = request.island
    wanted = set(island.threads) | set(island.processors)
    keep = [
        inst for inst in instance.descendants()
        if inst.qualified_name in wanted
    ]
    missing = sorted(wanted - {inst.qualified_name for inst in keep})
    if missing:
        raise ComposeError(
            f"island {island.label!r} names components absent from "
            f"the instance: {', '.join(missing)}"
        )
    sliced = slice_instance(instance, keep, label=island.label)
    with current_tracer().span("compose.island", island=island.label) as span:
        result = escalate(
            sliced,
            quantum=request.quantum,
            max_states=request.max_states,
            reduction=request.reduce,
            steady_mode=request.mode is not None,
        )
        span.set(verdict=result.verdict.value).incr(
            "states", result.num_states
        )
    return result


def _screen_islands(
    instance: SystemInstance,
    partition: Partition,
    quantizer: TimingQuantizer,
    *,
    steady_mode: bool = False,
) -> dict:
    """Try the analytic tiers on each island slice, in-process.

    Returns ``{label: JobOutcome}`` for the islands a tier decided;
    the rest escalate to the pool.  Slicing plus the tier chain costs
    microseconds per island, far below the cost of spawning a job.
    """
    from repro.aadl import slice_instance
    from repro.portfolio import default_tiers, screen

    tiers = default_tiers()
    decided: dict = {}
    for island in partition.islands:
        keep = list(island.threads) + list(island.processors)
        sliced = slice_instance(instance, keep, label=island.label)
        result, _, _ = screen(
            sliced, tiers, quantizer=quantizer, steady_mode=steady_mode
        )
        if result is None:
            continue
        decided[island.label] = JobOutcome(
            verdict=result.verdict,
            elapsed=result.elapsed,
            stats=result.stats,
            rendered=result.format(),
            island=island,
        )
    return decided
