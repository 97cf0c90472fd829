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

from typing import Callable, Optional, Union

from repro.aadl.components import DeclarativeModel
from repro.aadl.instance import SystemInstance, instantiate
from repro.aadl.printer import format_model
from repro.aadl.properties import TimeValue
from repro.analysis.request import AnalysisRequest, IslandSpec
from repro.analysis.schedulability import (
    AnalysisResult,
    Verdict,
    analyze_model,
)
from repro.batch.jobs import AnalysisJob, JobResult
from repro.batch.pool import run_batch
from repro.compose.combiner import (
    CompositionResult,
    IslandOutcome,
    combine_outcomes,
)
from repro.compose.coupling import Partition, partition_instance
from repro.engine.reduce import DEFAULT_REDUCTION, reduction_token
from repro.engine.stats import EngineStats
from repro.translate.quantum import TimingQuantizer

ProgressFn = Callable[[int, int, JobResult], None]


def _resolve(
    model: Union[SystemInstance, DeclarativeModel],
    root_impl: Optional[str],
) -> SystemInstance:
    if isinstance(model, DeclarativeModel):
        if root_impl is None:
            raise ValueError(
                "root_impl is required when passing a declarative model"
            )
        return instantiate(model, root_impl)
    return model


def plan(
    model: Union[SystemInstance, DeclarativeModel],
    *,
    root_impl: Optional[str] = None,
    steady_mode: bool = False,
) -> Partition:
    """Partition without analyzing (the ``repro compose plan`` command)."""
    from repro.obs.tracer import current_tracer

    instance = _resolve(model, root_impl)
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
    model: Union[SystemInstance, DeclarativeModel],
    *,
    root_impl: Optional[str] = None,
    mode: Optional[str] = None,
    quantum: Optional[TimeValue] = None,
    max_states: int = 1_000_000,
    workers: Optional[int] = None,
    cache=None,
    progress: Optional[ProgressFn] = None,
    portfolio: bool = False,
    reduction: Union[str, None] = DEFAULT_REDUCTION,
) -> CompositionResult:
    """Analyze ``model`` island by island when that is sound, falling
    back to :func:`~repro.analysis.analyze_model` (with the reason
    recorded on the result) when it is not.

    ``workers``/``cache``/``progress`` are forwarded to
    :func:`repro.batch.pool.run_batch`; each island is one batch job,
    so island verdicts cache independently.

    ``portfolio`` screens every island through the analytic tiers
    *before* the fan-out: islands the tiers decide (microseconds,
    in-process) never spawn an exploration job, and only the undecided
    remainder ships to the pool -- as ordinary island jobs, so their
    cache entries are shared with non-portfolio compose runs.  The
    monolithic fallback likewise routes through the portfolio.

    ``reduction`` (a ``"sym,por"``-style spec) is forwarded to every
    island job and to the monolithic fallback; the spec rides in each
    job's request, so reduced and unreduced runs never share verdict
    cache entries.

    ``mode`` pins a multi-modal root to one steady mode (requires a
    declarative ``model``): the multi-modal decomposition bar is
    waived -- the verdict claimed is for that mode only -- and every
    island job re-instantiates the same mode in its worker, with the
    mode name riding in each job's cache key.
    """
    from repro.obs.tracer import current_tracer

    tracer = current_tracer()
    reduce_token = reduction_token(reduction)
    steady = mode is not None
    if steady:
        if not isinstance(model, DeclarativeModel):
            raise ValueError(
                "mode= requires a declarative model (the pinned mode "
                "must be re-instantiable in the pool workers)"
            )
        if root_impl is None:
            raise ValueError(
                "root_impl is required when passing a declarative model"
            )
        impl = model.implementation(root_impl)
        instance = instantiate(
            model, root_impl, mode_overrides={impl.name: mode}
        )
    else:
        instance = _resolve(model, root_impl)
    partition = plan(instance, steady_mode=steady)

    if not partition.decomposable:
        if _is_partitioned(instance):
            # Exploration cannot express server supply; the portfolio
            # screens analytically and escalates to the hierarchical
            # (BDR) analysis instead of the ACSR translation.
            from repro.portfolio import analyze_portfolio

            monolithic = analyze_portfolio(
                instance,
                quantum=quantum,
                max_states=max_states,
                reduction=reduce_token,
                steady_mode=steady,
            )
        else:
            monolithic = analyze_model(
                instance,
                quantum=quantum,
                max_states=max_states,
                portfolio=portfolio,
                reduction=reduce_token,
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
        TimingQuantizer(quantum)
        if quantum is not None
        else TimingQuantizer.natural(instance)
    )
    quantum_ps = pinned_quantizer.quantum.picoseconds

    analytic: dict = {}
    pending_islands = list(partition.islands)
    if portfolio:
        analytic = _screen_islands(
            instance, partition, pinned_quantizer, steady_mode=steady
        )
        pending_islands = [
            island
            for island in partition.islands
            if island.label not in analytic
        ]

    model = instance.declarative
    source = format_model(model)
    root = instance.impl.name if instance.impl is not None else None
    jobs = [
        AnalysisJob.from_request(
            AnalysisRequest(
                source=source,
                root=root,
                mode=mode,
                quantum_ps=quantum_ps,
                max_states=max_states,
                reduce=reduce_token,
                island=IslandSpec(
                    island.label,
                    tuple(t.qualified_name for t in island.threads),
                    tuple(p.qualified_name for p in island.processors),
                ),
            ),
            job_id=island.label,
            model=model,
        )
        for island in pending_islands
    ]
    explored: dict = {}
    misses = None
    if jobs:
        report = run_batch(
            jobs, workers=workers, cache=cache, progress=progress
        )
        explored = {
            island.label: result
            for island, result in zip(pending_islands, report.results)
        }
        misses = report.stats.counters.get("batch.verdict_cache_misses")

    with tracer.span(
        "compose.combine",
        islands=len(partition.islands),
        analytic=len(analytic),
    ) as span:
        outcomes = []
        for island in partition.islands:
            if island.label in analytic:
                outcomes.append(analytic[island.label])
                continue
            result = explored[island.label]
            verdict = (
                Verdict(result.verdict)
                if result.verdict in Verdict._value2member_map_
                else Verdict.UNKNOWN
            )
            outcomes.append(
                IslandOutcome(
                    island=island,
                    verdict=verdict,
                    states=result.states,
                    elapsed=result.elapsed,
                    stats=result.stats and EngineStats.from_dict(result.stats),
                    rendered=result.rendered,
                    cached=result.cached,
                    error=result.error,
                )
            )
        combined = combine_outcomes(partition, outcomes, cache_misses=misses)
        span.set(verdict=combined.verdict.value).incr(
            "states", combined.num_states
        )
    return combined


def analyze_island(
    instance: SystemInstance,
    island: IslandSpec,
    *,
    quantum: Optional[TimeValue] = None,
    max_states: int = 1_000_000,
    reduction: Optional[str] = DEFAULT_REDUCTION,
    steady_mode: bool = False,
) -> AnalysisResult:
    """Analyze the slice of ``instance`` holding ``island``'s members
    (qualified names) under the full model's ``quantum``.  A
    partitioned slice goes to the hierarchical (BDR) analysis, since
    the ACSR translation has no server semantics; any other to
    exploration."""
    from repro.aadl import slice_instance
    from repro.errors import ComposeError
    from repro.obs.tracer import current_tracer

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
        if _is_partitioned(sliced):
            from repro.hier import analyze_hier

            result = analyze_hier(
                sliced,
                quantizer=(
                    TimingQuantizer(quantum) if quantum is not None else None
                ),
                steady_mode=steady_mode,
            )
        else:
            result = analyze_model(
                sliced,
                quantum=quantum,
                max_states=max_states,
                reduction=reduction,
            )
        span.set(verdict=result.verdict.value).incr(
            "states", result.num_states
        )
    return result


def _is_partitioned(instance: SystemInstance) -> bool:
    """True when any thread executes inside a virtual-processor
    partition rather than directly on its host."""
    return any(
        thread.bound_processor is not None
        and thread.bound_processor is not thread.host_processor
        for thread in instance.threads()
    )


def _screen_islands(
    instance: SystemInstance,
    partition: Partition,
    quantizer: TimingQuantizer,
    *,
    steady_mode: bool = False,
) -> dict:
    """Try the analytic tiers on each island slice, in-process.

    Returns ``{label: IslandOutcome}`` for the islands a tier decided;
    the rest escalate to the pool.  Slicing plus the tier chain costs
    microseconds per island, far below the cost of spawning a job.
    """
    from repro.aadl import slice_instance
    from repro.portfolio import PortfolioAnalyzer

    analyzer = PortfolioAnalyzer()
    decided: dict = {}
    for island in partition.islands:
        keep = list(island.threads) + list(island.processors)
        sliced = slice_instance(instance, keep, label=island.label)
        result = analyzer.try_analytic(
            sliced, quantizer=quantizer, steady_mode=steady_mode
        )
        if result is None:
            continue
        decided[island.label] = IslandOutcome(
            island=island,
            verdict=result.verdict,
            states=0,
            elapsed=result.elapsed,
            stats=result.stats,
            rendered=result.format(),
        )
    return decided
