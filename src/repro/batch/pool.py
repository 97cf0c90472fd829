"""The batch runner: cache-aware fan-out over a worker pool.

:func:`run_batch` takes a list of self-contained
:class:`~repro.batch.jobs.AnalysisJob` specs and

1. consults the persistent :class:`~repro.batch.cache.VerdictCache`
   (when given) and serves hits without running anything;
2. dedupes identical jobs *within* the batch by cache key: the first
   occurrence executes, every duplicate is served from its result
   (marked ``deduped``) -- the in-process seed of the request
   coalescing :mod:`repro.serve` does across clients;
3. fans the remaining misses across a process pool (``workers``
   processes, default ``os.cpu_count()``; ``workers=1`` runs inline
   with no pool overhead);
4. folds the per-job :class:`~repro.engine.stats.EngineStats`
   snapshots -- workers serialize them as dicts -- into one aggregate
   with :func:`fold_stats`, the rule every composite verdict reports by;
5. writes freshly computed results back to the cache.

Crash safety: a worker that *raises* is already contained inside
:func:`~repro.batch.jobs.execute_job` (any exception becomes a
``verdict="error"`` result), and a worker that *dies* -- SIGKILL, OOM
kill, interpreter abort -- breaks the shared
:class:`~concurrent.futures.ProcessPoolExecutor` without identifying
the killer, so the runner salvages: every job lost with the pool is
re-run alone in a fresh single-worker pool.  Innocent casualties
complete on the retry; a job that also kills its private pool is
definitively the killer and is reported as an ``error`` result.  Either
way :func:`run_batch` returns a complete :class:`BatchReport`, never a
traceback.

Determinism: jobs embed all of their own seeds and options, workers
share no mutable state, and results are reported in input order -- so
``workers=1`` and ``workers=N`` produce identical verdict lists (pinned
by ``tests/test_batch.py``).  Only JSON-typed dicts cross the process
boundary, which keeps the pool working under both ``fork`` and
``spawn`` start methods.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis.schedulability import Verdict
from repro.engine.stats import EngineStats
from repro.errors import BatchError, ReproError
from repro.batch.cache import VerdictCache, cache_key, resolve_cache
from repro.batch.jobs import AnalysisJob, JobResult, execute_job

#: Progress callback: ``(done, total, result)`` after every job.
ProgressFn = Callable[[int, int, JobResult], None]

#: The ``error`` text of a job whose worker died (SIGKILL/OOM) in both
#: the shared pool and its private salvage pool.
WORKER_DIED = (
    "worker process died while executing this job (hard crash: "
    "SIGKILL, out-of-memory kill or interpreter abort); the job also "
    "killed its private salvage worker and was abandoned"
)


def resolve_workers(workers: Optional[int]) -> int:
    """Default the worker count to the machine's core count."""
    if workers is None:
        return os.cpu_count() or 1
    if workers < 1:
        raise BatchError(f"need at least one worker, got {workers}")
    return workers


def _execute_payload(data: Dict) -> Dict:
    """Pool target: dict in, dict out (must stay module-level so it
    pickles under the ``spawn`` start method).

    When the parent is tracing, the payload carries a ``_trace_path``:
    the worker then records its own spans locally (span ids prefixed
    with the worker id, so a later merge cannot collide) and writes
    them as JSONL for the parent to fold in after the pool drains --
    tracing never adds cross-process coordination to the hot path.
    """
    trace_path = data.pop("_trace_path", None)
    try:
        if trace_path is None:
            return execute_job(AnalysisJob.from_dict(data)).to_dict()

        from repro.obs.tracer import Tracer, activate

        tracer = Tracer(worker=f"w{os.getpid()}")
        with activate(tracer):
            result = execute_job(AnalysisJob.from_dict(data)).to_dict()
        tracer.write_jsonl(trace_path)
        return result
    except Exception as exc:
        # execute_job already captures everything; this guards the thin
        # shell around it (payload deserialization, trace writing) so a
        # worker never raises back through the pool.
        return JobResult(
            job_id=data.get("job_id", "?"),
            kind=data.get("kind", "analysis"),
            verdict="error",
            error=f"worker shell failure: {type(exc).__name__}: {exc}",
        ).to_dict()


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _run_pool(
    jobs: Sequence[AnalysisJob],
    pending: List[int],
    payloads: Dict[int, Dict],
    n_workers: int,
    finish: Callable[[int, JobResult], None],
) -> None:
    """Fan ``pending`` jobs across a process pool, surviving worker
    death.

    A hard worker death (SIGKILL, OOM kill) breaks the whole
    :class:`ProcessPoolExecutor`: every unfinished future raises
    :class:`BrokenExecutor` and nothing says which job was the killer.
    Futures that completed *before* the break keep their results, so
    only the genuinely lost jobs enter the salvage pass, where each
    re-runs alone in a fresh single-worker pool: innocents complete,
    and a job that breaks its private pool too is reported as an
    ``error`` result (:data:`WORKER_DIED`).
    """
    context = _pool_context()
    lost: List[int] = []
    with ProcessPoolExecutor(
        max_workers=min(n_workers, len(pending)), mp_context=context
    ) as executor:
        futures = {
            index: executor.submit(_execute_payload, payloads[index])
            for index in pending
        }
        for index in pending:
            try:
                data = futures[index].result()
            except BrokenExecutor:
                lost.append(index)
            except Exception as exc:
                # _execute_payload never raises; this covers transport
                # failures (a payload that cannot pickle, ...).
                finish(
                    index,
                    JobResult.failed(
                        jobs[index],
                        f"pool transport failure: {type(exc).__name__}: {exc}",
                    ),
                )
            else:
                finish(index, JobResult.from_dict(data))
    for index in lost:
        try:
            with ProcessPoolExecutor(
                max_workers=1, mp_context=context
            ) as salvage:
                data = salvage.submit(
                    _execute_payload, dict(payloads[index])
                ).result()
        except BrokenExecutor:
            finish(index, JobResult.failed(jobs[index], WORKER_DIED))
        else:
            finish(index, JobResult.from_dict(data))


@dataclasses.dataclass
class JobOutcome:
    """One child verdict of a fan-out -- a ``mode`` of an all-modes run
    or an ``island`` of a composition -- as a thin view of the batch
    :class:`~repro.batch.jobs.JobResult` that produced it.  A job that
    ran in this process keeps its live result, so ``scenario`` and
    ``decided_by`` are set; a pooled or cached one carries only the
    worker's formatted report in ``rendered``.  A job that failed keeps
    its ``error`` and reads UNKNOWN."""

    verdict: Verdict
    num_states: int = 0
    elapsed: float = 0.0
    scenario: Any = None
    decided_by: Optional[str] = None
    stats: Optional[EngineStats] = None
    cached: bool = False
    rendered: Optional[str] = None
    error: Optional[str] = None
    mode: Optional[str] = None
    island: Any = None

    @classmethod
    def from_job(cls, result: JobResult, **child: Any) -> "JobOutcome":
        """The outcome of ``result``; ``child`` names the mode or island."""
        return cls(
            verdict=Verdict(result.verdict)
            if result.verdict in Verdict._value2member_map_
            else Verdict.UNKNOWN,
            num_states=result.states,
            elapsed=result.elapsed,
            scenario=getattr(result.analysis, "scenario", None),
            decided_by=getattr(result.analysis, "decided_by", None),
            stats=result.stats and EngineStats.from_dict(result.stats),
            cached=result.cached,
            rendered=result.rendered,
            error=result.error,
            **child,
        )

    def __repr__(self) -> str:
        child = self.mode if self.island is None else self.island.label
        extra = " cached" if self.cached else ""
        return f"JobOutcome({child!r}, {self.verdict.value}{extra})"


def fold_stats(
    children,
    *,
    misses: Optional[int] = None,
    strategy: str = "aggregate",
    wall_elapsed=None,
) -> EngineStats:
    """The engine stats of a verdict made of child verdicts (a batch, a
    composition's islands, a model's modes): a child that ran adds its
    stats (an :class:`EngineStats` or its dict), a verdict-cache hit
    adds one ``batch.verdict_cache_hits`` and none of the work stored
    with it, and an in-batch duplicate adds nothing.  ``misses`` is the
    verdict cache's miss count for the fan-out that ran the children
    (None when it ran without a cache)."""
    children = [c for c in children if not getattr(c, "deduped", False)]
    ran = [c.stats for c in children if not c.cached]
    total = EngineStats.aggregate(
        (EngineStats.from_dict(s) if isinstance(s, dict) else s for s in ran),
        strategy=strategy,
        wall_elapsed=wall_elapsed,
    )
    hits = sum(c.cached for c in children)
    if hits:
        total.counters["batch.verdict_cache_hits"] = hits
    if misses is not None:
        total.counters["batch.verdict_cache_misses"] = misses
    return total


class BatchReport:
    """Everything one batch run produced, in input order."""

    def __init__(
        self,
        *,
        results: List[JobResult],
        workers: int,
        elapsed: float,
        stats: EngineStats,
        cache_dir: Optional[str] = None,
    ) -> None:
        self.results = results
        self.workers = workers
        self.elapsed = elapsed
        #: aggregate of every executed job's EngineStats, with
        #: verdict-cache hit/miss counters folded in
        self.stats = stats
        self.cache_dir = cache_dir

    @property
    def cache_hits(self) -> int:
        return self.stats.counters.get("batch.verdict_cache_hits", 0)

    @property
    def cache_misses(self) -> int:
        return self.stats.counters.get("batch.verdict_cache_misses", 0)

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for result in self.results:
            counts[result.verdict] = counts.get(result.verdict, 0) + 1
        return counts

    def exit_code(self) -> int:
        """The CLI exit-code contract over a whole batch: the worst
        individual outcome (error 2 > unschedulable 1 > unknown 3 >
        schedulable 0, with "worst" meaning decisiveness, not the
        numeric value)."""
        verdicts = {result.verdict for result in self.results}
        if "error" in verdicts:
            return 2
        if "unschedulable" in verdicts:
            return 1
        if "unknown" in verdicts:
            return 3
        return 0

    def format(self, *, show_stats: bool = False) -> str:
        width = max([len(r.job_id) for r in self.results] + [8])
        lines = [
            f"batch: {len(self.results)} job(s), {self.workers} worker(s), "
            f"{self.elapsed:.2f}s wall clock"
        ]
        for result in self.results:
            mark = (
                " (cached)"
                if result.cached
                else " (deduped)" if result.deduped else ""
            )
            detail = (
                f"error: {result.error}"
                if result.error
                else f"{result.states} states, {result.elapsed:.3f}s"
            )
            lines.append(
                f"  {result.job_id:<{width}}  "
                f"{result.verdict:<14} {detail}{mark}"
            )
        counts = self.counts()
        lines.append(
            "verdicts: "
            + ", ".join(f"{counts[v]} {v}" for v in sorted(counts))
        )
        if self.cache_hits or self.cache_misses:
            lines.append(
                f"verdict cache: {self.cache_hits} hits / "
                f"{self.cache_misses} misses"
                + (f" ({self.cache_dir})" if self.cache_dir else "")
            )
        if show_stats:
            lines.append("engine totals:")
            for line in self.stats.format().splitlines():
                lines.append(f"  {line}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"BatchReport(jobs={len(self.results)}, "
            f"workers={self.workers}, counts={self.counts()})"
        )


def run_batch(
    jobs: Sequence[AnalysisJob],
    *,
    workers: Optional[int] = None,
    cache=None,
    progress: Optional[ProgressFn] = None,
) -> BatchReport:
    """Run every job, in parallel, consulting the verdict cache.

    ``cache`` accepts a :class:`VerdictCache`, a directory path, True
    (the default ``artifacts/cache/`` directory) or None (disabled).
    Results come back in input order regardless of completion order.
    """
    from repro.obs.tracer import current_tracer

    store: Optional[VerdictCache] = resolve_cache(cache)
    n_workers = resolve_workers(workers)
    tracer = current_tracer()
    batch_span = tracer.span(
        "batch.run", jobs=len(jobs), workers=n_workers
    )
    started = time.perf_counter()
    # Counter baseline, so a shared cache instance reports per-run deltas.
    misses0 = store.misses if store is not None else 0

    results: List[Optional[JobResult]] = [None] * len(jobs)
    keys: List[Optional[str]] = [None] * len(jobs)
    primary_of: Dict[str, int] = {}
    duplicates: Dict[int, List[int]] = {}
    pending: List[int] = []
    done = 0

    def record(index: int, result: JobResult) -> None:
        nonlocal done
        results[index] = result
        done += 1
        if progress is not None:
            progress(done, len(jobs), result)

    def dedupe_from(index: int, primary: JobResult) -> JobResult:
        dup = JobResult.from_dict(primary.to_dict())
        dup.job_id = jobs[index].job_id
        dup.cached = primary.cached
        dup.deduped = True
        return dup

    def finish(index: int, result: JobResult) -> None:
        if store is not None and keys[index] is not None and result.error is None:
            stored = result.to_dict()
            stored["cached"] = False
            store.put(keys[index], stored, job_id=result.job_id)
        record(index, result)
        for dup_index in duplicates.pop(index, ()):
            record(dup_index, dedupe_from(dup_index, result))

    for index, job in enumerate(jobs):
        try:
            key = cache_key(job)
        except ReproError:
            # Unkeyable (malformed) jobs still run individually, so the
            # batch can report them as error results instead of
            # aborting here.
            key = None
        keys[index] = key
        if key is not None:
            prior = primary_of.get(key)
            if prior is not None:
                # In-batch duplicate: ride the first occurrence instead
                # of executing (and caching) the same work twice.
                served = results[prior]
                if served is not None:
                    record(index, dedupe_from(index, served))
                else:
                    duplicates.setdefault(prior, []).append(index)
                continue
            primary_of[key] = index
        if store is not None and key is not None:
            stored = store.get(key)
            if stored is not None:
                hit = JobResult.from_dict(stored)
                hit.job_id = job.job_id  # entries carry no provenance
                hit.cached = True
                record(index, hit)
                continue
        pending.append(index)

    if len(pending) <= 1 or n_workers <= 1:
        # Inline path: jobs run in-process, so the parent tracer sees
        # their spans directly.
        for index in pending:
            finish(index, execute_job(jobs[index]))
    else:
        payloads = {index: jobs[index].to_dict() for index in pending}
        trace_dir: Optional[str] = None
        if tracer.enabled:
            import tempfile

            trace_dir = tempfile.mkdtemp(prefix="repro-batch-trace-")
            for position, index in enumerate(pending):
                payloads[index]["_trace_path"] = os.path.join(
                    trace_dir, f"job-{position}.jsonl"
                )
        try:
            _run_pool(jobs, pending, payloads, n_workers, finish)
        finally:
            if trace_dir is not None:
                import shutil

                # Fold every worker's local trace into the parent's,
                # tagged with the recording worker's id and re-rooted
                # under the open batch.run span.
                for name in sorted(os.listdir(trace_dir)):
                    try:
                        tracer.merge_file(os.path.join(trace_dir, name))
                    except (OSError, ValueError):
                        pass  # a crashed worker leaves no usable trace
                shutil.rmtree(trace_dir, ignore_errors=True)

    final = [result for result in results if result is not None]
    wall = time.perf_counter() - started
    # The aggregate keeps the additive per-job loop time in ``elapsed``
    # (a CPU-time sum once jobs ran in parallel) but takes its
    # ``wall_elapsed`` -- the states/s denominator -- from the pool's
    # own wall clock, measured right here.
    stats = fold_stats(
        final,
        misses=store.misses - misses0 if store is not None else None,
        wall_elapsed=wall,
    )
    report = BatchReport(
        results=final,
        workers=n_workers,
        elapsed=wall,
        stats=stats,
        cache_dir=store.directory if store is not None else None,
    )
    batch_span.set(
        cache_hits=report.cache_hits, cache_misses=report.cache_misses
    ).incr("states", stats.states)
    batch_span.finish()
    return report
