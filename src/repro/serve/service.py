"""The analysis service: queueing, coalescing, caching, crash recovery.

:class:`AnalysisService` is the protocol-free core of ``repro serve``:
it owns the bounded job queue, the shared :class:`~repro.batch.cache.
VerdictCache`, the in-flight coalescing map and the worker executor,
and it knows nothing about HTTP (that is :mod:`repro.serve.server`).
The split keeps every scheduling decision unit-testable without a
socket.

Lifecycle of one submitted :class:`~repro.batch.jobs.AnalysisJob`:

1. ``submit`` computes the verdict-cache key.  A model the pipeline
   cannot even key (syntax error, bad options) completes *immediately*
   with an ``error`` verdict -- malformed requests never occupy queue
   slots.
2. A cache hit completes immediately too, serving the stored verdict.
3. A miss whose key matches a queued or running request **coalesces**:
   the caller is handed the existing record and no second proof runs.
4. Otherwise the job enters the bounded queue.  A full queue raises
   :class:`~repro.errors.BackpressureError` (HTTP 429): the service
   sheds load at the door instead of accepting work it cannot start.

Worker coroutines pull records off the queue and run the actual proof
in an executor -- a ``ProcessPoolExecutor`` by default, so a job that
hard-kills its worker (OOM, SIGKILL, interpreter abort) cannot take the
server down.  A broken pool is rebuilt and the job retried once; a
second crash yields the :data:`~repro.batch.pool.WORKER_DIED` error
verdict, mirroring the batch pool's salvage semantics.  Every executed
job runs under a worker-local :class:`~repro.obs.Tracer` whose
``serve.job`` span (and nested pipeline spans) stream back to
subscribers as SSE events and replay to late subscribers.

Completed jobs are persisted as **repro bundles** under
``artifacts/serve/``: self-contained JSON with the exact job dict,
which ``repro batch run bundle.json`` (or ``AnalysisJob.from_file``)
replays verbatim.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from repro.batch.cache import VerdictCache, cache_key, resolve_cache
from repro.batch.jobs import AnalysisJob, JobResult, execute_job
from repro.batch.pool import WORKER_DIED
from repro.errors import BackpressureError, ReproError, ServeError

logger = logging.getLogger(__name__)

#: Default directory for replayable result bundles.
DEFAULT_ARTIFACTS_DIR = os.path.join("artifacts", "serve")

#: Verdict -> process exit code, the CLI contract verbatim.
EXIT_CODES = {
    "schedulable": 0,
    "unschedulable": 1,
    "error": 2,
    "unknown": 3,
}

#: How a request was satisfied (the ``disposition`` field of the
#: submit response): proven fresh, served from the persistent cache, or
#: coalesced onto an identical in-flight request.
DISPOSITIONS = ("queued", "cached", "coalesced", "invalid")

# The tracer's process-wide current slot means two jobs tracing in one
# process would interleave; thread-mode executors serialize here.
# Process-mode workers each own their interpreter, so the lock is free.
_TRACE_LOCK = threading.Lock()


def _run_serve_job(job_data: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """Executor entry point: run one job, return result + span records.

    Module-level (hence picklable) so it crosses the process boundary;
    everything in and out is plain JSON types.  ``execute_job`` already
    captures every exception as an ``error`` verdict, so the only way
    this function fails to return is the worker process dying.
    """
    from repro.obs.tracer import Tracer, activate

    job = AnalysisJob.from_dict(job_data)
    if not trace:
        return {"result": execute_job(job).to_dict(), "spans": []}
    with _TRACE_LOCK:
        tracer = Tracer(worker=f"w{os.getpid()}")
        with activate(tracer):
            with tracer.span(
                "serve.job", job_id=job.job_id, kind=job.kind
            ) as span:
                result = execute_job(job)
                span.set(verdict=result.verdict)
        return {
            "result": result.to_dict(),
            "spans": [s.to_dict() for s in tracer.spans],
        }


class JobRecord:
    """One accepted request: state, event history, live subscribers.

    All mutation happens on the event loop (worker coroutines and HTTP
    handlers alike), so no locking is needed; the executor only ever
    sees the job's dict form.
    """

    __slots__ = (
        "request_id",
        "job",
        "key",
        "disposition",
        "state",
        "result",
        "events",
        "subscribers",
        "done",
        "coalesced",
        "bundle_path",
    )

    def __init__(
        self,
        request_id: str,
        job: AnalysisJob,
        key: Optional[str],
        disposition: str,
    ) -> None:
        self.request_id = request_id
        self.job = job
        self.key = key
        self.disposition = disposition
        self.state = "queued"  # -> "running" -> "done"
        self.result: Optional[JobResult] = None
        #: full event history, replayed to late SSE subscribers
        self.events: List[Tuple[str, Dict[str, Any]]] = []
        self.subscribers: List[asyncio.Queue] = []
        self.done = asyncio.Event()
        #: how many extra requests coalesced onto this one
        self.coalesced = 0
        self.bundle_path: Optional[str] = None

    def exit_code(self) -> int:
        """The CLI exit code this record's verdict maps to (2 while
        still pending, matching "no answer yet is not an answer")."""
        if self.result is None:
            return EXIT_CODES["error"]
        return EXIT_CODES.get(self.result.verdict, EXIT_CODES["error"])

    def summary(self) -> Dict[str, Any]:
        """The JSON shape of ``GET /v1/jobs/<id>``."""
        body: Dict[str, Any] = {
            "request_id": self.request_id,
            "job_id": self.job.job_id,
            "kind": self.job.kind,
            "cache_key": self.key,
            "disposition": self.disposition,
            "state": self.state,
            "coalesced": self.coalesced,
        }
        if self.result is not None:
            body["verdict"] = self.result.verdict
            body["cached"] = self.result.cached
            body["exit_code"] = self.exit_code()
            if self.result.error:
                body["error"] = self.result.error
        return body

    def __repr__(self) -> str:
        return (
            f"JobRecord({self.request_id!r}, state={self.state}, "
            f"disposition={self.disposition})"
        )


class AnalysisService:
    """The queueing/caching/coalescing core behind ``repro serve``.

    Args:
        cache: a cache spec (see :func:`~repro.batch.cache.
            resolve_cache`); the resolved store is shared by every
            request and reported by :meth:`stats`.
        workers: executor width == number of concurrent proofs.
        backlog: bounded queue depth; submissions beyond it raise
            :class:`BackpressureError`.
        executor: ``"process"`` (crash-isolated, the default) or
            ``"thread"`` (cheaper startup; used by the tests -- a
            thread cannot be SIGKILLed, so no crash isolation).
        artifacts_dir: where replayable result bundles land (None
            disables bundles).
        trace: record per-job spans and stream them as events.
    """

    def __init__(
        self,
        *,
        cache: Any = True,
        workers: int = 2,
        backlog: int = 16,
        executor: str = "process",
        artifacts_dir: Optional[str] = DEFAULT_ARTIFACTS_DIR,
        trace: bool = True,
    ) -> None:
        if executor not in ("process", "thread"):
            raise ServeError(
                f"unknown executor mode {executor!r}; "
                "choose 'process' or 'thread'"
            )
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers}")
        if backlog < 1:
            raise ServeError(f"backlog must be >= 1, got {backlog}")
        self.cache: Optional[VerdictCache] = resolve_cache(cache)
        self.workers = workers
        self.backlog = backlog
        self.executor_mode = executor
        self.artifacts_dir = artifacts_dir
        self.trace = trace
        self.records: Dict[str, JobRecord] = {}
        #: cache key -> queued/running record, the coalescing map
        self.inflight: Dict[str, JobRecord] = {}
        self.counters: Dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "rejected": 0,
            "invalid": 0,
            "worker_crashes": 0,
        }
        self._queue: Optional[asyncio.Queue] = None
        self._executor: Any = None
        self._tasks: List[asyncio.Task] = []
        self._next_id = 1

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Create the queue and executor, spawn the worker coroutines."""
        self._queue = asyncio.Queue(maxsize=self.backlog)
        self._executor = self._make_executor()
        self._tasks = [
            asyncio.create_task(self._worker_loop(), name=f"serve-worker-{i}")
            for i in range(self.workers)
        ]

    async def stop(self) -> None:
        """Cancel the workers and tear the executor down."""
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks = []
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def _make_executor(self) -> Any:
        if self.executor_mode == "thread":
            return ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="serve"
            )
        from repro.batch.pool import _pool_context

        return ProcessPoolExecutor(
            max_workers=self.workers, mp_context=_pool_context()
        )

    # -- submission ------------------------------------------------------

    def submit(self, job: AnalysisJob) -> Tuple[JobRecord, str]:
        """Accept ``job``; returns ``(record, disposition)``.

        The disposition tells the caller what happened to *this*
        submission: ``cached`` and ``invalid`` are already done,
        ``coalesced`` shares an earlier in-flight record (whose
        request id the caller adopts), ``queued`` entered the backlog.
        Raises :class:`BackpressureError` when the backlog is full.
        """
        if self._queue is None:
            raise ServeError("service not started")
        self.counters["submitted"] += 1
        try:
            key: Optional[str] = cache_key(job)
        except ReproError as exc:
            # Unkeyable == unanalyzable: complete on the spot, off-queue.
            self.counters["invalid"] += 1
            record = self._new_record(job, None, "invalid")
            self._publish(record, "queued", {"state": "queued"})
            self._finish(record, JobResult.failed(job, str(exc)))
            return record, "invalid"
        if self.cache is not None:
            stored = self.cache.get(key)
            if stored is not None:
                self.counters["cache_hits"] += 1
                record = self._new_record(job, key, "cached")
                self._publish(record, "queued", {"state": "queued"})
                result = JobResult.from_dict(stored)
                result.job_id = job.job_id
                result.cached = True
                self._finish(record, result)
                return record, "cached"
        primary = self.inflight.get(key)
        if primary is not None:
            self.counters["coalesced"] += 1
            primary.coalesced += 1
            return primary, "coalesced"
        record = self._new_record(job, key, "queued")
        try:
            self._queue.put_nowait(record)
        except asyncio.QueueFull:
            self.counters["rejected"] += 1
            del self.records[record.request_id]
            raise BackpressureError(
                f"job queue full ({self.backlog} pending); retry later"
            ) from None
        self.inflight[key] = record
        self._publish(
            record,
            "queued",
            {"state": "queued", "position": self._queue.qsize()},
        )
        return record, "queued"

    def submit_request(self, body: Dict[str, Any]) -> Tuple[JobRecord, str]:
        """Build a job from a decoded ``POST /v1/analyze`` body and
        submit it.  Raises :class:`ServeError` on a malformed request
        (the HTTP layer maps it to 400)."""
        return self.submit(job_from_request(body))

    def get(self, request_id: str) -> Optional[JobRecord]:
        return self.records.get(request_id)

    def _new_record(
        self, job: AnalysisJob, key: Optional[str], disposition: str
    ) -> JobRecord:
        request_id = f"r{self._next_id:06d}"
        self._next_id += 1
        record = JobRecord(request_id, job, key, disposition)
        self.records[request_id] = record
        return record

    # -- event fan-out ---------------------------------------------------

    def subscribe(self, record: JobRecord) -> asyncio.Queue:
        """An event queue pre-loaded with the record's full history;
        live events follow.  The history always ends with ``result``
        for a done record, so consumers terminate naturally."""
        queue: asyncio.Queue = asyncio.Queue()
        for event, data in record.events:
            queue.put_nowait((event, data))
        if not record.done.is_set():
            record.subscribers.append(queue)
        return queue

    def unsubscribe(self, record: JobRecord, queue: asyncio.Queue) -> None:
        try:
            record.subscribers.remove(queue)
        except ValueError:
            pass

    def _publish(
        self, record: JobRecord, event: str, data: Dict[str, Any]
    ) -> None:
        data = {"request_id": record.request_id, **data}
        record.events.append((event, data))
        for queue in record.subscribers:
            queue.put_nowait((event, data))

    # -- execution -------------------------------------------------------

    async def _worker_loop(self) -> None:
        assert self._queue is not None
        while True:
            record = await self._queue.get()
            try:
                await self._run_record(record)
            except Exception:  # never let a bug kill the worker loop
                logger.exception(
                    "serve worker failed on %s", record.request_id
                )
                if record.result is None:
                    self._finish(
                        record,
                        JobResult.failed(
                            record.job,
                            "internal service error (see server log)",
                        ),
                    )
            finally:
                self._queue.task_done()

    async def _run_record(self, record: JobRecord) -> None:
        loop = asyncio.get_running_loop()
        record.state = "running"
        payload: Optional[Dict[str, Any]] = None
        for attempt in (1, 2):
            self._publish(
                record, "running", {"state": "running", "attempt": attempt}
            )
            executor = self._executor
            try:
                payload = await loop.run_in_executor(
                    executor,
                    _run_serve_job,
                    record.job.to_dict(),
                    self.trace,
                )
                break
            except BrokenExecutor:
                # The worker process died mid-job.  Rebuild the pool
                # (identity-guarded: concurrent victims rebuild once)
                # and retry this job exactly once -- it may have been
                # an innocent sharing a pool with the killer.
                self.counters["worker_crashes"] += 1
                logger.warning(
                    "worker pool died while executing %s (attempt %d)",
                    record.request_id,
                    attempt,
                )
                if self._executor is executor:
                    self._executor = self._make_executor()
                    executor.shutdown(wait=False)
        if payload is None:
            result = JobResult.failed(record.job, WORKER_DIED)
        else:
            result = JobResult.from_dict(payload["result"])
            for span in payload.get("spans", ()):
                self._publish(record, "span", dict(span))
            if (
                self.cache is not None
                and record.key is not None
                and result.error is None
            ):
                self.cache.put(
                    record.key, result.to_dict(), job_id=record.job.job_id
                )
        self._finish(record, result)

    def _finish(self, record: JobRecord, result: JobResult) -> None:
        record.result = result
        record.state = "done"
        if record.key is not None and self.inflight.get(record.key) is record:
            del self.inflight[record.key]
        self.counters["completed"] += 1
        if self.artifacts_dir:
            record.bundle_path = self._write_bundle(record)
        data: Dict[str, Any] = {
            "state": "done",
            "verdict": result.verdict,
            "cached": result.cached,
            "exit_code": record.exit_code(),
        }
        if result.error:
            data["error"] = result.error
        self._publish(record, "result", data)
        record.subscribers = []
        record.done.set()

    # -- bundles ---------------------------------------------------------

    def _write_bundle(self, record: JobRecord) -> Optional[str]:
        """Persist a replayable bundle; like the verdict cache, a
        broken artifacts directory degrades to a warning, never an
        error response."""
        assert record.result is not None
        bundle = {
            # 2: the job is one ``analysis`` request (AnalysisJob layout)
            "schema_version": 2,
            "request_id": record.request_id,
            "cache_key": record.key,
            "disposition": record.disposition,
            "job": record.job.to_dict(),
            "result": record.result.to_dict(),
        }
        path = os.path.join(
            self.artifacts_dir, f"{record.request_id}.json"
        )
        try:
            os.makedirs(self.artifacts_dir, exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(bundle, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            logger.warning("bundle write failed for %s: %s", path, exc)
            return None
        return path

    # -- introspection ---------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The ``GET /v1/stats`` body: service counters, queue depth,
        cache metrics."""
        body: Dict[str, Any] = {
            "counters": dict(self.counters),
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "backlog": self.backlog,
            "workers": self.workers,
            "executor": self.executor_mode,
            "records": len(self.records),
            "inflight": len(self.inflight),
        }
        body["cache"] = self.cache.stats() if self.cache else None
        return body


def job_from_request(body: Dict[str, Any]) -> AnalysisJob:
    """Build an :class:`AnalysisJob` from a ``POST /v1/analyze`` body.

    Accepted shapes::

        {"source": "<AADL text>", "root": "...", "job_id": "...",
         "portfolio": true, "options": {"max_states": ..., ...}}

        {"job": {<AnalysisJob.to_dict() layout>}}   # bundle replay

    The first shape becomes an :class:`~repro.analysis.request.
    AnalysisRequest` (``quantum_us`` in microseconds; ``tiers`` counts
    only with ``portfolio``).  Raises :class:`ServeError` on anything
    else; the HTTP layer turns that into a 400.
    """
    from repro.analysis.request import DEFAULT_TIERS, AnalysisRequest

    if not isinstance(body, dict):
        raise ServeError("request body must be a JSON object")
    if "job" in body:
        if not isinstance(body["job"], dict):
            raise ServeError("'job' must be an object (AnalysisJob layout)")
        try:
            return AnalysisJob.from_dict(body["job"])
        except ReproError as exc:
            raise ServeError(f"bad job object: {exc}") from exc
    source = body.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ServeError(
            "request needs a non-empty 'source' (AADL text) or a 'job'"
        )
    options = body.get("options", {})
    if not isinstance(options, dict):
        raise ServeError("'options' must be an object")
    known = {"max_states", "quantum_us", "tiers", "reduce", "batch_fault"}
    unknown = sorted(set(options) - known)
    if unknown:
        raise ServeError(
            f"unknown options {unknown}; choose from {sorted(known)}"
        )
    job_id = body.get("job_id")
    if job_id is not None and not isinstance(job_id, str):
        raise ServeError(f"job_id must be a string, got {job_id!r}")
    quantum_us = options.get("quantum_us")
    try:
        request = AnalysisRequest(
            source=source,
            root=body.get("root"),
            quantum_ps=(
                quantum_us * 1_000_000
                if type(quantum_us) is int
                else quantum_us
            ),
            max_states=options.get("max_states", 1_000_000),
            tiers=(
                options.get("tiers") or DEFAULT_TIERS
                if body.get("portfolio")
                else None
            ),
            reduce=options.get("reduce"),
        )
    except ReproError as exc:
        raise ServeError(f"bad request: {exc}") from exc
    job = AnalysisJob.from_request(request, job_id=job_id)
    if options.get("batch_fault"):
        job.options["batch_fault"] = options["batch_fault"]
    return job
