"""Parallel batch analysis with a persistent verdict cache.

The paper's pipeline analyzes one AADL model at a time; everything
around it -- oracle campaigns, workload sweeps, benchmark suites --
runs *many* analyses whose verdicts are pure functions of (model,
options).  This subsystem makes that the first-class unit of work:

* :mod:`~repro.batch.jobs` -- :class:`AnalysisJob`, a self-contained
  picklable job (an :class:`~repro.analysis.request.AnalysisRequest` or
  an oracle case), and
  :class:`JobResult`, its JSON-typed outcome;
* :mod:`~repro.batch.cache` -- :class:`VerdictCache`, the persistent
  content-addressed verdict store under ``artifacts/cache/`` (key =
  SHA-256 of canonical model text + analysis options);
* :mod:`~repro.batch.pool` -- :func:`run_batch`, the cache-aware
  :mod:`multiprocessing` fan-out that merges per-worker
  :class:`~repro.engine.stats.EngineStats` into one aggregate;
* :mod:`~repro.batch.sweeps` -- workload sweeps as job lists.

CLI surface: ``repro batch run``, ``repro batch cache``, ``repro
analyze <files...> --jobs N --cache`` and ``repro oracle run --jobs N
--cache``.  See ``docs/batch.md`` for the pool architecture, the cache
key definition and its invalidation rules.
"""

from repro.batch.cache import (
    CACHE_SCHEMA_VERSION,
    DEFAULT_CACHE_DIR,
    VerdictCache,
    cache_key,
    resolve_cache,
)
from repro.batch.jobs import (
    BATCH_FAULTS,
    JOB_KINDS,
    AnalysisJob,
    JobResult,
    execute_job,
)
from repro.batch.pool import (
    WORKER_DIED,
    BatchReport,
    ProgressFn,
    resolve_workers,
    run_batch,
)
from repro.batch.sweeps import utilization_sweep_jobs

__all__ = [
    "AnalysisJob",
    "BATCH_FAULTS",
    "BatchReport",
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "JOB_KINDS",
    "JobResult",
    "ProgressFn",
    "VerdictCache",
    "WORKER_DIED",
    "cache_key",
    "execute_job",
    "resolve_cache",
    "resolve_workers",
    "run_batch",
    "utilization_sweep_jobs",
]
