"""The persistent, content-addressed verdict cache.

Model-checking verdicts are pure functions of (model, analysis
options), so repeated campaigns -- the nightly 500-seed oracle run, a
re-executed benchmark suite, a workload sweep with one tweaked point --
keep re-proving identical cases.  The cache stores each proven verdict
on disk under a content hash, and :func:`repro.batch.run_batch` serves
hits without spawning a worker.

Key definition
--------------

``cache_key(job)`` is the SHA-256 of a canonical JSON document::

    {"schema":  CACHE_SCHEMA_VERSION,
     "kind":    "analysis" | "case",
     "model":   <canonical AADL text of the model under test>,
     "options": <AnalysisJob.key_options()>}

The model half comes from
:meth:`~repro.batch.jobs.AnalysisJob.canonical_model_text`: AADL
sources are printed from the parsed model (formatting and comments
cannot split the key) and oracle cases regenerate their AADL from the
task list (provenance -- generator name, seed, case id -- cannot split
it either).  The options half is the canonical
:class:`~repro.analysis.request.AnalysisRequest` without its model half
(defaults left out, so spelling a default out cannot split the key
either), or a case's budget and injected fault.

Invalidation rules
------------------

* Any semantic change to the analysis pipeline (translation, semantics,
  verdict logic) MUST bump :data:`CACHE_SCHEMA_VERSION`; the version is
  hashed into every key, so old entries become unreachable rather than
  wrong.
* Entries whose stored schema version differs are treated as misses
  and may be overwritten.
* ``artifacts/cache/`` is always safe to delete (``repro batch cache
  --clear``); the cache holds no primary data.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import BatchError

logger = logging.getLogger(__name__)

#: Bump on ANY change that can alter a verdict for the same model text
#: and options (translation rules, ACSR semantics, verdict mapping...)
#: or to the key layout itself (2: one ``analysis`` kind keyed by its
#: request).
CACHE_SCHEMA_VERSION = 2

#: Default on-disk location for cached verdicts.
DEFAULT_CACHE_DIR = os.path.join("artifacts", "cache")


def cache_key(job) -> str:
    """Content hash of one :class:`~repro.batch.jobs.AnalysisJob`."""
    material = {
        "schema": CACHE_SCHEMA_VERSION,
        "kind": job.kind,
        "model": job.canonical_model_text(),
        "options": job.key_options(),
    }
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class VerdictCache:
    """Directory of ``<key[:2]>/<key>.json`` verdict entries.

    Lookups count into :attr:`hits` / :attr:`misses`, which the batch
    layer folds into the aggregate
    :class:`~repro.engine.stats.EngineStats` (the ``verdict cache:``
    line of ``--stats`` output).

    The store is safe to share:

    * **across processes** -- writes are atomic (temp file + rename)
      and reads treat *any* unreadable or ill-formed entry as a counted
      miss, so concurrent campaigns racing on one directory can at
      worst re-prove a verdict, never crash or read half an entry;
    * **across threads** -- counters and the eviction sweep take a
      lock, which is what lets :mod:`repro.serve` hang one shared
      instance off its event loop and worker threads;
    * **against a broken filesystem** -- a read-only or vanished cache
      directory degrades the store to a no-op (:meth:`put` logs and
      returns None; the computed verdict is still returned to the
      caller), because a cache must accelerate runs, not abort them.

    Eviction: with ``max_entries`` and/or ``max_bytes`` set, every
    write triggers an LRU sweep (:meth:`evict`).  Recency is the entry
    file's mtime, refreshed on every hit, so cooperating processes
    agree on the order with no coordination beyond the filesystem.
    """

    def __init__(
        self,
        directory: str = DEFAULT_CACHE_DIR,
        *,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.directory = directory
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.write_errors = 0
        self._lock = threading.Lock()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], f"{key}.json")

    def _miss(self) -> None:
        with self._lock:
            self.misses += 1

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored result payload for ``key``, or None (counted).

        Every failure mode of an entry -- absent, unreadable
        (permission denied, entry is a directory, I/O error), corrupt
        JSON, wrong schema version, wrong shape -- is a miss, never an
        exception: a damaged cache entry must cost a re-proof, not the
        run.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            # OSError covers FileNotFoundError, PermissionError,
            # IsADirectoryError...; ValueError covers JSONDecodeError
            # and stray UnicodeDecodeError-adjacent corruption.
            self._miss()
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("schema_version") != CACHE_SCHEMA_VERSION
            or not isinstance(entry.get("result"), dict)
        ):
            self._miss()
            return None
        with self._lock:
            self.hits += 1
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:
            pass
        return entry["result"]

    def put(
        self, key: str, result: Dict[str, Any], **meta: Any
    ) -> Optional[str]:
        """Store ``result`` (a JSON-typed dict) under ``key``.

        Returns the entry path, or None when the cache directory is
        unwritable (read-only mount, quota, parent replaced by a
        file...): the failure is logged and counted in
        :attr:`write_errors`, and the caller's verdict is unaffected.
        """
        path = self._path(key)
        entry = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "key": key,
            "result": result,
            **meta,
        }
        blob = json.dumps(entry, indent=2, sort_keys=True)
        tmp: Optional[str] = None
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(blob)
                handle.write("\n")
            os.replace(tmp, path)
        except OSError as exc:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            with self._lock:
                self.write_errors += 1
            logger.warning("verdict-cache write failed for %s: %s", path, exc)
            return None
        if self.max_entries is not None or self.max_bytes is not None:
            self.evict()
        return path

    def evict(self) -> int:
        """Trim the store to the configured caps, least-recently-used
        entries first; returns how many entries were removed.  A no-op
        when neither cap is set."""
        if self.max_entries is None and self.max_bytes is None:
            return 0
        with self._lock:
            stamped: List[Tuple[float, int, str]] = []
            for path in self.entries():
                try:
                    stat = os.stat(path)
                except OSError:
                    continue  # concurrently evicted or unreadable
                stamped.append((stat.st_mtime, stat.st_size, path))
            stamped.sort(reverse=True)  # newest (most recently used) first
            kept_entries = 0
            kept_bytes = 0
            removed = 0
            for mtime, size, path in stamped:
                kept_entries += 1
                kept_bytes += size
                over = (
                    self.max_entries is not None
                    and kept_entries > self.max_entries
                ) or (
                    self.max_bytes is not None and kept_bytes > self.max_bytes
                )
                if over:
                    try:
                        os.unlink(path)
                    except OSError:
                        continue
                    kept_entries -= 1
                    kept_bytes -= size
                    removed += 1
            self.evictions += removed
            return removed

    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        """Counters plus on-disk footprint, for metrics endpoints."""
        return {
            "directory": self.directory,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate(), 4),
            "evictions": self.evictions,
            "write_errors": self.write_errors,
            "entries": len(self),
            "bytes": self.size_bytes(),
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
        }

    def entries(self) -> Iterator[str]:
        """Paths of every stored entry."""
        try:
            shards = sorted(os.listdir(self.directory))
        except OSError:
            return
        for shard in shards:
            shard_dir = os.path.join(self.directory, shard)
            try:
                names = sorted(os.listdir(shard_dir))
            except OSError:
                continue  # shard vanished or is not a directory
            for name in names:
                if name.endswith(".json"):
                    yield os.path.join(shard_dir, name)

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def size_bytes(self) -> int:
        total = 0
        for path in self.entries():
            try:
                total += os.path.getsize(path)
            except OSError:
                pass  # entry evicted between listing and stat
        return total

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self.entries()):
            try:
                os.unlink(path)
            except FileNotFoundError:
                continue
            removed += 1
        return removed

    def __repr__(self) -> str:
        return (
            f"VerdictCache({self.directory!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )


def resolve_cache(spec) -> Optional[VerdictCache]:
    """Normalize a cache spec: a :class:`VerdictCache`, a directory
    path, True (default directory), or None/False (disabled)."""
    if spec is None or spec is False:
        return None
    if spec is True:
        return VerdictCache()
    if isinstance(spec, VerdictCache):
        return spec
    if isinstance(spec, str):
        return VerdictCache(spec)
    raise BatchError(f"not a cache spec: {spec!r}")
