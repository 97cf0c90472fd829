"""Crash-hardening tests: fault injection, worker death, damaged caches.

The batch pool's resilience claims are pinned here with deterministic
fault injection (``options["batch_fault"]``, see
:data:`repro.batch.BATCH_FAULTS`) and deliberately damaged cache
directories: a worker bug, a SIGKILLed worker process, a corrupt or
unreadable cache entry and an unwritable cache directory must each cost
one job's result or one re-proof -- never the batch, never the process.
"""

import json
import os

import pytest

from repro.aadl.gallery import cruise_control_text
from repro.analysis.request import AnalysisRequest
from repro.batch import (
    BATCH_FAULTS,
    WORKER_DIED,
    AnalysisJob,
    VerdictCache,
    cache_key,
    execute_job,
    run_batch,
)
from repro.batch.cache import CACHE_SCHEMA_VERSION


def job(text=None, job_id="cc", max_states=200_000, fault=None, **kwargs):
    j = AnalysisJob.from_request(
        AnalysisRequest(
            source=text or cruise_control_text(),
            max_states=max_states,
            **kwargs,
        ),
        job_id=job_id,
    )
    if fault:
        j.options["batch_fault"] = fault
    return j


class TestFaultInjection:
    def test_fault_names_are_stable(self):
        assert BATCH_FAULTS == ("raise", "sigkill", "block")

    def test_unexpected_exception_becomes_error_result(self):
        result = execute_job(job(fault="raise"))
        assert result.verdict == "error"
        assert "RuntimeError" in result.error
        # the traceback survives into the report for diagnosis
        assert "Traceback" in result.error

    def test_unknown_fault_is_a_batch_error_result(self):
        result = execute_job(job(fault="bogus"))
        assert result.verdict == "error"
        assert "unknown batch fault" in result.error

    def test_fault_participates_in_cache_key(self):
        assert cache_key(job()) != cache_key(job(fault="raise"))

    def test_raise_fault_does_not_abort_batch(self):
        report = run_batch([job(fault="raise"), job(job_id="good")], workers=1)
        by_id = {r.job_id: r for r in report.results}
        assert by_id["cc"].verdict == "error"
        assert by_id["good"].verdict == "schedulable"
        assert report.exit_code() == 2


class TestWorkerDeath:
    """A SIGKILLed worker must cost exactly its own job."""

    def test_sigkilled_worker_does_not_abort_batch(self):
        jobs = [
            job(fault="sigkill", job_id="killer"),
            job(cruise_control_text(overloaded=True), job_id="overloaded"),
            job(job_id="good"),
        ]
        report = run_batch(jobs, workers=2)
        assert len(report.results) == 3
        by_id = {r.job_id: r for r in report.results}
        assert by_id["killer"].verdict == "error"
        assert "worker process died" in by_id["killer"].error
        # the innocents sharing the pool still get real verdicts
        assert by_id["overloaded"].verdict == "unschedulable"
        assert by_id["good"].verdict == "schedulable"
        assert report.exit_code() == 2

    def test_worker_death_message_is_stable(self):
        # the serve layer and the docs both quote this constant
        assert "worker process died" in WORKER_DIED


class TestDamagedCacheEntries:
    """Every way an entry can rot must read as a counted miss."""

    def entry_path(self, cache, key):
        return os.path.join(cache.directory, key[:2], f"{key}.json")

    def test_entry_is_a_directory_is_a_miss(self, tmp_path):
        cache = VerdictCache(str(tmp_path / "cache"))
        key = "ab" + "0" * 62
        os.makedirs(self.entry_path(cache, key))
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_corrupt_json_is_a_miss(self, tmp_path):
        cache = VerdictCache(str(tmp_path / "cache"))
        key = "ab" + "1" * 62
        path = self.entry_path(cache, key)
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as handle:
            handle.write("{truncated")
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_wrong_shape_is_a_miss(self, tmp_path):
        cache = VerdictCache(str(tmp_path / "cache"))
        key = "ab" + "2" * 62
        path = self.entry_path(cache, key)
        os.makedirs(os.path.dirname(path))
        for blob in (
            json.dumps([1, 2, 3]),  # not an object
            json.dumps({"schema_version": CACHE_SCHEMA_VERSION}),  # no result
            json.dumps(
                {"schema_version": CACHE_SCHEMA_VERSION, "result": "nope"}
            ),  # result not an object
        ):
            with open(path, "w") as handle:
                handle.write(blob)
            assert cache.get(key) is None
        assert cache.misses == 3

    def test_unwritable_directory_degrades_to_noop(self, tmp_path):
        # the cache "directory" is nested under a regular file, so every
        # write fails with NotADirectoryError regardless of privileges
        # (chmod-based denial is invisible to root)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = VerdictCache(str(blocker / "cache"))
        assert cache.put("ab" + "3" * 62, {"verdict": "schedulable"}) is None
        assert cache.write_errors == 1
        assert cache.get("ab" + "3" * 62) is None  # and reads just miss

    def test_batch_survives_unwritable_cache(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = VerdictCache(str(blocker / "cache"))
        report = run_batch([job()], workers=1, cache=cache)
        assert report.results[0].verdict == "schedulable"
        assert cache.write_errors == 1


class TestEviction:
    def put(self, cache, n, mtime=None):
        key = f"{n:02d}" + "e" * 62
        path = cache.put(key, {"verdict": "schedulable", "n": n})
        assert path is not None
        if mtime is not None:
            os.utime(path, (mtime, mtime))
        return key, path

    def test_max_entries_evicts_least_recently_used(self, tmp_path):
        cache = VerdictCache(str(tmp_path / "cache"), max_entries=2)
        k1, p1 = self.put(cache, 1, mtime=1_000)
        k2, p2 = self.put(cache, 2, mtime=2_000)
        k3, p3 = self.put(cache, 3, mtime=3_000)
        cache.evict()
        assert not os.path.exists(p1)  # oldest gone
        assert os.path.exists(p2) and os.path.exists(p3)
        assert cache.evictions >= 1
        assert len(cache) == 2

    def test_hit_refreshes_recency(self, tmp_path):
        cache = VerdictCache(str(tmp_path / "cache"), max_entries=2)
        k1, p1 = self.put(cache, 1, mtime=1_000)
        k2, p2 = self.put(cache, 2, mtime=2_000)
        assert cache.get(k1) is not None  # os.utime bumps k1 to "now"
        self.put(cache, 3)
        cache.evict()
        assert os.path.exists(p1)  # refreshed, survives
        assert not os.path.exists(p2)  # now the LRU victim

    def test_max_bytes_cap(self, tmp_path):
        cache = VerdictCache(str(tmp_path / "cache"))
        _, path = self.put(cache, 1)
        size = os.path.getsize(path)
        cache.max_bytes = int(size * 2.5)  # room for two entries
        self.put(cache, 2, mtime=2_000)
        self.put(cache, 3, mtime=3_000)
        cache.evict()
        assert len(cache) == 2
        assert cache.size_bytes() <= cache.max_bytes

    def test_no_caps_means_no_eviction(self, tmp_path):
        cache = VerdictCache(str(tmp_path / "cache"))
        for n in range(5):
            self.put(cache, n)
        assert cache.evict() == 0
        assert len(cache) == 5

    def test_stats_shape(self, tmp_path):
        cache = VerdictCache(str(tmp_path / "cache"), max_entries=10)
        key, _ = self.put(cache, 1)
        cache.get(key)
        cache.get("ff" + "0" * 62)
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["max_entries"] == 10
        assert cache.hit_rate() == 0.5


class TestInBatchDedupe:
    """Identical jobs in one batch run once; copies are marked."""

    def test_duplicates_execute_once(self):
        jobs = [job(job_id=f"dup{i}") for i in range(3)]
        seen = []
        report = run_batch(
            jobs,
            workers=1,
            progress=lambda done, total, r: seen.append(r.job_id),
        )
        marks = [r.deduped for r in report.results]
        assert marks == [False, True, True]
        # input order and per-request ids are preserved
        assert [r.job_id for r in report.results] == ["dup0", "dup1", "dup2"]
        assert len(seen) == 3
        assert {r.verdict for r in report.results} == {"schedulable"}

    def test_distinct_jobs_do_not_dedupe(self):
        jobs = [
            job(job_id="a"),
            job(cruise_control_text(overloaded=True), job_id="b"),
        ]
        report = run_batch(jobs, workers=1)
        assert [r.deduped for r in report.results] == [False, False]

    def test_dedupe_propagates_error_results(self):
        jobs = [job(fault="raise", job_id=f"bad{i}") for i in range(2)]
        report = run_batch(jobs, workers=1)
        assert [r.verdict for r in report.results] == ["error", "error"]
        assert report.results[1].deduped
        assert report.exit_code() == 2

    def test_dedupe_composes_with_cache(self, tmp_path):
        cache = VerdictCache(str(tmp_path / "cache"))
        run_batch([job(job_id="warm")], workers=1, cache=cache)
        report = run_batch(
            [job(job_id=f"r{i}") for i in range(2)], workers=1, cache=cache
        )
        # the primary is a cache hit; its duplicate inherits the flag
        assert [r.cached for r in report.results] == [True, True]
        assert [r.deduped for r in report.results] == [False, True]

    def test_report_marks_deduped_rows(self):
        report = run_batch([job(job_id=f"d{i}") for i in range(2)], workers=1)
        assert "(deduped)" in report.format()

    def test_dedupe_not_stored_in_result_dict(self):
        # per-batch provenance must not leak into cache entries
        report = run_batch([job(job_id=f"d{i}") for i in range(2)], workers=1)
        assert "deduped" not in report.results[1].to_dict()


class TestServeBundleReplay:
    def test_from_file_accepts_serve_bundle(self, tmp_path):
        source = job()
        bundle = {
            "schema_version": 1,
            "request_id": "r000001",
            "job": source.to_dict(),
            "result": {"job_id": "cc", "verdict": "schedulable"},
        }
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle))
        replayed = AnalysisJob.from_file(str(path))
        assert replayed.kind == "analysis"
        assert cache_key(replayed) == cache_key(source)
