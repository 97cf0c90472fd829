"""Tests for the parallel batch subsystem and the verdict cache."""

import json
import os

import pytest

from repro.aadl.gallery import cruise_control_text
from repro.analysis.request import AnalysisRequest
from repro.batch import (
    AnalysisJob,
    JobResult,
    VerdictCache,
    cache_key,
    execute_job,
    resolve_cache,
    resolve_workers,
    run_batch,
    utilization_sweep_jobs,
)
from repro.batch.cache import CACHE_SCHEMA_VERSION
from repro.cli import main
from repro.engine.stats import EngineStats
from repro.errors import BatchError, RequestError
from repro.oracle.case import OracleCase


def _job(source, job_id=None, **fields):
    return AnalysisJob.from_request(
        AnalysisRequest(source=source, **fields), job_id=job_id
    )


@pytest.fixture
def cc_job():
    return _job(cruise_control_text(), job_id="cc")


@pytest.fixture
def case_jobs():
    cases = [
        OracleCase.generate("uniform", seed, n=2, utilization=0.5, scheduling="RMS")
        for seed in range(4)
    ]
    return [
        AnalysisJob.from_case(c, job_id=c.case_id, max_states=50_000)
        for c in cases
    ]


class TestAnalysisJob:
    def test_roundtrip(self, cc_job):
        clone = AnalysisJob.from_dict(cc_job.to_dict())
        assert clone.job_id == cc_job.job_id
        assert clone.kind == cc_job.kind
        assert clone.payload == cc_job.payload
        assert clone.options == cc_job.options

    def test_unknown_kind_rejected(self):
        with pytest.raises(BatchError):
            AnalysisJob(job_id="x", kind="nope", payload={})

    def test_missing_fields_rejected(self):
        with pytest.raises(BatchError):
            AnalysisJob.from_dict({"job_id": "x"})

    def test_from_file_aadl(self, tmp_path):
        path = tmp_path / "cc.aadl"
        path.write_text(cruise_control_text())
        job = AnalysisJob.from_file(str(path))
        assert job.kind == "analysis"
        assert job.job_id == "cc.aadl"

    def test_from_file_case_json(self, tmp_path):
        case = OracleCase.generate("uniform", 3, n=2, utilization=0.4, scheduling="RMS")
        path = tmp_path / "case.json"
        path.write_text(json.dumps(case.to_dict()))
        job = AnalysisJob.from_file(str(path))
        assert job.kind == "case"
        assert job.payload["case"]["case_id"] == case.case_id

    def test_execute_error_is_captured(self):
        job = _job("this is not AADL", job_id="bad")
        result = execute_job(job)
        assert result.verdict == "error"
        assert result.error


class TestCacheKey:
    def test_formatting_cannot_split_aadl_keys(self):
        source = cruise_control_text()
        reformatted = "-- a leading comment\n" + source.replace(
            "\n", "\n  \n", 1
        )
        a = cache_key(_job(source, job_id="a"))
        b = cache_key(_job(reformatted, job_id="b"))
        assert a == b

    def test_provenance_cannot_split_case_keys(self):
        case = OracleCase.generate("uniform", 7, n=2, utilization=0.5, scheduling="RMS")
        data = case.to_dict()
        relabeled = dict(data, case_id="totally-different", seed=999)
        a = cache_key(AnalysisJob.from_case(data))
        b = cache_key(AnalysisJob.from_case(relabeled))
        assert a == b

    def test_options_split_keys(self):
        source = cruise_control_text()
        a = cache_key(_job(source, max_states=10))
        b = cache_key(_job(source, max_states=20))
        assert a != b

    def test_fault_splits_case_keys(self):
        case = OracleCase.generate("uniform", 7, n=2, utilization=0.5, scheduling="RMS")
        a = cache_key(AnalysisJob.from_case(case.to_dict()))
        b = cache_key(
            AnalysisJob.from_case(case.to_dict(), fault="drop_preemption")
        )
        assert a != b


class TestVerdictCache:
    def test_miss_then_hit(self, tmp_path):
        store = VerdictCache(str(tmp_path / "cache"))
        assert store.get("ab" * 32) is None
        store.put("ab" * 32, {"verdict": "schedulable"}, job_id="x")
        assert store.get("ab" * 32) == {"verdict": "schedulable"}
        assert store.hits == 1 and store.misses == 1

    def test_schema_mismatch_is_miss(self, tmp_path):
        store = VerdictCache(str(tmp_path / "cache"))
        path = store.put("cd" * 32, {"verdict": "schedulable"})
        entry = json.loads(open(path).read())
        entry["schema_version"] = CACHE_SCHEMA_VERSION + 1
        with open(path, "w") as handle:
            json.dump(entry, handle)
        assert store.get("cd" * 32) is None

    def test_corrupt_entry_is_miss(self, tmp_path):
        store = VerdictCache(str(tmp_path / "cache"))
        path = store.put("ef" * 32, {"verdict": "schedulable"})
        with open(path, "w") as handle:
            handle.write("{not json")
        assert store.get("ef" * 32) is None

    def test_clear(self, tmp_path):
        store = VerdictCache(str(tmp_path / "cache"))
        store.put("ab" * 32, {"verdict": "schedulable"})
        store.put("cd" * 32, {"verdict": "unschedulable"})
        assert len(store) == 2
        assert store.size_bytes() > 0
        assert store.clear() == 2
        assert len(store) == 0

    def test_resolve_cache_specs(self, tmp_path):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        store = VerdictCache(str(tmp_path))
        assert resolve_cache(store) is store
        assert resolve_cache(str(tmp_path)).directory == str(tmp_path)
        with pytest.raises(BatchError):
            resolve_cache(42)


class TestRunBatch:
    def test_workers_resolution(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(3) == 3
        with pytest.raises(BatchError):
            resolve_workers(0)

    def test_jobs_1_and_jobs_2_identical(self, case_jobs):
        serial = run_batch(case_jobs, workers=1)
        pooled = run_batch(case_jobs, workers=2)
        assert [r.verdict for r in serial.results] == [
            r.verdict for r in pooled.results
        ]
        assert [r.states for r in serial.results] == [
            r.states for r in pooled.results
        ]
        assert [r.job_id for r in serial.results] == [
            r.job_id for r in pooled.results
        ]

    def test_warm_cache_serves_every_job(self, case_jobs, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_batch(case_jobs, workers=1, cache=cache_dir)
        assert cold.cache_hits == 0
        assert cold.cache_misses == len(case_jobs)
        warm = run_batch(case_jobs, workers=1, cache=cache_dir)
        assert warm.cache_hits == len(case_jobs)
        assert warm.cache_misses == 0
        assert all(r.cached for r in warm.results)
        assert [r.verdict for r in warm.results] == [
            r.verdict for r in cold.results
        ]
        # Cached results carry no fresh engine work.
        assert warm.stats.states == 0

    def test_cache_shared_across_runs_reports_deltas(self, case_jobs, tmp_path):
        store = VerdictCache(str(tmp_path / "cache"))
        run_batch(case_jobs, workers=1, cache=store)
        warm = run_batch(case_jobs, workers=1, cache=store)
        assert warm.cache_hits == len(case_jobs)
        assert warm.cache_misses == 0

    def test_error_job_does_not_abort_batch(self, cc_job):
        bad = _job("garbage", job_id="bad")
        report = run_batch([cc_job, bad], workers=1)
        assert report.results[0].verdict == "schedulable"
        assert report.results[1].verdict == "error"
        assert report.exit_code() == 2

    def test_error_results_not_cached(self, tmp_path):
        bad = _job("garbage", job_id="bad")
        store = VerdictCache(str(tmp_path / "cache"))
        run_batch([bad], workers=1, cache=store)
        assert len(store) == 0

    def test_exit_code_priority(self, cc_job):
        report = run_batch([cc_job], workers=1)
        assert report.exit_code() == 0
        truncated = _job(
            cruise_control_text(), job_id="tiny", max_states=10
        )
        assert run_batch([truncated], workers=1).exit_code() == 3
        over = _job(
            cruise_control_text(overloaded=True), job_id="over"
        )
        assert run_batch([over, truncated], workers=1).exit_code() == 1

    def test_progress_called_per_job(self, case_jobs):
        seen = []
        run_batch(
            case_jobs,
            workers=1,
            progress=lambda done, total, result: seen.append(
                (done, total, result.job_id)
            ),
        )
        assert [done for done, _, _ in seen] == [1, 2, 3, 4]

    def test_aggregate_stats_sum_over_jobs(self, case_jobs):
        report = run_batch(case_jobs, workers=1)
        per_job = [
            EngineStats.from_dict(r.stats)
            for r in report.results
            if r.stats
        ]
        assert report.stats.states == sum(s.states for s in per_job)
        assert report.stats.transitions == sum(
            s.transitions for s in per_job
        )

    def test_report_format_mentions_cache(self, case_jobs, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_batch(case_jobs, workers=1, cache=cache_dir)
        warm = run_batch(case_jobs, workers=1, cache=cache_dir)
        text = warm.format(show_stats=True)
        assert "verdict cache: 4 hits / 0 misses" in text
        assert "(cached)" in text


class TestEngineStatsBatchSupport:
    def test_from_dict_roundtrip(self):
        stats = EngineStats.from_dict(
            {
                "strategy": "bfs",
                "states": 10,
                "transitions": 20,
                "expanded": 9,
                "elapsed": 0.5,
                "frontier_peak": 4,
                "cache_hits": 3,
                "cache_misses": 7,
                "verdict_cache_hits": 1,
                "verdict_cache_misses": 2,
            }
        )
        clone = EngineStats.from_dict(stats.as_dict())
        assert clone.as_dict() == stats.as_dict()
        assert clone.verdict_cache_hits == 1
        assert clone.verdict_cache_misses == 2

    def test_aggregate_sums_and_peaks(self):
        a = EngineStats.from_dict(
            {"strategy": "bfs", "states": 5, "transitions": 8,
             "expanded": 5, "elapsed": 0.1, "frontier_peak": 3}
        )
        b = EngineStats.from_dict(
            {"strategy": "bfs", "states": 7, "transitions": 2,
             "expanded": 6, "elapsed": 0.2, "frontier_peak": 9}
        )
        total = EngineStats.aggregate([a, None, b])
        assert total.states == 12
        assert total.transitions == 10
        assert total.frontier_peak == 9
        assert total.elapsed == pytest.approx(0.3)

    def test_format_includes_verdict_cache_line(self):
        stats = EngineStats.from_dict(
            {"strategy": "aggregate", "states": 1, "transitions": 1,
             "expanded": 1, "elapsed": 0.1, "frontier_peak": 1,
             "verdict_cache_hits": 3, "verdict_cache_misses": 1}
        )
        assert "verdict cache: 3 hits / 1 misses" in stats.format()


class TestSweeps:
    def test_sweep_jobs_are_deterministic(self):
        a = utilization_sweep_jobs(2, [0.4, 0.8], base_seed=5)
        b = utilization_sweep_jobs(2, [0.4, 0.8], base_seed=5)
        assert [cache_key(j) for j in a] == [cache_key(j) for j in b]
        assert [j.job_id for j in a] == ["uniform-u0.400", "uniform-u0.800"]

    def test_sweep_runs_through_batch(self):
        jobs = utilization_sweep_jobs(
            2, [0.4], base_seed=5, max_states=50_000
        )
        report = run_batch(jobs, workers=1)
        assert report.results[0].verdict in (
            "schedulable", "unschedulable", "unknown",
        )
        assert report.results[0].classification is not None


class TestBatchCli:
    @pytest.fixture
    def cc_file(self, tmp_path):
        path = tmp_path / "cc.aadl"
        path.write_text(cruise_control_text())
        return str(path)

    def test_batch_run_two_files(self, cc_file, tmp_path, capsys):
        over = tmp_path / "over.aadl"
        over.write_text(cruise_control_text(overloaded=True))
        assert main(["batch", "run", cc_file, str(over), "--jobs", "2"]) == 1
        out = capsys.readouterr().out
        assert "2 job(s)" in out
        assert "1 schedulable, 1 unschedulable" in out

    def test_analyze_multi_file_batches(self, cc_file, capsys):
        assert main(["analyze", cc_file, cc_file, "--jobs", "1"]) == 0
        assert "verdicts: 2 schedulable" in capsys.readouterr().out

    def test_cli_cache_roundtrip(self, cc_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(
            ["batch", "run", cc_file, "--cache-dir", cache_dir]
        ) == 0
        assert main(
            ["batch", "run", cc_file, "--cache-dir", cache_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "verdict cache: 1 hits / 0 misses" in out
        assert main(["batch", "cache", "--dir", cache_dir]) == 0
        assert "1 entries" in capsys.readouterr().out
        assert main(
            ["batch", "cache", "--dir", cache_dir, "--clear"]
        ) == 0
        assert "removed 1" in capsys.readouterr().out


class TestCampaignBatchIntegration:
    def test_campaign_jobs_equivalence(self, tmp_path):
        from repro.oracle import run_campaign

        kwargs = dict(
            seeds=6,
            profile="smoke",
            base_seed=0,
            artifacts_dir=str(tmp_path / "art"),
        )
        serial = run_campaign(jobs=1, **kwargs)
        pooled = run_campaign(jobs=2, **kwargs)
        assert [o.verdict for o in serial.outcomes] == [
            o.verdict for o in pooled.outcomes
        ]
        assert [o.classification.status for o in serial.outcomes] == [
            o.classification.status for o in pooled.outcomes
        ]

    def test_campaign_cache_reuse(self, tmp_path):
        from repro.oracle import run_campaign

        kwargs = dict(
            seeds=5,
            profile="smoke",
            base_seed=0,
            artifacts_dir=str(tmp_path / "art"),
            cache=str(tmp_path / "cache"),
            jobs=1,
        )
        cold = run_campaign(**kwargs)
        assert cold.totals["verdict_cache_misses"] == 5
        assert cold.totals["runs"] == 5
        warm = run_campaign(**kwargs)
        assert warm.totals["verdict_cache_hits"] == 5
        assert warm.totals["runs"] == 0
        assert [o.verdict for o in warm.outcomes] == [
            o.verdict for o in cold.outcomes
        ]
        assert "verdict cache: 5 hits" in warm.format()


class TestAggregateWallClock:
    """The honest-denominator fix: ``elapsed`` stays the additive
    CPU-time sum, ``wall_elapsed`` is the pool's own wall clock, and
    throughput is computed from the wall clock."""

    def _pair(self):
        a = EngineStats.from_dict(
            {"strategy": "bfs", "states": 600, "transitions": 8,
             "expanded": 5, "elapsed": 2.0, "frontier_peak": 3}
        )
        b = EngineStats.from_dict(
            {"strategy": "bfs", "states": 400, "transitions": 2,
             "expanded": 6, "elapsed": 2.0, "frontier_peak": 9}
        )
        return a, b

    def test_wall_elapsed_distinct_from_cpu_sum(self):
        total = EngineStats.aggregate(self._pair(), wall_elapsed=2.5)
        assert total.elapsed == pytest.approx(4.0)
        assert total.wall_elapsed == pytest.approx(2.5)

    def test_throughput_uses_wall_clock(self):
        total = EngineStats.aggregate(self._pair(), wall_elapsed=2.5)
        # 1000 states / 2.5s wall, not / 4.0s of summed CPU time.
        assert total.states_per_second == pytest.approx(400.0)

    def test_wall_defaults_to_cpu_sum_when_serial(self):
        total = EngineStats.aggregate(self._pair())
        assert total.wall_elapsed == pytest.approx(total.elapsed)

    def test_format_shows_both_clocks_when_distinct(self):
        total = EngineStats.aggregate(self._pair(), wall_elapsed=2.5)
        text = total.format()
        assert "4.000s cpu" in text
        assert "2.500s wall" in text

    def test_format_single_clock_when_equal(self):
        total = EngineStats.aggregate(self._pair())
        assert "wall" not in total.format()

    def test_wall_elapsed_round_trips_through_dict(self):
        total = EngineStats.aggregate(self._pair(), wall_elapsed=2.5)
        clone = EngineStats.from_dict(total.as_dict())
        assert clone.wall_elapsed == pytest.approx(2.5)
        assert clone.elapsed == pytest.approx(4.0)

    def test_parallel_batch_reports_wall_clock(self, tmp_path):
        # Two *distinct* models: identical jobs would dedupe in-batch
        # and leave only one actual execution.
        jobs = [
            _job(
                cruise_control_text(overloaded=bool(i)), job_id=f"j{i}"
            )
            for i in range(2)
        ]
        report = run_batch(jobs, workers=2)
        assert report.stats.wall_elapsed == pytest.approx(
            report.elapsed
        )
        # Two jobs ran, so summed CPU time exceeds either job alone.
        per_job = [r.elapsed for r in report.results]
        assert report.stats.elapsed == pytest.approx(
            sum(per_job), rel=0.2
        )


class TestModalJobs:
    def _source(self):
        from repro.aadl.gallery import fault_recovery_text

        return fault_recovery_text()

    def test_modal_request_rejects_unknown_protocol(self):
        with pytest.raises(RequestError):
            _job(self._source(), modes="modal", protocol="eventual")

    def test_protocol_is_cache_key_material(self):
        source = self._source()
        sync = _job(source, modes="modal", protocol="synchronous")
        asyn = _job(source, modes="modal", protocol="asynchronous")
        assert cache_key(sync) != cache_key(asyn)

    def test_mode_pin_is_cache_key_material(self):
        source = self._source()
        plain = _job(source, root="Plant.impl")
        pinned = _job(
            source, root="Plant.impl", mode="error"
        )
        other = _job(
            source, root="Plant.impl", mode="recovery"
        )
        keys = {cache_key(plain), cache_key(pinned), cache_key(other)}
        assert len(keys) == 3

    def test_modal_job_runs_and_caches(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        job = _job(
            self._source(), root="Plant.impl",
            modes="modal", protocol="asynchronous",
        )
        cold = run_batch([job], workers=1, cache=cache_dir)
        assert cold.results[0].verdict == "schedulable"
        assert "transition" in cold.results[0].rendered
        warm = run_batch([job], workers=1, cache=cache_dir)
        assert warm.results[0].cached

    def test_from_file_routes_modal_options(self, tmp_path):
        path = tmp_path / "plant.aadl"
        path.write_text(self._source())
        job = AnalysisJob.from_file(
            str(path), modes="modal", protocol="asynchronous"
        )
        assert job.kind == "analysis"
        assert job.request.modes == "modal"
        assert job.request.protocol == "asynchronous"
