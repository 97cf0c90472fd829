"""Tests of the :mod:`repro.obs` span tracer and its CLI surface."""

import json
import os

import pytest

from repro.aadl.gallery import cruise_control_text
from repro.cli import main
from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    PIPELINE_STAGES,
    SpanObserver,
    TraceSchemaError,
    Tracer,
    activate,
    current_tracer,
    missing_pipeline_stages,
    read_trace,
    summarize,
    summarize_file,
    validate_records,
)


class FakeClock:
    """Deterministic monotonic clock: advances by ``step`` per call."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestTracer:
    def test_span_ids_are_sequential(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.span_id == "s1"
        assert b.span_id == "s2"

    def test_nesting_sets_parent_id(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert tracer.current() is NULL_SPAN

    def test_elapsed_from_injected_clock(self):
        tracer = Tracer(clock=FakeClock(step=0.5))
        with tracer.span("timed") as span:
            pass
        assert span.elapsed == pytest.approx(0.5)

    def test_attrs_and_counters(self):
        tracer = Tracer()
        with tracer.span("work", model="m") as span:
            span.set(phase="late").incr("items").incr("items", 2)
        record = span.to_dict()
        assert record["attrs"] == {"model": "m", "phase": "late"}
        assert record["counters"] == {"items": 3}

    def test_error_status_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom") as span:
                raise ValueError("nope")
        record = span.to_dict()
        assert record["status"] == "error"
        assert record["attrs"]["error"] == "ValueError"
        assert tracer.current() is NULL_SPAN

    def test_worker_prefix_on_span_ids(self):
        tracer = Tracer(worker="w7")
        with tracer.span("job") as span:
            pass
        assert span.span_id == "w7.s1"

    def test_records_lead_with_meta(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        records = tracer.records()
        assert records[0]["type"] == "meta"
        assert records[0]["schema_version"] == 1
        assert records[1]["name"] == "a"

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                inner.incr("hits", 4)
        path = str(tmp_path / "sub" / "trace.jsonl")
        tracer.write_jsonl(path)  # creates the directory
        records = read_trace(path)
        assert [r["type"] for r in records] == ["meta", "span", "span"]
        by_name = {r["name"]: r for r in records if r["type"] == "span"}
        assert by_name["inner"]["counters"] == {"hits": 4}
        assert (
            by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        )


class TestNullTracer:
    def test_disabled_by_default(self):
        assert current_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled

    def test_null_span_is_shared_and_inert(self):
        span = NULL_TRACER.span("anything", big=list(range(100)))
        assert span is NULL_SPAN
        with span as inner:
            inner.set(a=1).incr("b")
        # A second call allocates nothing new.
        assert NULL_TRACER.span("more") is NULL_SPAN

    def test_activate_restores_previous(self):
        tracer = Tracer()
        with activate(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_pipeline_untraced_without_tracer(self):
        # Instrumented code runs through the null path untouched.
        from repro.aadl import infer_root, instantiate, parse_model
        from repro.analysis import analyze_model

        model = parse_model(cruise_control_text())
        result = analyze_model(instantiate(model, infer_root(model)))
        assert result.verdict.value == "schedulable"


class TestMerge:
    def test_merge_reparents_and_tags_worker(self):
        worker = Tracer(worker="w9")
        with worker.span("batch.job") as job:
            job.incr("states", 3)
        parent = Tracer()
        with parent.span("batch.run"):
            parent.merge_records(worker.records(), worker="w9")
        spans = [r for r in parent.records() if r["type"] == "span"]
        merged = {r["name"]: r for r in spans}
        assert merged["batch.job"]["attrs"]["worker"] == "w9"
        assert (
            merged["batch.job"]["parent_id"]
            == merged["batch.run"]["span_id"]
        )
        # Worker-prefixed ids stay unique next to the parent's own.
        assert len({r["span_id"] for r in spans}) == len(spans)

    def test_merge_file_reads_worker_from_meta(self, tmp_path):
        worker = Tracer(worker="w3")
        with worker.span("batch.job"):
            pass
        path = str(tmp_path / "w3.jsonl")
        worker.write_jsonl(path)
        parent = Tracer()
        parent.merge_file(path)
        spans = [r for r in parent.records() if r["type"] == "span"]
        assert spans[0]["attrs"]["worker"] == "w3"
        validate_records(parent.records())  # must not raise


class TestSchema:
    def _records(self):
        tracer = Tracer()
        with tracer.span("aadl.parse"):
            pass
        return tracer.records()

    def test_valid_trace_passes(self):
        records = self._records()
        assert validate_records(records) == records

    def test_missing_meta_rejected(self):
        with pytest.raises(TraceSchemaError):
            validate_records(self._records()[1:])

    def test_negative_elapsed_rejected(self):
        records = self._records()
        records[1]["elapsed"] = -0.5
        with pytest.raises(TraceSchemaError):
            validate_records(records)

    def test_dangling_parent_rejected(self):
        records = self._records()
        records[1]["parent_id"] = "s999"
        with pytest.raises(TraceSchemaError):
            validate_records(records)

    def test_duplicate_span_ids_rejected(self):
        records = self._records()
        records.append(dict(records[1]))
        with pytest.raises(TraceSchemaError):
            validate_records(records)

    def test_missing_pipeline_stages(self):
        records = self._records()
        missing = missing_pipeline_stages(records)
        assert "aadl.parse" not in missing
        assert set(missing) == set(PIPELINE_STAGES) - {"aadl.parse"}


class TestSummary:
    def test_self_time_subtracts_children(self):
        tracer = Tracer(clock=FakeClock(step=1.0))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        summary = summarize(tracer.records())
        stages = {t.name: t for t in summary.stages}
        assert stages["inner"].total == pytest.approx(
            stages["inner"].self_total
        )
        assert stages["outer"].self_total == pytest.approx(
            stages["outer"].total - stages["inner"].total
        )

    def test_counters_aggregate_across_spans(self):
        tracer = Tracer()
        for _ in range(2):
            with tracer.span("stage") as span:
                span.incr("hits", 5)
        summary = summarize(tracer.records())
        stage = {t.name: t for t in summary.stages}["stage"]
        assert stage.count == 2
        assert stage.counters == {"hits": 10}

    def test_format_renders_table(self):
        tracer = Tracer()
        with tracer.span("engine.explore") as span:
            span.incr("states", 42)
        text = summarize(tracer.records()).format()
        assert "engine.explore" in text
        assert "states=42" in text
        assert "slowest span" in text

    def test_summarize_file_validates_first(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "span"}) + "\n")
        with pytest.raises(TraceSchemaError):
            summarize_file(path)


class TestSpanObserver:
    def test_bridges_engine_result_to_counters(self):
        from repro.aadl import infer_root, instantiate, parse_model
        from repro.engine import explore
        from repro.translate import translate

        model = parse_model(cruise_control_text())
        system = translate(
            instantiate(model, infer_root(model))
        ).system
        tracer = Tracer()
        with activate(tracer):
            with tracer.span("engine.explore") as span:
                explore(system, observers=[SpanObserver(span)])
        record = span.to_dict()
        assert record["counters"]["states"] > 0
        assert record["counters"]["transitions"] > 0
        assert record["attrs"]["completed"] is True


class TestCliTracing:
    @pytest.fixture
    def model_file(self, tmp_path):
        path = tmp_path / "model.aadl"
        path.write_text(cruise_control_text())
        return str(path)

    def test_analyze_trace_covers_pipeline(self, model_file, tmp_path, capsys):
        out = str(tmp_path / "trace.jsonl")
        assert main(["analyze", model_file, "--trace", out]) == 0
        records = read_trace(out)
        validate_records(records)  # must not raise
        assert missing_pipeline_stages(records) == []
        assert "wrote trace" in capsys.readouterr().err

    def test_profile_prints_summary_to_stderr(self, model_file, capsys):
        assert main(["analyze", model_file, "--profile"]) == 0
        err = capsys.readouterr().err
        assert "stage" in err
        assert "engine.explore" in err

    def test_trace_summary_subcommand(self, model_file, tmp_path, capsys):
        out = str(tmp_path / "trace.jsonl")
        main(["analyze", model_file, "--trace", out])
        capsys.readouterr()
        assert main(["trace", "summary", out]) == 0
        text = capsys.readouterr().out
        assert "aadl.parse" in text
        assert "engine.explore" in text

    def test_trace_summary_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span"}\n')
        assert main(["trace", "summary", str(path)]) == 2

    def test_batch_trace_merges_worker_spans(self, model_file, tmp_path):
        # The second model must differ from the first: identical inputs
        # now dedupe by cache key and execute only once, which would
        # leave a single worker to observe.  A lighter compute time
        # keeps the variant schedulable.
        variant = tmp_path / "variant.aadl"
        variant.write_text(cruise_control_text().replace("20 ms", "15 ms"))
        out = str(tmp_path / "batch.jsonl")
        code = main(
            [
                "batch",
                "run",
                model_file,
                str(variant),
                "--jobs",
                "2",
                "--trace",
                out,
            ]
        )
        assert code == 0
        records = read_trace(out)
        validate_records(records)  # must not raise
        names = [r["name"] for r in records if r["type"] == "span"]
        assert "batch.run" in names
        assert names.count("batch.job") == 2
        workers = {
            r["attrs"]["worker"]
            for r in records
            if r["type"] == "span" and r["name"] == "batch.job"
        }
        assert len(workers) == 2  # two distinct worker processes

    def test_oracle_run_span_profile(self, tmp_path, capsys):
        code = main(
            [
                "oracle",
                "run",
                "--profile",
                "smoke",
                "--seeds",
                "2",
                "--artifacts",
                str(tmp_path / "art"),
                "--span-profile",
            ]
        )
        assert code in (0, 1)
        assert "oracle.run" in capsys.readouterr().err
