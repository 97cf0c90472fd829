"""Tests for the analysis service: HTTP API, SSE, backpressure, crashes.

Most tests boot a real :class:`~repro.serve.ReproServer` on an
ephemeral port inside a background event-loop thread and talk to it
with ``http.client`` -- the same path ``curl`` takes.  The thread
executor keeps them fast; one test uses the process executor to pin
crash recovery (a thread cannot be SIGKILLed).
"""

import asyncio
import json
import os
import threading
import time
from contextlib import contextmanager
from http.client import HTTPConnection

import pytest

from repro.aadl.gallery import cruise_control_text
from repro.batch import AnalysisJob, VerdictCache, cache_key
from repro.errors import BackpressureError, ServeError
from repro.obs import parse_stream
from repro.obs.sse import format_event
from repro.serve import (
    EXIT_CODES,
    VERDICT_STATUS,
    AnalysisService,
    ReproServer,
    job_from_request,
)


@contextmanager
def live_server(**service_kwargs):
    """A running server on an ephemeral port, in a loop thread."""
    service = AnalysisService(**service_kwargs)
    server = ReproServer(service, host="127.0.0.1", port=0)
    started = threading.Event()
    holder = {}

    def run():
        async def main():
            await server.start()
            holder["addr"] = server.address
            holder["loop"] = asyncio.get_running_loop()
            holder["stop"] = asyncio.Event()
            started.set()
            await holder["stop"].wait()
            await server.stop()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10), "server failed to start"
    try:
        yield holder["addr"], service
    finally:
        holder["loop"].call_soon_threadsafe(holder["stop"].set)
        thread.join(30)


def request(addr, method, path, body=None):
    """One request/response exchange; returns (status, decoded json)."""
    conn = HTTPConnection(*addr, timeout=60)
    encoded = json.dumps(body) if body is not None else None
    conn.request(method, path, body=encoded,
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    data = resp.read()
    conn.close()
    return resp.status, json.loads(data)


def await_result(addr, request_id, timeout=60):
    deadline = time.monotonic() + timeout
    while True:
        status, body = request(addr, "GET", f"/v1/jobs/{request_id}/result")
        if status != 202:
            return status, body
        assert time.monotonic() < deadline, "job did not finish in time"
        time.sleep(0.05)


def submit(addr, source, job_id=None, **extra):
    body = {"source": source}
    if job_id:
        body["job_id"] = job_id
    body.update(extra)
    return request(addr, "POST", "/v1/analyze", body)


@pytest.fixture
def server(tmp_path):
    with live_server(
        cache=VerdictCache(str(tmp_path / "cache")),
        workers=2,
        backlog=4,
        executor="thread",
        artifacts_dir=str(tmp_path / "serve"),
    ) as (addr, service):
        yield addr, service


class TestContracts:
    def test_verdict_status_mirrors_exit_codes(self):
        # every verdict has both an exit code and an HTTP status
        assert set(VERDICT_STATUS) == set(EXIT_CODES)
        assert VERDICT_STATUS["schedulable"] == 200
        assert VERDICT_STATUS["unschedulable"] == 422
        assert VERDICT_STATUS["error"] == 400
        assert VERDICT_STATUS["unknown"] == 503
        assert EXIT_CODES == {
            "schedulable": 0, "unschedulable": 1, "error": 2, "unknown": 3,
        }

    def test_sse_round_trip(self):
        blob = format_event("span", {"name": "serve.job", "elapsed": 0.5})
        blob += format_event("result", {"verdict": "schedulable"})
        events = parse_stream(blob.decode())
        assert [e for e, _ in events] == ["span", "result"]
        assert events[0][1]["name"] == "serve.job"

    def test_sse_event_name_rejects_newlines(self):
        with pytest.raises(ValueError):
            format_event("bad\nname", {})

    def test_job_from_request_shapes(self):
        job = job_from_request({"source": cruise_control_text()})
        assert job.kind == "analysis"
        assert job.request.tiers is None
        replay = job_from_request({"job": job.to_dict()})
        assert cache_key(replay) == cache_key(job)
        portfolio = job_from_request(
            {"source": cruise_control_text(), "portfolio": True}
        )
        assert portfolio.kind == "analysis"
        assert portfolio.request.tiers == "default"

    @pytest.mark.parametrize("body", [
        [],  # not an object
        {},  # no source
        {"source": ""},  # empty source
        {"source": 7},  # mistyped source
        {"source": "x", "options": {"bogus": 1}},  # unknown option
        {"source": "x", "options": {"max_states": -5}},  # bad budget
        {"source": "x", "root": 3},  # mistyped root
        {"job": "nope"},  # mistyped replay
    ])
    def test_job_from_request_rejects(self, body):
        with pytest.raises(ServeError):
            job_from_request(body)

    def test_service_config_validation(self):
        with pytest.raises(ServeError):
            AnalysisService(executor="rocket")
        with pytest.raises(ServeError):
            AnalysisService(workers=0)
        with pytest.raises(ServeError):
            AnalysisService(backlog=0)


class TestEndpoints:
    def test_healthz(self, server):
        addr, _ = server
        assert request(addr, "GET", "/healthz") == (200, {"status": "ok"})

    def test_schedulable_maps_to_200_exit_0(self, server):
        addr, _ = server
        status, body = submit(addr, cruise_control_text(), job_id="cc")
        assert status == 202
        assert body["disposition"] == "queued"
        status, body = await_result(addr, body["request_id"])
        assert status == 200
        assert body["exit_code"] == 0
        assert body["result"]["verdict"] == "schedulable"

    def test_unschedulable_maps_to_422_exit_1(self, server):
        addr, _ = server
        _, body = submit(addr, cruise_control_text(overloaded=True))
        status, body = await_result(addr, body["request_id"])
        assert status == 422
        assert body["exit_code"] == 1

    def test_malformed_model_maps_to_400_exit_2(self, server):
        addr, _ = server
        status, body = submit(addr, "this is not AADL")
        # unkeyable models complete synchronously, off-queue
        assert status == 200
        assert body["disposition"] == "invalid"
        status, body = await_result(addr, body["request_id"])
        assert status == 400
        assert body["exit_code"] == 2
        assert body["result"]["error"]

    def test_unknown_maps_to_503_exit_3(self, server):
        addr, _ = server
        _, body = submit(
            addr, cruise_control_text(), options={"max_states": 5}
        )
        status, body = await_result(addr, body["request_id"])
        assert status == 503
        assert body["exit_code"] == 3
        assert body["result"]["verdict"] == "unknown"

    def test_bad_json_body_is_400(self, server):
        addr, _ = server
        conn = HTTPConnection(*addr, timeout=60)
        conn.request("POST", "/v1/analyze", body="{not json")
        resp = conn.getresponse()
        assert resp.status == 400
        conn.close()

    def test_unknown_routes_and_methods(self, server):
        addr, _ = server
        assert request(addr, "GET", "/nope")[0] == 404
        assert request(addr, "GET", "/v1/jobs/r999999")[0] == 404
        assert request(addr, "GET", "/v1/jobs/r999999/result")[0] == 404
        assert request(addr, "GET", "/v1/analyze")[0] == 405
        assert request(addr, "POST", "/healthz")[0] == 405

    def test_status_summary(self, server):
        addr, _ = server
        _, body = submit(addr, cruise_control_text(), job_id="cc")
        rid = body["request_id"]
        await_result(addr, rid)
        status, body = request(addr, "GET", f"/v1/jobs/{rid}")
        assert status == 200
        assert body["state"] == "done"
        assert body["job_id"] == "cc"
        assert body["verdict"] == "schedulable"
        assert body["exit_code"] == 0

    def test_stats_endpoint(self, server):
        addr, _ = server
        _, body = submit(addr, cruise_control_text())
        await_result(addr, body["request_id"])
        status, stats = request(addr, "GET", "/v1/stats")
        assert status == 200
        assert stats["counters"]["submitted"] == 1
        assert stats["counters"]["completed"] == 1
        assert stats["cache"]["misses"] >= 1
        assert stats["executor"] == "thread"


class TestCacheAndCoalescing:
    def test_resubmission_hits_the_cache(self, server):
        addr, service = server
        _, body = submit(addr, cruise_control_text(), job_id="first")
        await_result(addr, body["request_id"])
        status, body = submit(addr, cruise_control_text(), job_id="second")
        # a cache hit answers inline: 200 with the verdict, no queueing
        assert status == 200
        assert body["disposition"] == "cached"
        assert body["verdict"] == "schedulable"
        status, body = await_result(addr, body["request_id"])
        assert body["result"]["cached"] is True
        assert service.cache.hits == 1

    def test_identical_inflight_requests_coalesce(self, server, tmp_path):
        addr, service = server
        unblock = str(tmp_path / "unblock")
        try:
            opts = {"batch_fault": f"block:{unblock}"}
            _, first = submit(addr, cruise_control_text(), options=opts)
            _, second = submit(addr, cruise_control_text(), options=opts)
            assert second["disposition"] == "coalesced"
            # both callers share one record, hence one proof
            assert second["request_id"] == first["request_id"]
            assert service.counters["coalesced"] == 1
        finally:
            open(unblock, "w").close()
        status, body = await_result(addr, first["request_id"])
        assert status == 200

    def test_distinct_options_do_not_coalesce(self, server, tmp_path):
        addr, _ = server
        unblock = str(tmp_path / "unblock")
        try:
            _, first = submit(
                addr, cruise_control_text(),
                options={"batch_fault": f"block:{unblock}",
                         "max_states": 10_000},
            )
            _, second = submit(
                addr, cruise_control_text(),
                options={"batch_fault": f"block:{unblock}",
                         "max_states": 20_000},
            )
            assert second["disposition"] == "queued"
            assert second["request_id"] != first["request_id"]
        finally:
            open(unblock, "w").close()
        await_result(addr, first["request_id"])
        await_result(addr, second["request_id"])


class TestBackpressure:
    def test_full_queue_answers_429(self, tmp_path):
        unblock = str(tmp_path / "unblock")
        with live_server(
            cache=None, workers=1, backlog=1,
            executor="thread", artifacts_dir=None,
        ) as (addr, service):
            try:
                accepted = []
                rejected = 0
                for i in range(6):
                    status, body = submit(
                        addr, cruise_control_text(),
                        options={"batch_fault": f"block:{unblock}",
                                 "max_states": 1_000 + i},  # distinct keys
                    )
                    if status == 202:
                        accepted.append(body["request_id"])
                    else:
                        assert status == 429
                        assert "retry" in body["error"].lower()
                        rejected += 1
                # 1 running + 1 queued fit; everything else sheds
                assert len(accepted) == 2
                assert rejected == 4
                assert service.counters["rejected"] == 4
            finally:
                open(unblock, "w").close()
            for rid in accepted:
                status, _ = await_result(addr, rid)
                assert status == 200


class TestEventStream:
    def test_replay_covers_lifecycle_and_spans(self, server):
        addr, _ = server
        _, body = submit(addr, cruise_control_text())
        rid = body["request_id"]
        await_result(addr, rid)
        conn = HTTPConnection(*addr, timeout=60)
        conn.request("GET", f"/v1/jobs/{rid}/events")
        resp = conn.getresponse()
        assert resp.getheader("Content-Type") == "text/event-stream"
        events = parse_stream(resp.read().decode())
        conn.close()
        kinds = [event for event, _ in events]
        assert kinds[0] == "queued"
        assert "running" in kinds
        assert kinds[-1] == "result"
        span_names = {d["name"] for e, d in events if e == "span"}
        # the worker's serve.job span plus the pipeline stages it wraps
        assert "serve.job" in span_names
        assert {"aadl.parse", "translate", "engine.explore"} <= span_names
        final = events[-1][1]
        assert final["verdict"] == "schedulable"
        assert final["exit_code"] == 0
        assert all(d["request_id"] == rid for _, d in events)

    def test_live_stream_terminates_on_result(self, server, tmp_path):
        addr, _ = server
        unblock = str(tmp_path / "unblock")
        try:
            _, body = submit(
                addr, cruise_control_text(),
                options={"batch_fault": f"block:{unblock}"},
            )
            rid = body["request_id"]
            conn = HTTPConnection(*addr, timeout=60)
            conn.request("GET", f"/v1/jobs/{rid}/events")
            resp = conn.getresponse()
        finally:
            open(unblock, "w").close()
        # read() blocks until the server closes after the result event
        events = parse_stream(resp.read().decode())
        conn.close()
        assert events[-1][0] == "result"


class TestBundles:
    def test_bundle_replays_through_batch(self, server, tmp_path):
        addr, service = server
        _, body = submit(addr, cruise_control_text(), job_id="cc")
        rid = body["request_id"]
        await_result(addr, rid)
        status, bundle = request(addr, "GET", f"/v1/jobs/{rid}/bundle")
        assert status == 200
        assert bundle["request_id"] == rid
        assert bundle["result"]["verdict"] == "schedulable"
        # the on-disk bundle is a valid batch input
        path = service.get(rid).bundle_path
        assert path and os.path.exists(path)
        replayed = AnalysisJob.from_file(path)
        assert cache_key(replayed) == bundle["cache_key"]

    def test_bundle_404_when_disabled(self, tmp_path):
        with live_server(
            cache=None, workers=1, backlog=4,
            executor="thread", artifacts_dir=None,
        ) as (addr, _):
            _, body = submit(addr, cruise_control_text())
            rid = body["request_id"]
            await_result(addr, rid)
            status, _ = request(addr, "GET", f"/v1/jobs/{rid}/bundle")
            assert status == 404


class TestCrashRecovery:
    """Process-mode only: a SIGKILLed worker must not take the service
    down, and the killed job must report the worker-death verdict."""

    def test_sigkill_yields_error_and_service_survives(self, tmp_path):
        with live_server(
            cache=None, workers=1, backlog=8,
            executor="process", artifacts_dir=None, trace=False,
        ) as (addr, service):
            _, body = submit(
                addr, cruise_control_text(), job_id="killer",
                options={"batch_fault": "sigkill"},
            )
            status, body = await_result(addr, body["request_id"], timeout=120)
            assert status == 400
            assert body["exit_code"] == 2
            assert "worker process died" in body["result"]["error"]
            assert service.counters["worker_crashes"] >= 1
            # the rebuilt pool still proves real models
            _, body = submit(addr, cruise_control_text(), job_id="after")
            status, body = await_result(addr, body["request_id"], timeout=120)
            assert status == 200
            assert body["result"]["verdict"] == "schedulable"


class TestServiceDirect:
    """Unit-level checks that need no socket."""

    def test_submit_requires_start(self):
        service = AnalysisService(cache=None, artifacts_dir=None)
        with pytest.raises(ServeError):
            service.submit(job_from_request({"source": cruise_control_text()}))

    def test_backpressure_error_is_serve_error(self):
        assert issubclass(BackpressureError, ServeError)

    def test_cli_parser_wires_serve(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--executor", "thread",
             "--workers", "3", "--backlog", "9", "--no-cache"]
        )
        assert args.func.__name__ == "cmd_serve"
        assert args.workers == 3
        assert args.backlog == 9
        assert args.no_cache is True
