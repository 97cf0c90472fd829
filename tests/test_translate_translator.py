"""Tests of the Algorithm 1 driver: whole-model translation."""

import pytest

from repro.errors import AadlLegalityError, TranslationError
from repro.aadl.builder import SystemBuilder
from repro.aadl.gallery import (
    aperiodic_worker,
    cruise_control,
    shared_bus_pair,
    sporadic_consumer,
    two_periodic_threads,
)
from repro.aadl.properties import (
    DispatchProtocol,
    OverflowHandlingProtocol,
    SchedulingProtocol,
    ms,
)
from repro.translate import (
    EventSendPattern,
    TranslationOptions,
    translate,
)
from repro.translate.translator import LatencyFlow
from repro.engine import Budget, explore
from repro.versa import find_deadlock


class TestAlgorithm1Counts:
    def test_cruise_control_paper_claim(self):
        """Paper S4.1: 'the translation produces six ACSR processes that
        represent threads and six ACSR processes that represent
        dispatchers ... no queue processes are introduced.'"""
        result = translate(cruise_control())
        assert result.num_thread_processes == 6
        assert result.num_dispatchers == 6
        assert result.num_queue_processes == 0

    def test_queued_connection_count(self):
        result = translate(sporadic_consumer())
        assert result.num_queue_processes == 1

    def test_data_connections_get_no_queue(self):
        result = translate(two_periodic_threads())
        assert result.num_queue_processes == 0

    def test_definitions_registered(self):
        result = translate(two_periodic_threads())
        names = set(result.env.names())
        # Per thread: AD, C, F + dispatcher DP, DW, DI.
        assert sum(1 for n in names if n.startswith("AD$")) == 2
        assert sum(1 for n in names if n.startswith("DP$")) == 2


class TestRestriction:
    def test_all_internal_events_restricted(self):
        result = translate(sporadic_consumer())
        for qual in result.threads:
            sanitized = qual.replace(".", "_")
            assert f"dispatch${sanitized}" in result.restricted_events
            assert f"done${sanitized}" in result.restricted_events
        for conn_qual in result.queues:
            assert any(
                name.startswith("q$") for name in result.restricted_events
            )
            assert any(
                name.startswith("dq$") for name in result.restricted_events
            )

    def test_root_is_closed(self):
        result = translate(cruise_control())
        assert result.root.is_closed()


class TestBusRefinement:
    def test_bus_resource_recorded(self):
        result = translate(cruise_control())
        buses = result.names.names_of_kind("bus")
        assert list(buses.values()) == ["CruiseControl.net"]

    def test_cross_processor_bus_contention_analyzable(self):
        result = translate(shared_bus_pair())
        exploration = explore(result.system, budget=Budget(max_states=500_000))
        assert exploration.completed
        # Both senders' final steps use the shared bus; the model must
        # still be schedulable (bus arbitration serializes them).
        assert exploration.deadlock_free


class TestSchedulingPolicies:
    @pytest.mark.parametrize(
        "protocol",
        [
            SchedulingProtocol.RATE_MONOTONIC,
            SchedulingProtocol.DEADLINE_MONOTONIC,
            SchedulingProtocol.EARLIEST_DEADLINE_FIRST,
            SchedulingProtocol.LEAST_LAXITY_FIRST,
        ],
    )
    def test_all_policies_translate_and_explore(self, protocol):
        inst = two_periodic_threads(scheduling=protocol)
        result = translate(inst)
        assert explore(result.system).deadlock_free

    def test_hpf_uses_explicit_priorities(self):
        inst = two_periodic_threads(
            scheduling=SchedulingProtocol.HIGHEST_PRIORITY_FIRST
        )
        result = translate(inst)
        priorities = {
            qual: t.priority.value for qual, t in result.threads.items()
        }
        assert priorities["TwoThreads.fast"] > priorities["TwoThreads.slow"]


class TestValidationIntegration:
    def test_invalid_model_rejected(self):
        b = SystemBuilder("Bad")
        b.thread(
            "t",
            dispatch=DispatchProtocol.PERIODIC,
            period=ms(10),
            compute_time=(ms(1), ms(1)),
            deadline=ms(10),
        )
        inst = b.instantiate(validate=False)
        with pytest.raises(AadlLegalityError):
            translate(inst)

    def test_validation_can_be_skipped_but_binding_still_needed(self):
        b = SystemBuilder("Bad")
        b.thread(
            "t",
            dispatch=DispatchProtocol.PERIODIC,
            period=ms(10),
            compute_time=(ms(1), ms(1)),
            deadline=ms(10),
        )
        inst = b.instantiate(validate=False)
        with pytest.raises(TranslationError):
            translate(inst, TranslationOptions(validate=False))


class TestEventPatterns:
    def test_default_at_completion(self):
        inst = sporadic_consumer()
        result = translate(inst)
        conn_qual = next(iter(result.queues))
        finish = result.env[
            result.threads["SporadicChain.producer"].skeleton_name.replace(
                "AD$", "F$"
            )
        ]
        # Finish chain starts with the enqueue event.
        assert finish.body.label.name.startswith("q$")

    def test_anytime_override(self):
        inst = sporadic_consumer()
        conn_qual = inst.connections[0].qualified_name
        result = translate(
            inst,
            TranslationOptions(
                pattern_overrides={conn_qual: EventSendPattern.ANYTIME}
            ),
        )
        exploration = explore(result.system, budget=Budget(max_states=200_000))
        assert exploration.completed

    def test_anytime_enlarges_state_space(self):
        inst = sporadic_consumer()
        conn_qual = inst.connections[0].qualified_name
        base = explore(
            translate(inst).system,
            budget=Budget(max_states=200_000),
        )
        anytime = explore(
            translate(
                inst,
                TranslationOptions(
                    pattern_overrides={conn_qual: EventSendPattern.ANYTIME}
                ),
            ).system,
            budget=Budget(max_states=200_000),
        )
        assert anytime.num_states > base.num_states


class TestDeviceSources:
    def test_device_source_stub_generated(self):
        src = """
        processor CPU
          properties
            Scheduling_Protocol => DMS;
        end CPU;
        device Radar
          features
            ping: out event port;
        end Radar;
        thread Tracker
          features
            ping: in event port;
          properties
            Dispatch_Protocol => Sporadic;
            Period => 4 ms;
            Compute_Execution_Time => 1 ms .. 1 ms;
            Compute_Deadline => 4 ms;
        end Tracker;
        system S end S;
        system implementation S.impl
          subcomponents
            radar: device Radar;
            tracker: thread Tracker;
            cpu: processor CPU;
          connections
            c1: port radar.ping -> tracker.ping;
          properties
            Actual_Processor_Binding => reference(cpu) applies to tracker;
        end S.impl;
        """
        from repro.aadl import parse_model, instantiate

        inst = instantiate(parse_model(src), "S.impl")
        result = translate(inst)
        assert result.num_queue_processes == 1
        device_names = result.names.names_of_kind("device_source")
        assert len(device_names) == 1
        # Environment-driven arrivals at min separation 4 with C=1, D=4:
        # always schedulable.
        exploration = explore(result.system, budget=Budget(max_states=200_000))
        assert exploration.completed and exploration.deadlock_free


class TestLatencyFlows:
    def test_observer_processes_added(self):
        inst = two_periodic_threads()
        flow = LatencyFlow(
            "f1", "TwoThreads.fast", "TwoThreads.slow", ms(8)
        )
        result = translate(inst, TranslationOptions(latency_flows=[flow]))
        assert "OBS$f1" in result.env.names()
        assert "obs_start$f1" in result.restricted_events

    def test_bound_too_small_rejected(self):
        inst = two_periodic_threads()
        flow = LatencyFlow(
            "f1", "TwoThreads.fast", "TwoThreads.slow", ms(0)
        )
        with pytest.raises(TranslationError):
            translate(inst, TranslationOptions(latency_flows=[flow]))


def _shared_access_model(*, reverse: bool) -> "SystemBuilder":
    """Two processors, two threads each, all four sharing one data
    classifier -- declared in opposite orders so dict insertion order
    differs while the model denotes the same system."""
    b = SystemBuilder("Ordered")
    cpus = {}
    specs = [
        ("alpha", "cpu_a", 2),
        ("beta", "cpu_a", 1),
        ("gamma", "cpu_b", 2),
        ("delta", "cpu_b", 1),
    ]
    order = list(reversed(specs)) if reverse else specs
    for _, cpu_name, _ in order:
        if cpu_name not in cpus:
            cpus[cpu_name] = b.processor(
                cpu_name, scheduling=SchedulingProtocol.HIGHEST_PRIORITY_FIRST
            )
    for name, cpu_name, priority in order:
        thread = b.thread(
            name,
            dispatch=DispatchProtocol.PERIODIC,
            period=ms(8),
            compute_time=(ms(1), ms(1)),
            deadline=ms(8),
            processor=cpus[cpu_name],
            priority=priority,
        )
        thread.requires_data_access("d", classifier="SharedState")
    return b


class TestDeterministicOutput:
    def test_declaration_order_does_not_change_acsr(self):
        """Byte-for-byte identical ACSR from differently-ordered
        declarations: the held-resources pre-pass (and every other
        translator loop) must iterate in sorted order, or verdict-cache
        keys would depend on dict insertion order."""
        from repro.acsr.printer import format_env

        opts = TranslationOptions(use_priority_ceiling=True)
        first = translate(
            _shared_access_model(reverse=False).instantiate(), opts
        )
        second = translate(
            _shared_access_model(reverse=True).instantiate(), opts
        )
        assert format_env(first.env, first.root) == format_env(
            second.env, second.root
        )


class TestUnboundDiagnostic:
    def test_all_unbound_threads_reported_at_once(self):
        b = SystemBuilder("Unbound")
        b.processor("cpu")
        for name in ("one", "two", "three"):
            b.thread(
                name,
                dispatch=DispatchProtocol.PERIODIC,
                period=ms(4),
                compute_time=(ms(1), ms(1)),
                deadline=ms(4),
            )
        with pytest.raises(TranslationError) as exc:
            translate(
                b.instantiate(validate=False),
                TranslationOptions(validate=False),
            )
        message = str(exc.value)
        assert "3 threads are not bound" in message
        for name in ("one", "two", "three"):
            assert f"Unbound.{name}" in message
        # Sorted, so the diagnostic is stable run to run.
        assert message.index("Unbound.one") < message.index("Unbound.three")
        assert message.index("Unbound.three") < message.index("Unbound.two")

    def test_single_unbound_thread_message(self):
        b = SystemBuilder("Solo")
        b.processor("cpu")
        b.thread(
            "only",
            dispatch=DispatchProtocol.PERIODIC,
            period=ms(4),
            compute_time=(ms(1), ms(1)),
            deadline=ms(4),
        )
        with pytest.raises(TranslationError, match="1 thread is not bound"):
            translate(
                b.instantiate(validate=False),
                TranslationOptions(validate=False),
            )


class TestCrossProcessorConnections:
    """The monolithic path must handle connections whose endpoints are
    bound to different processors (the compose fallback relies on it)."""

    def test_cross_processor_event_connection_translates(self):
        from repro.aadl.gallery import coupled_islands

        result = translate(coupled_islands())
        assert result.num_queue_processes == 1
        assert result.num_thread_processes == 4

    def test_cross_processor_chain_explores(self):
        from repro.aadl.gallery import coupled_islands
        from repro.analysis import Verdict, analyze_model

        result = analyze_model(coupled_islands())
        assert result.verdict is Verdict.SCHEDULABLE

    def test_cross_processor_miss_raises_remote_timeline(self):
        """An overloaded aperiodic on the far processor must show up in
        the raised scenario with its own dispatch/miss events."""
        from repro.analysis import Verdict, analyze_model

        b = SystemBuilder("FarMiss")
        cpu1 = b.processor("cpu1")
        cpu2 = b.processor("cpu2")
        producer = b.thread(
            "producer",
            dispatch=DispatchProtocol.PERIODIC,
            period=ms(4),
            compute_time=(ms(1), ms(1)),
            deadline=ms(4),
            processor=cpu1,
        )
        producer.out_event_port("kick")
        # steady hogs every other quantum of cpu2, so the 2 ms remote
        # job cannot fit inside its 2 ms deadline.
        b.thread(
            "steady",
            dispatch=DispatchProtocol.PERIODIC,
            period=ms(2),
            compute_time=(ms(1), ms(1)),
            deadline=ms(2),
            processor=cpu2,
            priority=2,
        )
        remote = b.thread(
            "remote",
            dispatch=DispatchProtocol.APERIODIC,
            compute_time=(ms(2), ms(2)),
            deadline=ms(2),
            processor=cpu2,
            priority=1,
        )
        remote.in_event_port("kick", queue_size=1)
        b.connect(producer, "kick", remote, "kick")
        result = analyze_model(b.instantiate())
        assert result.verdict is Verdict.UNSCHEDULABLE
        rendered = result.scenario.format()
        assert "FarMiss.remote" in rendered
        assert "deadline_miss" in rendered
