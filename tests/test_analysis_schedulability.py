"""Tests of the top-level analysis pipeline and trace raising."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aadl.gallery import (
    aperiodic_worker,
    cruise_control,
    sporadic_consumer,
    two_periodic_threads,
)
from repro.aadl.properties import OverflowHandlingProtocol, ms
from repro.analysis import (
    AadlScenario,
    Verdict,
    analyze_model,
    raise_trace,
    render_timeline,
)
from repro.analysis.raising import PREEMPTED, RUNNING, WAITING
from repro.oracle.campaign import PROFILES, draw_case
from repro.versa import find_deadlock


class TestVerdicts:
    def test_schedulable(self):
        result = analyze_model(two_periodic_threads(schedulable=True))
        assert result.verdict is Verdict.SCHEDULABLE
        assert result.schedulable is True
        assert result.scenario is None

    def test_unschedulable_with_scenario(self):
        result = analyze_model(two_periodic_threads(schedulable=False))
        assert result.verdict is Verdict.UNSCHEDULABLE
        assert result.schedulable is False
        assert isinstance(result.scenario, AadlScenario)

    def test_unknown_on_budget(self):
        result = analyze_model(cruise_control(), max_states=10)
        assert result.verdict is Verdict.UNKNOWN
        assert result.schedulable is None

    def test_quantum_override(self):
        result = analyze_model(cruise_control(), quantum=ms(5))
        assert result.translation.quantizer.quantum == ms(5)
        assert result.verdict is Verdict.SCHEDULABLE

    def test_format_output(self):
        result = analyze_model(two_periodic_threads(schedulable=False))
        text = result.format()
        assert "unschedulable" in text
        assert "deadline_miss" in text or "DEADLINE MISS" in text


class TestScenarioRaising:
    @pytest.fixture
    def failing(self):
        return analyze_model(two_periodic_threads(schedulable=False))

    def test_miss_attributed_to_starved_thread(self, failing):
        assert failing.scenario.misses == ["TwoThreads.slow"]

    def test_dispatch_events_at_time_zero(self, failing):
        dispatches = [
            e for e in failing.scenario.events if e.kind == "dispatch"
        ]
        assert {e.element for e in dispatches if e.time == 0} == {
            "TwoThreads.fast",
            "TwoThreads.slow",
        }

    def test_completions_attributed(self, failing):
        completions = [
            e for e in failing.scenario.events if e.kind == "complete"
        ]
        assert all(e.element == "TwoThreads.fast" for e in completions)

    def test_activity_rows_cover_duration(self, failing):
        scenario = failing.scenario
        for qual, row in scenario.activity.items():
            assert len(row) == scenario.duration

    def test_high_priority_thread_runs_low_preempted(self, failing):
        activity = failing.scenario.activity
        # At t=0 the fast (high-priority) thread runs; slow is preempted.
        assert activity["TwoThreads.fast"][0] == RUNNING
        assert activity["TwoThreads.slow"][0] == PREEMPTED

    def test_timeline_renders(self, failing):
        text = render_timeline(failing.scenario)
        assert "TwoThreads.fast" in text
        assert "#" in text and "." in text

    def test_duration_matches_deadline(self, failing):
        # The slow thread's deadline is 8 quanta; BFS finds the miss there.
        assert failing.scenario.duration == 8


class TestQueueOverflowScenario:
    def test_error_overflow_detected(self):
        inst = sporadic_consumer(
            queue_size=1,
            overflow=OverflowHandlingProtocol.ERROR,
            producer_period=2,
            min_separation=8,
        )
        result = analyze_model(inst)
        assert result.verdict is Verdict.UNSCHEDULABLE
        assert result.scenario.overflows
        assert any(
            e.kind == "queue_overflow" for e in result.scenario.events
        )

    def test_drop_overflow_is_schedulable(self):
        inst = sporadic_consumer(
            queue_size=1,
            overflow=OverflowHandlingProtocol.DROP_NEWEST,
            producer_period=2,
            min_separation=8,
        )
        result = analyze_model(inst)
        assert result.verdict is Verdict.SCHEDULABLE


class TestEventDrivenScenarios:
    def test_aperiodic_enqueue_dequeue_events(self):
        """An aperiodic worker preempted by its own producer misses its
        deadline; the scenario shows the dispatching event chain."""
        from repro.aadl.builder import SystemBuilder
        from repro.aadl.properties import DispatchProtocol, SchedulingProtocol

        b = SystemBuilder("Ap")
        cpu = b.processor(
            "cpu", scheduling=SchedulingProtocol.DEADLINE_MONOTONIC
        )
        producer = b.thread(
            "producer",
            dispatch=DispatchProtocol.PERIODIC,
            period=ms(3),
            compute_time=(ms(2), ms(2)),
            deadline=ms(2),
            processor=cpu,
        )
        producer.out_event_port("go")
        worker = b.thread(
            "worker",
            dispatch=DispatchProtocol.APERIODIC,
            compute_time=(ms(2), ms(2)),
            deadline=ms(2),
            processor=cpu,
        )
        worker.in_event_port("go")
        b.connect(producer, "go", worker, "go")
        result = analyze_model(b.instantiate())
        assert result.verdict is Verdict.UNSCHEDULABLE
        kinds = {e.kind for e in result.scenario.events}
        assert "enqueue" in kinds
        assert "dequeue" in kinds
        assert "deadline_miss" in kinds

    def test_aperiodic_worker_gallery_schedulable(self):
        result = analyze_model(aperiodic_worker())
        assert result.verdict is Verdict.SCHEDULABLE

    def test_cruise_control_overloaded_scenario(self):
        from repro.aadl.gallery import cruise_control

        result = analyze_model(cruise_control(overloaded=True))
        assert result.verdict is Verdict.UNSCHEDULABLE
        assert any(
            "cruise" in miss for miss in result.scenario.misses
        )


class TestClassify:
    """Unit tests of the per-quantum activity classifier.

    ``_classify`` sees the skeleton state of one thread before and
    after a timed action: ``(phase, params)`` tuples, with the
    remaining-work counter first in ``params`` for compute states.
    """

    def test_final_compute_step_is_running(self):
        # A thread whose compute state transitions straight to finish
        # spent that quantum executing -- the last quantum of its
        # budget, not a preemption.
        from repro.analysis.raising import _classify

        assert _classify(("compute", (1, 5)), ("finish", ())) == RUNNING

    def test_stalled_compute_args_mean_preempted(self):
        # Dispatched but not holding the CPU: the remaining-work
        # counter did not advance across the quantum.
        from repro.analysis.raising import _classify

        assert (
            _classify(("compute", (3, 5)), ("compute", (3, 5)))
            == PREEMPTED
        )

    def test_advancing_compute_args_mean_running(self):
        from repro.analysis.raising import _classify

        assert (
            _classify(("compute", (3, 5)), ("compute", (4, 5)))
            == RUNNING
        )

    def test_thread_vanishing_mid_handshake_waits(self):
        # Mid-handshake the thread process is an event-prefix chain,
        # which carries no skeleton state: ``after`` comes back None.
        # That must read as waiting, never as a crash or a phantom run.
        from repro.analysis.raising import _classify

        assert _classify(("compute", (2, 5)), None) == WAITING

    def test_never_dispatched_thread_waits(self):
        from repro.analysis.raising import _classify

        assert _classify(None, None) == WAITING
        assert _classify(None, ("compute", (0, 5))) == WAITING

    def test_await_and_finish_states_wait(self):
        from repro.analysis.raising import _classify

        assert _classify(("await", ()), ("await", ())) == WAITING
        assert _classify(("finish", ()), ("await", ())) == WAITING

    def test_compute_without_args_defaults_to_waiting(self):
        # Degenerate zero-budget compute states carry no counter to
        # compare; the classifier must not crash on the empty tuple.
        from repro.analysis.raising import _classify

        assert _classify(("compute", ()), ("compute", ())) == WAITING


class TestTimelineRuler:
    def _scenario(self, duration, events=()):
        from repro.analysis.raising import ScenarioEvent

        return AadlScenario(
            [ScenarioEvent(*args) for args in events],
            {"Sys.thread": [RUNNING] * duration},
            duration,
            False,
            [],
            [],
        )

    def test_short_timeline_has_single_ruler_row(self):
        text = render_timeline(self._scenario(8))
        rows = text.splitlines()
        assert rows[0].strip() == "01234567"
        assert "Sys.thread" in rows[1]

    def test_long_timeline_gets_tens_row(self):
        text = render_timeline(self._scenario(23))
        rows = text.splitlines()
        # Tens row: digits only at multiples of ten, read vertically
        # with the ones row below it (t=12 reads "1" over "2").
        assert rows[0].strip() == "0         1         2"
        assert rows[1].strip() == "01234567890123456789012"
        tens, ones = rows[0], rows[1]
        # Columns align: the tens digit "1" sits over the ones "0" of t=10.
        assert ones[tens.index("1")] == "0"

    def test_queue_overflow_marked_under_chart(self):
        text = render_timeline(
            self._scenario(
                5, events=[(3, "queue_overflow", "Sys.conn")]
            )
        )
        assert "t=3" in text
        assert "queue_overflow" in text
        assert "Sys.conn" in text


class TestHistoryIndependence:
    ARGVS = (
        ("seed33",),
        ("seed33", "--reduce", "sym,por"),
        ("replicated", "--reduce", "sym,por"),
    )

    @pytest.fixture(scope="class")
    def fresh_texts(self, history_models, fresh_cli):
        return {
            argv: fresh_cli(self._argv(argv, history_models))
            for argv in self.ARGVS
        }

    @staticmethod
    def _argv(argv, history_models):
        return ["analyze", history_models[argv[0]], *argv[1:], "--stats"]

    @settings(max_examples=10)
    @given(warm_up=st.lists(st.integers(0, 9_999), max_size=3))
    def test_warm_up_does_not_change_the_search(
        self, history_models, cli_here, fresh_texts, warm_up
    ):
        """Whatever ran before in the process, the unreduced witness
        search and the ``sym,por`` search count the states, and raise
        the scenario, of a fresh process."""
        for seed in warm_up:
            analyze_model(draw_case(PROFILES["smoke"], seed, seed).system())
        for argv, text in fresh_texts.items():
            assert cli_here(self._argv(argv, history_models)) == text
