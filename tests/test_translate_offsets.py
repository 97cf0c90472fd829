"""Tests of Dispatch_Offset: phase-shifted periodic dispatching.

Phase offsets showcase the approach's reach: classical synchronous
analysis (RTA) assumes a simultaneous critical instant and rejects sets
that a phased schedule runs cleanly -- the exhaustive ACSR exploration
verifies the phased system exactly.
"""

import pytest

from repro.errors import QuantizationError
from repro.aadl.builder import SystemBuilder
from repro.aadl.properties import DispatchProtocol, SchedulingProtocol, ms
from repro.analysis import Verdict, analyze_model
from repro.sched import extract_task_set, rta_schedulable, simulate
from repro.translate import translate
from repro.translate.quantum import TimingQuantizer
from repro.engine import explore


def two_tight_threads(offset: int):
    """Two C=2, T=8, D=2 threads: simultaneous release starves the
    lower-priority one; an offset >= 2 separates them."""
    b = SystemBuilder("Off")
    cpu = b.processor("cpu", scheduling=SchedulingProtocol.RATE_MONOTONIC)
    b.thread(
        "a",
        dispatch=DispatchProtocol.PERIODIC,
        period=ms(8),
        compute_time=(ms(2), ms(2)),
        deadline=ms(2),
        processor=cpu,
    )
    b.thread(
        "b",
        dispatch=DispatchProtocol.PERIODIC,
        period=ms(8),
        compute_time=(ms(2), ms(2)),
        deadline=ms(2),
        processor=cpu,
        offset=ms(offset) if offset else None,
    )
    return b.instantiate()


class TestOffsetSeparation:
    def test_synchronous_release_misses(self):
        result = analyze_model(two_tight_threads(0))
        assert result.verdict is Verdict.UNSCHEDULABLE

    @pytest.mark.parametrize("offset", [2, 3, 4, 6])
    def test_phased_release_schedulable(self, offset):
        result = analyze_model(two_tight_threads(offset))
        assert result.verdict is Verdict.SCHEDULABLE

    def test_insufficient_offset_still_misses(self):
        result = analyze_model(two_tight_threads(1))
        assert result.verdict is Verdict.UNSCHEDULABLE

    def test_classical_rta_cannot_see_the_offset(self):
        """RTA's synchronous worst case rejects the phased set that the
        exhaustive exploration proves schedulable."""
        inst = two_tight_threads(4)
        tasks = extract_task_set(inst, inst.processors()[0])
        assert not rta_schedulable(tasks, ordering="rate")
        assert analyze_model(inst).verdict is Verdict.SCHEDULABLE

    def test_simulation_agrees_with_acsr_on_offsets(self):
        for offset in (0, 1, 2, 4):
            inst = two_tight_threads(offset)
            tasks = extract_task_set(inst, inst.processors()[0])
            sim_ok = simulate(tasks, policy="rate").schedulable
            acsr_ok = (
                analyze_model(inst).verdict is Verdict.SCHEDULABLE
            )
            assert sim_ok == acsr_ok, f"offset={offset}"


class TestOffsetMechanics:
    def test_first_dispatch_at_offset(self):
        translation = translate(two_tight_threads(3))
        from repro.acsr.events import EventLabel

        exploration = explore(translation.system, store_transitions=True)
        dispatch_b = "dispatch$Off_b"
        times = set()
        for state in exploration.states():
            for label, _ in exploration.transitions_of(state):
                if isinstance(label, EventLabel) and label.via == dispatch_b:
                    times.add(exploration.trace_to(state).duration % 8)
        assert times == {3}

    def test_offset_countdown_state_registered(self):
        translation = translate(two_tight_threads(3))
        offsets = translation.names.names_of_kind("dispatcher_offset")
        assert list(offsets.values()) == ["Off.b"]

    def test_zero_offset_adds_no_state(self):
        translation = translate(two_tight_threads(0))
        assert translation.names.names_of_kind("dispatcher_offset") == {}

    def test_offset_must_be_below_period(self):
        with pytest.raises(QuantizationError):
            translate(two_tight_threads(8))

    def test_quantizer_records_offset(self):
        inst = two_tight_threads(4)
        thread_b = [t for t in inst.threads() if t.name == "b"][0]
        timing = TimingQuantizer(ms(1)).thread_timing(thread_b)
        assert timing.offset == 4
        thread_a = [t for t in inst.threads() if t.name == "a"][0]
        assert TimingQuantizer(ms(1)).thread_timing(thread_a).offset == 0
