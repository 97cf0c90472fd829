"""Property-based tests of the translation layer (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.aadl.builder import SystemBuilder
from repro.aadl.properties import (
    DispatchProtocol,
    SchedulingProtocol,
    TimeValue,
    ms,
    us,
)
from repro.errors import QuantizationError
from repro.translate import translate
from repro.translate.quantum import TimingQuantizer


def build_single(period_us, exec_lo_us, exec_hi_us, deadline_us):
    b = SystemBuilder("Q")
    cpu = b.processor("cpu")
    b.thread(
        "t",
        dispatch=DispatchProtocol.PERIODIC,
        period=us(period_us),
        compute_time=(us(exec_lo_us), us(exec_hi_us)),
        deadline=us(deadline_us),
        processor=cpu,
    )
    inst = b.instantiate()
    return inst.threads()[0]


durations = st.integers(min_value=100, max_value=20_000)
quanta = st.integers(min_value=100, max_value=5_000)


class TestQuantizerProperties:
    @given(durations, durations, quanta)
    def test_conservative_rounding(self, exec_us, deadline_us, quantum_us):
        exec_us = min(exec_us, deadline_us)
        thread = build_single(
            deadline_us, exec_us, exec_us, deadline_us
        )
        quantizer = TimingQuantizer(us(quantum_us))
        try:
            timing = quantizer.thread_timing(thread)
        except QuantizationError:
            return  # infeasible at this quantum: allowed outcome
        # WCET rounds up, deadline rounds down.
        assert timing.cmax * quantum_us >= exec_us
        assert timing.deadline * quantum_us <= deadline_us
        assert 1 <= timing.cmin <= timing.cmax <= timing.deadline
        if timing.period is not None:
            assert timing.deadline <= timing.period

    @given(durations, quanta)
    def test_exactness_detection(self, exec_us, quantum_us):
        deadline_us = exec_us * 4
        thread = build_single(deadline_us, exec_us, exec_us, deadline_us)
        quantizer = TimingQuantizer(us(quantum_us))
        try:
            timing = quantizer.thread_timing(thread)
        except QuantizationError:
            return
        divisible = (
            exec_us % quantum_us == 0 and deadline_us % quantum_us == 0
        )
        assert timing.exact == divisible
        if divisible:
            assert timing.cmax * quantum_us == exec_us
            assert timing.deadline * quantum_us == deadline_us

    @given(durations)
    def test_natural_quantum_is_exact(self, exec_us):
        deadline_us = exec_us * 3
        b = SystemBuilder("N")
        cpu = b.processor("cpu")
        b.thread(
            "t",
            dispatch=DispatchProtocol.PERIODIC,
            period=us(deadline_us),
            compute_time=(us(exec_us), us(exec_us)),
            deadline=us(deadline_us),
            processor=cpu,
        )
        inst = b.instantiate()
        quantizer = TimingQuantizer.natural(inst)
        timing = quantizer.thread_timing(inst.threads()[0])
        assert timing.exact


small_sets = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=2),
        st.sampled_from([4, 8]),
    ),
    min_size=1,
    max_size=3,
)


class TestTranslationInvariants:
    @given(small_sets)
    @settings(max_examples=30)  # full translation per example
    def test_counts_and_closure(self, specs):
        b = SystemBuilder("P")
        cpu = b.processor("cpu")
        for index, (wcet, period) in enumerate(specs):
            b.thread(
                f"t{index}",
                dispatch=DispatchProtocol.PERIODIC,
                period=ms(period),
                compute_time=(ms(wcet), ms(wcet)),
                deadline=ms(period),
                processor=cpu,
            )
        result = translate(b.instantiate())
        assert result.num_thread_processes == len(specs)
        assert result.num_dispatchers == len(specs)
        assert result.root.is_closed()
        # Every thread's dispatch/done is restricted.
        assert len(result.restricted_events) == 2 * len(specs)

    @given(small_sets)
    @settings(max_examples=15)  # full exploration per example
    def test_exploration_time_diverges_or_deadlocks(self, specs):
        """Every reachable path either continues (time can always
        progress in a schedulable model) or ends in a deadlock; the
        explorer terminates because parameters are bounded."""
        from repro.engine import Budget, explore

        b = SystemBuilder("P")
        cpu = b.processor("cpu")
        for index, (wcet, period) in enumerate(specs):
            b.thread(
                f"t{index}",
                dispatch=DispatchProtocol.PERIODIC,
                period=ms(period),
                compute_time=(ms(wcet), ms(wcet)),
                deadline=ms(period),
                processor=cpu,
            )
        result = translate(b.instantiate())
        exploration = explore(result.system, budget=Budget(max_states=200_000))
        assert exploration.completed
