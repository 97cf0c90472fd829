"""FIG4: the thread skeleton and its semantic automaton.

Regenerates: single-thread systems per dispatch protocol, checking the
skeleton's conformance to the Figure 4 automaton -- AwaitDispatch waits,
dispatch enters Compute, completion returns to AwaitDispatch, and the
computeDeadline timeout realizes the Violation deadlock.
"""

import pytest

from repro.aadl.builder import SystemBuilder
from repro.aadl.properties import DispatchProtocol, SchedulingProtocol, ms
from repro.analysis import Verdict, analyze_model
from repro.translate import translate
from repro.engine import explore

from conftest import print_table


def single_thread(protocol: DispatchProtocol, wcet=2, deadline=4, period=8):
    b = SystemBuilder("Fig4")
    cpu = b.processor("cpu", scheduling=SchedulingProtocol.DEADLINE_MONOTONIC)
    thread = b.thread(
        "worker",
        dispatch=protocol,
        period=(
            ms(period)
            if protocol
            in (DispatchProtocol.PERIODIC, DispatchProtocol.SPORADIC)
            else None
        ),
        compute_time=(ms(wcet), ms(wcet)),
        deadline=ms(deadline),
        processor=cpu,
    )
    if protocol is not DispatchProtocol.PERIODIC:
        thread.in_event_port("go")
        driver = b.thread(
            "driver",
            dispatch=DispatchProtocol.PERIODIC,
            period=ms(period),
            compute_time=(ms(1), ms(1)),
            deadline=ms(period),
            processor=cpu,
        )
        driver.out_event_port("go")
        b.connect(driver, "go", thread, "go")
    return b.instantiate()


@pytest.mark.parametrize(
    "protocol",
    [
        DispatchProtocol.PERIODIC,
        DispatchProtocol.APERIODIC,
        DispatchProtocol.SPORADIC,
        DispatchProtocol.BACKGROUND,
    ],
)
def test_skeleton_per_protocol(benchmark, protocol):
    instance = single_thread(protocol)

    def run():
        return analyze_model(
            instance, stop_at_first_deadlock=False, reduction="none"
        )

    result = benchmark(run)
    assert result.verdict is Verdict.SCHEDULABLE
    print_table(
        f"FIG4 skeleton [{protocol.value}]",
        ["verdict", "states"],
        [[result.verdict.value, result.num_states]],
    )


def test_skeleton_states_visited(benchmark):
    """AwaitDispatch, Compute and Finish states all occur in the
    reachable space of a periodic thread."""
    instance = single_thread(DispatchProtocol.PERIODIC)
    translation = translate(instance)

    def run():
        return explore(translation.system, store_transitions=True)

    result = benchmark(run)
    seen_kinds = set()
    from repro.analysis.raising import _components

    for state in result.states():
        for ref in _components(state):
            entry = translation.names.lookup(ref.name)
            if entry:
                seen_kinds.add(entry[0])
    assert {"await", "compute", "finish"} <= seen_kinds


def test_violation_deadlock(benchmark):
    """An infeasible thread (interference exceeds deadline slack) drives
    the skeleton into the Violation deadlock."""
    b = SystemBuilder("Fig4V")
    cpu = b.processor("cpu", scheduling=SchedulingProtocol.DEADLINE_MONOTONIC)
    b.thread(
        "hog",
        dispatch=DispatchProtocol.PERIODIC,
        period=ms(4),
        compute_time=(ms(3), ms(3)),
        deadline=ms(3),
        processor=cpu,
    )
    b.thread(
        "victim",
        dispatch=DispatchProtocol.PERIODIC,
        period=ms(8),
        compute_time=(ms(3), ms(3)),
        deadline=ms(8),
        processor=cpu,
    )
    instance = b.instantiate()

    result = benchmark(lambda: analyze_model(instance))
    assert result.verdict is Verdict.UNSCHEDULABLE
    assert result.scenario.misses == ["Fig4V.victim"]
