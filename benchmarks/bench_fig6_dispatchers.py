"""FIG6: the three dispatcher shapes (periodic, aperiodic, sporadic).

Regenerates the distinguishing behaviours of Figure 6:

* (a) the periodic dispatcher's initial state *cannot idle* -- it must
  send dispatch immediately;
* (b) the aperiodic dispatcher *can idle* awaiting a queue event;
* (c) the sporadic dispatcher enforces the minimum separation: with a
  saturating producer, dispatches are exactly P apart, so the consumer's
  observed throughput is 1/P regardless of the arrival rate.
"""

import pytest

from repro.acsr.events import EventLabel
from repro.aadl.builder import SystemBuilder
from repro.aadl.gallery import aperiodic_worker, sporadic_consumer
from repro.aadl.properties import DispatchProtocol, SchedulingProtocol, ms
from repro.analysis import Verdict, analyze_model
from repro.translate import translate
from repro.engine import Budget, explore

from conftest import print_table


def test_periodic_cannot_idle_at_dispatch(benchmark):
    b = SystemBuilder("Fig6a")
    cpu = b.processor("cpu")
    b.thread(
        "t",
        dispatch=DispatchProtocol.PERIODIC,
        period=ms(4),
        compute_time=(ms(1), ms(1)),
        deadline=ms(4),
        processor=cpu,
    )
    translation = translate(b.instantiate())
    dispatcher = translation.threads["Fig6a.t"].dispatcher_name

    def initial_steps():
        from repro.acsr.terms import proc

        return translation.system.steps(proc(dispatcher))

    steps = benchmark(initial_steps)
    labels = [label for label, _ in steps]
    assert len(labels) == 1
    assert isinstance(labels[0], EventLabel)
    assert labels[0].name.startswith("dispatch$")
    print_table(
        "FIG6a initial dispatcher steps (no idle alternative)",
        ["labels"],
        [[", ".join(str(l) for l in labels)]],
    )


def test_aperiodic_can_idle(benchmark):
    instance = aperiodic_worker()
    translation = translate(instance)
    dispatcher = translation.threads[
        "AperiodicChain.worker"
    ].dispatcher_name

    def initial_steps():
        from repro.acsr.terms import proc

        return translation.system.steps(proc(dispatcher))

    steps = benchmark(initial_steps)
    kinds = {str(label) for label, _ in steps}
    assert "idle" in kinds
    assert any(k.startswith("(dq$") for k in kinds)
    print_table(
        "FIG6b initial dispatcher steps (idle allowed)",
        ["labels"],
        [[", ".join(sorted(kinds))]],
    )


def test_aperiodic_end_to_end(benchmark):
    result = benchmark(lambda: analyze_model(aperiodic_worker()))
    assert result.verdict is Verdict.SCHEDULABLE


def test_sporadic_separation_throttles(benchmark):
    """Fig 6c: producer at period 2, consumer min separation 6 -- the
    queue (Drop) absorbs the excess and the system is schedulable; the
    same system with an Error queue overflows."""
    from repro.aadl.properties import OverflowHandlingProtocol

    def run_both():
        drop = analyze_model(
            sporadic_consumer(
                producer_period=2,
                min_separation=6,
                queue_size=1,
                overflow=OverflowHandlingProtocol.DROP_NEWEST,
            )
        )
        error = analyze_model(
            sporadic_consumer(
                producer_period=2,
                min_separation=6,
                queue_size=1,
                overflow=OverflowHandlingProtocol.ERROR,
            )
        )
        return drop, error

    drop, error = benchmark(run_both)
    assert drop.verdict is Verdict.SCHEDULABLE
    assert error.verdict is Verdict.UNSCHEDULABLE
    assert error.scenario.overflows
    print_table(
        "FIG6c sporadic separation under a saturating producer",
        ["overflow protocol", "verdict"],
        [
            ["DropNewest", drop.verdict.value],
            ["Error", error.verdict.value],
        ],
    )


def test_sporadic_dispatch_spacing(benchmark):
    """Within the explored space, consecutive dispatches of the sporadic
    consumer are >= P quanta apart."""
    instance = sporadic_consumer(
        producer_period=2, min_separation=4, queue_size=1
    )
    translation = translate(instance)

    def run():
        return explore(
            translation.system,
            budget=Budget(max_states=200_000),
            store_transitions=True,
        )

    result = benchmark(run)
    assert result.completed

    # From each post-dispatch state, count timed steps to the next
    # dispatch along every path: must be >= 4.
    import collections

    dispatch_via = next(
        name
        for name in translation.restricted_events
        if name.startswith("dispatch$SporadicChain_consumer")
    )
    for state in result.states():
        for label, succ in result.transitions_of(state):
            if not (
                isinstance(label, EventLabel) and label.via == dispatch_via
            ):
                continue
            queue = collections.deque([(succ, 0)])
            seen = {succ}
            while queue:
                current, depth = queue.popleft()
                for lab, nxt in result.transitions_of(current):
                    if (
                        isinstance(lab, EventLabel)
                        and lab.via == dispatch_via
                    ):
                        assert depth >= 4
                        continue
                    timed = 0 if isinstance(lab, EventLabel) else 1
                    if nxt not in seen and depth + timed < 4:
                        seen.add(nxt)
                        queue.append((nxt, depth + timed))
