"""FIG2: the 'Simple' ACSR process (computation + communication steps).

Regenerates: Figure 2a (deadlocks when the environment blocks `done`)
and Figure 2b (idling steps let the process wait for resources).
Checked shape: 2a's lifecycle is cpu-step, cpu+bus-step, done-handshake;
without a receiver the restricted 2a deadlocks where 2b idles forever.
"""

import pytest

from repro.acsr import (
    ProcessEnv,
    action,
    choice,
    idle,
    nil,
    parallel,
    proc,
    recv,
    restrict,
    send,
)
from repro.acsr.resources import Action
from repro.engine import explore
from repro.versa import find_deadlock

from conftest import print_table


def build_simple(with_idling: bool):
    env = ProcessEnv()
    step2 = action({"cpu": 1, "bus": 1}) >> send("done", 1) >> proc("Simple")
    first = action({"cpu": 1}) >> proc("Step2")
    if with_idling:
        env.define("Simple", (), choice(first, idle().then(proc("Simple"))))
        env.define(
            "Step2", (), choice(step2, idle().then(proc("Step2")))
        )
    else:
        env.define("Simple", (), first)
        env.define("Step2", (), step2)
    env.define(
        "Recv",
        (),
        choice(recv("done", 1).then(proc("Recv")), idle().then(proc("Recv"))),
    )
    return env.close(
        restrict(parallel(proc("Simple"), proc("Recv")), ["done"])
    )


def test_figure2a_lifecycle(benchmark):
    system = build_simple(with_idling=False)

    def lifecycle():
        state = system.root
        labels = []
        for _ in range(3):
            steps = system.prioritized_steps(state)
            label, state = steps[0]
            labels.append(label)
        return labels, state

    labels, state = benchmark(lifecycle)
    assert labels[0] is Action([("cpu", 1)])
    assert labels[1] is Action([("cpu", 1), ("bus", 1)])
    assert labels[2].is_tau and labels[2].via == "done"
    assert state is system.root  # loops back
    print_table(
        "FIG2a lifecycle",
        ["step 1", "step 2", "step 3"],
        [[str(l) for l in labels]],
    )


def _bus_hog(env):
    """Holds the bus for two quanta, then idles forever."""
    env.define(
        "Hog",
        (),
        action({"bus": 2}) >> action({"bus": 2}) >> proc("HogIdle"),
    )
    env.define("HogIdle", (), idle().then(proc("HogIdle")))


def test_figure2a_deadlocks_on_busy_resource(benchmark):
    """Without idling steps, Simple cannot wait for the bus: composed
    with a bus hog, its second step is excluded and it deadlocks."""
    env = ProcessEnv()
    env.define(
        "Simple",
        (),
        action({"cpu": 1})
        >> action({"cpu": 1, "bus": 1})
        >> send("done", 1)
        >> proc("Simple"),
    )
    _bus_hog(env)
    system = env.close(parallel(proc("Simple"), proc("Hog")))
    trace = benchmark(find_deadlock, system)
    assert trace is not None and trace.duration == 1


def test_figure2b_idling_waits_for_resource(benchmark):
    """With idling steps (Fig 2b) the process waits for the bus and
    completes once the hog releases it."""
    env = ProcessEnv()
    env.define(
        "Simple",
        (),
        choice(
            action({"cpu": 1}) >> proc("Step2"),
            idle().then(proc("Simple")),
        ),
    )
    env.define(
        "Step2",
        (),
        choice(
            action({"cpu": 1, "bus": 1}) >> send("done", 1) >> proc("Simple"),
            idle().then(proc("Step2")),
        ),
    )
    _bus_hog(env)
    system = env.close(parallel(proc("Simple"), proc("Hog")))

    def run():
        return explore(system)

    result = benchmark(run)
    assert result.deadlock_free
    print_table(
        "FIG2 idling vs non-idling while a hog holds the bus",
        ["variant", "deadlocks"],
        [["2a (no idling)", "yes"], ["2b (idling)", "no"]],
    )
