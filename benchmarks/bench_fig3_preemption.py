"""FIG3: parallel composition, preemption, and scope exits.

Regenerates: the Figure 3 system -- Simple under a temporal scope with
exception/interrupt exits, composed with the driver that preempts it on
the bus.  Checked shape: the driver's (bus,2) claim excludes Simple's
cpu+bus step for one quantum; both the interrupt handler and the
exception handler are reachable; the composed state space stays tiny.
"""

import pytest

from repro.acsr import parse_env
from repro.acsr.resources import Action
from repro.engine import explore
from repro.versa import find_reachable
from repro.versa.queries import contains_proc

from conftest import print_table

FIGURE3 = r"""
process Simple  = {(cpu,1)} : Step2
                + idle : (exc!,1) . Simple;
process Step2   = {(cpu,1),(bus,1)} : (done!,1) . Simple
                + idle : Step2;
process Driver  = {(bus,2)} : {(bus,2)} : idle :
                  ( (interrupt!,0) . DriverIdle
                  + {(cpu,2)} : Starver );
process Starver = {(cpu,2)} : Starver;
process DriverIdle = idle : DriverIdle;
process ExcHandler = idle : ExcHandler;
process IntHandler = idle : IntHandler;
system ( scope( Simple; inf;
                except exc -> ExcHandler;
                interrupt -> (interrupt?,0) . IntHandler )
         || Driver ) \ {interrupt};
"""


@pytest.fixture(scope="module")
def system():
    env, root = parse_env(FIGURE3)
    return env.close(root)


def test_exploration(benchmark, system):
    result = benchmark(lambda: explore(system))
    assert result.completed
    assert result.deadlock_free
    print_table(
        "FIG3 composed state space",
        ["states", "transitions"],
        [[result.num_states, result.num_transitions]],
    )


def test_bus_preemption_step(benchmark, system):
    """Second quantum: the driver holds (bus,2); Simple cannot take its
    cpu+bus step and idles (Figure 3's 'preempts the execution of Simple
    for one time step')."""

    def second_state_labels():
        steps = system.prioritized_steps(system.root)
        timed = [(l, s) for l, s in steps if isinstance(l, Action)]
        _, state = timed[0]
        return [l for l, _ in system.prioritized_steps(state)]

    labels = benchmark(second_state_labels)
    for label in labels:
        if isinstance(label, Action):
            assert label.priority_of("bus") == 2
            assert "cpu" not in label


def test_interrupt_exit_reachable(benchmark, system):
    trace = benchmark(
        find_reachable, system, contains_proc("IntHandler")
    )
    assert trace is not None


def test_exception_exit_reachable(benchmark, system):
    trace = benchmark(
        find_reachable, system, contains_proc("ExcHandler")
    )
    assert trace is not None
    # The exception requires the full first iteration plus a starved
    # quantum: strictly longer than the shortest interrupt path.
    interrupt_trace = find_reachable(system, contains_proc("IntHandler"))
    assert len(trace) > len(interrupt_trace)
    print_table(
        "FIG3 exit scenarios",
        ["exit", "trace length"],
        [
            ["interrupt (involuntary)", len(interrupt_trace)],
            ["exception (starved)", len(trace)],
        ],
    )
