"""FIG5: the Compute process with dynamic parameters (e, s).

Regenerates: state-space sizes of a single thread as functions of the
execution-time budget cmax and the deadline (the ranges of the dynamic
parameters).  Checked shape: reachable states grow linearly in both --
the parameters are the only source of state, exactly as the paper's
finite-state argument requires; execution-time *uncertainty*
(cmin < cmax) multiplies behaviours but stays finite.
"""

import pytest

from repro.aadl.builder import SystemBuilder
from repro.aadl.properties import DispatchProtocol, SchedulingProtocol, ms
from repro.analysis import Verdict, analyze_model

from conftest import print_table


def one_thread(cmin, cmax, deadline, period):
    b = SystemBuilder("Fig5")
    cpu = b.processor("cpu", scheduling=SchedulingProtocol.RATE_MONOTONIC)
    b.thread(
        "t",
        dispatch=DispatchProtocol.PERIODIC,
        period=ms(period),
        compute_time=(ms(cmin), ms(cmax)),
        deadline=ms(deadline),
        processor=cpu,
    )
    return b.instantiate()


def states_of(instance):
    # Pin the quantum: the default GCD quantum would rescale the sweep
    # parameters and hide the growth being measured.
    result = analyze_model(
        instance, quantum=ms(1), stop_at_first_deadlock=False,
        reduction="none",
    )
    assert result.verdict is Verdict.SCHEDULABLE
    return result.num_states


def test_states_grow_linearly_with_period(benchmark):
    """The dynamic parameters (e, s, and the dispatcher counter k) range
    over the period: reachable states grow linearly with it."""

    def sweep():
        return [
            (period, states_of(one_thread(2, 2, period, period)))
            for period in (4, 8, 12, 16)
        ]

    series = benchmark(sweep)
    sizes = [states for _, states in series]
    assert sizes == sorted(sizes)
    # Linear shape: each +4 of period adds a near-constant increment.
    increments = [b - a for a, b in zip(sizes, sizes[1:])]
    assert max(increments) <= 2 * max(1, min(increments))
    print_table(
        "FIG5 states vs period (cmin=cmax=2, D=T)",
        ["period", "states"],
        series,
    )


def test_states_grow_with_execution_uncertainty(benchmark):
    """Widening [cmin, cmax] opens Figure 5's early-completion window:
    each extra admissible duration adds behaviours."""

    def sweep():
        return [
            (cmax, states_of(one_thread(1, cmax, 12, 12)))
            for cmax in (1, 2, 4, 6)
        ]

    series = benchmark(sweep)
    sizes = [states for _, states in series]
    assert sizes == sorted(sizes)
    assert sizes[-1] > sizes[0]
    print_table(
        "FIG5 states vs execution-time uncertainty (cmin=1, D=T=12)",
        ["cmax", "states"],
        series,
    )


def test_execution_time_uncertainty_adds_states(benchmark):
    """cmin < cmax: the complete-exit window opens at cmin, producing
    extra behaviours (Figure 5's nondeterministic exit)."""

    def measure():
        tight = states_of(one_thread(4, 4, 8, 8))
        loose = states_of(one_thread(1, 4, 8, 8))
        return tight, loose

    tight, loose = benchmark(measure)
    assert loose > tight
    print_table(
        "FIG5 deterministic vs uncertain execution time (D=T=8, cmax=4)",
        ["cmin=cmax=4", "cmin=1, cmax=4"],
        [[tight, loose]],
    )


def test_preemption_branch_reachable(benchmark):
    """With a higher-priority interferer, the Compute process visits its
    Preempted branch: states where s advances but e does not."""
    b = SystemBuilder("Fig5P")
    cpu = b.processor("cpu", scheduling=SchedulingProtocol.RATE_MONOTONIC)
    b.thread(
        "high",
        dispatch=DispatchProtocol.PERIODIC,
        period=ms(4),
        compute_time=(ms(1), ms(1)),
        deadline=ms(4),
        processor=cpu,
    )
    b.thread(
        "low",
        dispatch=DispatchProtocol.PERIODIC,
        period=ms(8),
        compute_time=(ms(4), ms(4)),
        deadline=ms(8),
        processor=cpu,
    )
    instance = b.instantiate()

    def run():
        return analyze_model(
            instance, stop_at_first_deadlock=False, reduction="none"
        )

    result = benchmark(run)
    assert result.verdict is Verdict.SCHEDULABLE
    # Dig out a Compute state with s > e (preempted at least once).
    from repro.analysis.raising import _components
    from repro.engine import explore

    exploration = explore(result.translation.system, store_transitions=True)
    preempted = False
    for state in exploration.states():
        for ref in _components(state):
            entry = result.translation.names.lookup(ref.name)
            if entry and entry[0] == "compute" and len(ref.args) == 2:
                e, s = ref.args
                if s > e:
                    preempted = True
    assert preempted
