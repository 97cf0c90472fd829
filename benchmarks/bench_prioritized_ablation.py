"""T-PRIO: ablation of the prioritized transition relation.

The preemption relation is what turns ACSR's resource semantics into a
*scheduler*: removing it (exploring the unprioritized relation) both
inflates the state space with dominated interleavings and destroys the
schedulability verdict (low-priority work can 'win' the cpu).  Checked
shape: prioritized transitions are a strict subset; the unprioritized
cruise-control space is larger by a clear factor; a schedulable system
appears unschedulable without priorities.
"""

import pytest

from repro.aadl.gallery import cruise_control, two_periodic_threads
from repro.translate import translate
from repro.engine import Budget, explore

from conftest import print_table


def test_cruise_control_reduction(benchmark):
    translation = translate(cruise_control())

    def run():
        pri = explore(
            translation.system,
            prioritized=True,
            budget=Budget(max_states=2_000_000),
        )
        unpri = explore(
            translation.system,
            prioritized=False,
            budget=Budget(max_states=2_000_000),
        )
        return pri, unpri

    pri, unpri = benchmark.pedantic(run, rounds=1, iterations=1)
    assert unpri.num_states > pri.num_states
    assert unpri.num_transitions > 2 * pri.num_transitions
    print_table(
        "T-PRIO cruise control: prioritized vs unprioritized",
        ["relation", "states", "transitions"],
        [
            ["prioritized", pri.num_states, pri.num_transitions],
            ["unprioritized", unpri.num_states, unpri.num_transitions],
            [
                "reduction",
                f"{unpri.num_states / pri.num_states:.1f}x",
                f"{unpri.num_transitions / pri.num_transitions:.1f}x",
            ],
        ],
    )


def test_priorities_carry_the_verdict(benchmark):
    """Without preemption, the idle step coexists with computation:
    the processor can 'choose' to starve a thread, so a schedulable
    system exhibits spurious deadline deadlocks."""
    translation = translate(two_periodic_threads(schedulable=True))

    def run():
        pri = explore(translation.system, prioritized=True)
        unpri = explore(
            translation.system,
            prioritized=False,
            budget=Budget(max_states=500_000),
        )
        return pri, unpri

    pri, unpri = benchmark.pedantic(run, rounds=1, iterations=1)
    assert pri.deadlock_free
    assert not unpri.deadlock_free
    print_table(
        "T-PRIO verdict with and without the prioritized relation",
        ["relation", "deadlock-free"],
        [
            ["prioritized", pri.deadlock_free],
            ["unprioritized", unpri.deadlock_free],
        ],
    )
