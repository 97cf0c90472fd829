"""FIG1: the cruise-control case study (paper Figure 1 + S4.1 claim).

Regenerates: the translation of the Figure 1 model and its analysis.
Checked shape: 6 thread processes + 6 dispatchers + 0 queue processes;
the nominal model is schedulable; the overloaded variant yields a
deadline-miss scenario on the CCL processor raised to AADL terms.
"""

import pytest

from repro.aadl.gallery import cruise_control
from repro.analysis import Verdict, analyze_model
from repro.translate import translate
from repro.engine import Budget, explore

from conftest import print_table


def test_translation_counts(benchmark):
    instance = cruise_control()
    result = benchmark(translate, instance)
    assert result.num_thread_processes == 6
    assert result.num_dispatchers == 6
    assert result.num_queue_processes == 0
    print_table(
        "FIG1 translation (paper: 6 threads / 6 dispatchers / 0 queues)",
        ["thread processes", "dispatchers", "queue processes"],
        [[
            result.num_thread_processes,
            result.num_dispatchers,
            result.num_queue_processes,
        ]],
    )


def test_nominal_analysis(benchmark):
    instance = cruise_control()

    def run():
        return analyze_model(
            instance, stop_at_first_deadlock=False, reduction="none"
        )

    result = benchmark(run)
    assert result.verdict is Verdict.SCHEDULABLE
    print_table(
        "FIG1 nominal verdict",
        ["verdict", "states", "quantum"],
        [[result.verdict.value, result.num_states,
          str(result.translation.quantizer.quantum)]],
    )


def test_overloaded_scenario(benchmark):
    instance = cruise_control(overloaded=True)

    def run():
        return analyze_model(instance)

    result = benchmark(run)
    assert result.verdict is Verdict.UNSCHEDULABLE
    assert result.scenario is not None
    assert any("ccl" in miss for miss in result.scenario.misses)
    print_table(
        "FIG1 overloaded failing scenario",
        ["missed thread", "at quantum", "trace events"],
        [[", ".join(result.scenario.misses),
          result.scenario.duration,
          len(result.scenario.events)]],
    )


def test_exploration_exhaustive(benchmark):
    translation = translate(cruise_control())

    def run():
        return explore(translation.system, budget=Budget(max_states=1_000_000))

    exploration = benchmark(run)
    assert exploration.completed and exploration.deadlock_free
