"""T-POR: the default partial-order reduction against unreduced exploration.

Every verdict run applies the ``por`` pass unless told otherwise
(:data:`repro.engine.reduce.DEFAULT_REDUCTION`), and a deadlock it finds
is raised from an unreduced search.  This regenerates the default-run
state counts that EXPERIMENTS.md lists next to the unreduced ones the
other benchmarks quote, and checks the shape: the same verdict on every
model, never more states on a schedulable one, and the unreduced
scenario on an unschedulable one.
"""

import numpy as np

from repro.aadl.gallery import (
    cruise_control,
    priority_inversion_trio,
    sporadic_consumer,
)
from repro.aadl.properties import OverflowHandlingProtocol, ms
from repro.analysis import Verdict, analyze_model
from repro.translate import TranslationOptions
from repro.workloads import integer_task_set, task_set_to_system

from conftest import print_table


def _models():
    """``(label, instance, analyze_model keywords)`` per EXPERIMENTS row."""
    for quantum in (10, 5, 2, 1):
        yield f"FIG1 cruise control, {quantum} ms", cruise_control(), {
            "quantum": ms(quantum)
        }
    yield "FIG1 overloaded", cruise_control(overloaded=True), {}
    rng = np.random.default_rng(5506)  # bench_state_space_scaling's draw
    for n in (1, 2, 3, 4):
        tasks = integer_task_set(
            n, 0.12 * n, periods=(4, 8), rng=rng, name_prefix=f"n{n}t"
        )
        yield f"T-SCALE {n} thread(s)", task_set_to_system(tasks), {}
    yield "T-SHARE inversion, plain HPF", priority_inversion_trio(), {}
    yield "T-SHARE inversion, ceiling", priority_inversion_trio(), {
        "options": TranslationOptions(use_priority_ceiling=True)
    }
    for size in (1, 2, 4, 8):
        instance = sporadic_consumer(
            queue_size=size,
            overflow=OverflowHandlingProtocol.DROP_NEWEST,
            producer_period=4,
            min_separation=6,
        )
        yield f"T-QUEUE drop, size {size}", instance, {}


def test_default_run_state_counts(benchmark):
    def sweep():
        rows = []
        for label, instance, keywords in _models():
            plain = analyze_model(instance, reduction="none", **keywords)
            default = analyze_model(instance, **keywords)
            assert default.verdict is plain.verdict, label
            if plain.verdict is Verdict.UNSCHEDULABLE:
                assert default.scenario.format() == plain.scenario.format()
            else:
                assert default.num_states <= plain.num_states, label
            rows.append(
                (label, plain.verdict.value, plain.num_states,
                 default.num_states, default.stats.states)
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "default (por) vs unreduced exploration",
        ["model", "verdict", "unreduced", "default", "default, both searches"],
        rows,
    )

