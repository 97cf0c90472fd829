"""T-SCALE: state-space growth (S4.1 precision trade-off, S7 future work).

Two sweeps:

* states/time vs thread count on one processor -- exploration cost grows
  with model size (the scalability limit S7 wants to attack);
* states vs quantum size on the cruise-control model -- 'precision of
  the timing analysis can be improved by making scheduling quanta
  smaller, which tends to increase the size of the state space.'

Both sweeps explore unreduced (``reduction="none"``), the space the
paper's quantum argument is about.  Both, and the memoization check,
report the engine's own statistics (states/sec, cache hit rate) from the
:class:`repro.engine.EngineStats` snapshot attached to every
exploration result.
"""

import time

import numpy as np
import pytest

from repro.aadl.gallery import cruise_control
from repro.aadl.properties import ms
from repro.analysis import Verdict, analyze_model
from repro.workloads import integer_task_set, task_set_to_system

from conftest import print_table

SEED = 5506  # SAE AS5506


def test_states_vs_thread_count(benchmark):
    rng = np.random.default_rng(SEED)

    def sweep():
        rows = []
        for n in (1, 2, 3, 4):
            tasks = integer_task_set(
                n, 0.12 * n, periods=(4, 8), rng=rng, name_prefix=f"n{n}t"
            )
            instance = task_set_to_system(tasks)
            t0 = time.perf_counter()
            result = analyze_model(
                instance,
                max_states=2_000_000,
                stop_at_first_deadlock=False,
                reduction="none",
            )
            elapsed = time.perf_counter() - t0
            assert result.verdict is not Verdict.UNKNOWN
            stats = result.exploration.stats
            rows.append(
                (
                    n,
                    result.num_states,
                    f"{elapsed * 1000:.1f}",
                    f"{stats.states_per_second:,.0f}",
                    f"{stats.cache_hit_rate:.1%}",
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    sizes = [states for _, states, _, _, _ in rows]
    assert sizes == sorted(sizes)
    print_table(
        "T-SCALE states vs thread count (U = 0.12/thread)",
        ["threads", "states", "ms", "states/s", "cache hit"],
        rows,
    )


def test_states_vs_quantum(benchmark):
    instance = cruise_control()

    def sweep():
        rows = []
        for quantum in (10, 5, 2, 1):
            t0 = time.perf_counter()
            result = analyze_model(
                instance,
                quantum=ms(quantum),
                max_states=2_000_000,
                stop_at_first_deadlock=False,
                reduction="none",
            )
            elapsed = time.perf_counter() - t0
            assert result.verdict is Verdict.SCHEDULABLE
            stats = result.exploration.stats
            rows.append(
                (
                    f"{quantum} ms",
                    result.num_states,
                    f"{elapsed * 1000:.1f}",
                    f"{stats.states_per_second:,.0f}",
                    f"{stats.cache_hit_rate:.1%}",
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    sizes = [states for _, states, _, _, _ in rows]
    # Tendency, not strict monotonicity: finest >> coarsest.
    assert sizes[-1] > sizes[0]
    print_table(
        "T-SCALE cruise control states vs quantum",
        ["quantum", "states", "ms", "states/s", "cache hit"],
        rows,
    )


def test_memoization_effectiveness(benchmark):
    """The step cache is the engine's hot path: re-exploring a system is
    dramatically cheaper than the first pass, and the engine's per-run
    cache counters make the effect directly observable."""
    from repro.engine import Budget, explore
    from repro.translate import translate

    translation = translate(cruise_control())

    def first_and_second():
        budget = Budget(max_states=1_000_000)
        cold_result = explore(translation.system, budget=budget)
        warm_result = explore(translation.system, budget=budget)
        return cold_result.stats, warm_result.stats

    cold, warm = benchmark.pedantic(
        first_and_second, rounds=1, iterations=1
    )
    assert warm.elapsed < cold.elapsed
    # The warm pass finds every successor set already memoized.
    assert warm.cache_hit_rate > cold.cache_hit_rate
    assert warm.cache_hit_rate > 0.99
    print_table(
        "T-SCALE transition-memo effectiveness (same system twice)",
        ["cold ms", "warm ms", "speedup", "cold hit", "warm hit"],
        [
            [
                f"{cold.elapsed * 1000:.1f}",
                f"{warm.elapsed * 1000:.1f}",
                f"{cold.elapsed / warm.elapsed:.1f}x",
                f"{cold.cache_hit_rate:.1%}",
                f"{warm.cache_hit_rate:.1%}",
            ]
        ],
    )
