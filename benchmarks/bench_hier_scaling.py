"""T-HIER: BDR interface checks vs island exploration.

The hierarchical analysis's acceptance claim: a partitioned system is
decided analytically -- zero states, microseconds per partition --
where the nearest exploration-based alternative (give every partition
its own dedicated processor and explore the islands) pays translation
plus state-space costs that grow with every partition added.

The dedicated-processor counterpart is a *relaxation* (full supply
instead of a budgeted server), so its verdict can only be more
permissive; the comparison here is about machinery cost, with the
workloads chosen so both models are schedulable and the verdicts
coincide.
"""

import time

import pytest

from repro.aadl.builder import SystemBuilder
from repro.analysis import Verdict
from repro.compose import analyze_compositionally
from repro.hier import analyze_hier

from conftest import print_table

#: (wcet ms, period ms) pairs per partition; demand 0.075, light
#: enough to pass the interface check even at an eighth of the supply.
PARTITION_TASKS = ((1, 40), (2, 80))
SERVER_PERIOD = 10


def partitioned_model(n_partitions: int):
    """One host carved into ``n_partitions`` equal partitions; budgets
    shrink with the partition count so the host stays feasible."""
    budget = max(1, SERVER_PERIOD // n_partitions)
    b = SystemBuilder("HierScale")
    cpu = b.processor("cpu")
    for p in range(n_partitions):
        part = b.virtual_processor(
            f"part{p}",
            period=SERVER_PERIOD,
            budget=budget,
            processor=cpu,
        )
        for index, (wcet, period) in enumerate(PARTITION_TASKS):
            b.thread(
                f"p{p}t{index}",
                dispatch="periodic",
                period=period,
                compute_time=wcet,
                deadline=period,
                processor=part,
            )
    return b.instantiate()


def dedicated_model(n_partitions: int):
    """The relaxed counterpart: each partition's threads on their own
    full processor -- the shape island exploration can handle."""
    b = SystemBuilder("DedicatedScale")
    for p in range(n_partitions):
        cpu = b.processor(f"cpu{p}")
        for index, (wcet, period) in enumerate(PARTITION_TASKS):
            b.thread(
                f"p{p}t{index}",
                dispatch="periodic",
                period=period,
                compute_time=wcet,
                deadline=period,
                processor=cpu,
            )
    return b.instantiate()


@pytest.mark.parametrize("n_partitions", [2, 4])
def test_interface_beats_island_exploration(benchmark, n_partitions):
    partitioned = partitioned_model(n_partitions)
    dedicated = dedicated_model(n_partitions)

    started = time.perf_counter()
    island = analyze_compositionally(dedicated, workers=1)
    island_elapsed = time.perf_counter() - started

    result = benchmark.pedantic(
        lambda: analyze_hier(partitioned), rounds=5, iterations=1
    )
    hier_elapsed = result.elapsed

    assert result.verdict is Verdict.SCHEDULABLE
    assert island.verdict is Verdict.SCHEDULABLE
    assert result.num_states == 0
    stats = result.exploration.stats
    assert stats.hier_interface_hits == n_partitions
    assert hier_elapsed < island_elapsed

    print_table(
        f"{n_partitions} partition(s): interface check vs island "
        f"exploration of the dedicated-processor relaxation",
        ["run", "verdict", "states", "seconds"],
        [
            (
                "hier interface",
                result.verdict.value,
                result.num_states,
                f"{hier_elapsed:.4f}",
            ),
            (
                "island exploration",
                island.verdict.value,
                island.num_states,
                f"{island_elapsed:.4f}",
            ),
        ],
    )


def test_interface_cost_scales_linearly(benchmark):
    """Doubling the partition count roughly doubles (not squares) the
    analytic cost: partitions are checked independently."""
    small, large = partitioned_model(2), partitioned_model(8)

    def run():
        t0 = time.perf_counter()
        analyze_hier(small)
        t_small = time.perf_counter() - t0
        t0 = time.perf_counter()
        analyze_hier(large)
        return t_small, time.perf_counter() - t0

    t_small, t_large = benchmark.pedantic(run, rounds=3, iterations=1)
    # Generous bound: 4x the partitions may cost at most ~16x wall
    # clock (noise floor included), nowhere near state-space blowup.
    assert t_large < max(t_small, 1e-3) * 64

    print_table(
        "interface-check scaling",
        ["partitions", "seconds"],
        [(2, f"{t_small:.5f}"), (8, f"{t_large:.5f}")],
    )
