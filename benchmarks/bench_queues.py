"""T-QUEUE: queue sizing and overflow protocols (S4.4).

Regenerates: a producer/consumer system where the producer outpaces the
consumer's minimum separation, swept over queue sizes under both
overflow protocols.  Checked shape: with Error overflow there is a
minimum queue size below which the model deadlocks (overflow reached)
-- and with arrival rate strictly above the service rate, no finite
queue suffices; the Drop protocols are schedulable at every size; state
count grows with queue size (the counter is a dynamic parameter).
"""

import pytest

from repro.aadl.gallery import sporadic_consumer
from repro.aadl.properties import OverflowHandlingProtocol
from repro.analysis import Verdict, analyze_model

from conftest import print_table


def verdict_for(queue_size, overflow, producer_period=4, min_separation=6):
    instance = sporadic_consumer(
        queue_size=queue_size,
        overflow=overflow,
        producer_period=producer_period,
        min_separation=min_separation,
    )
    return analyze_model(instance, max_states=500_000, reduction="none")


def test_queue_size_sweep_error_protocol(benchmark):
    def sweep():
        return [
            (
                size,
                verdict_for(size, OverflowHandlingProtocol.ERROR).verdict,
            )
            for size in (1, 2, 3, 4)
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # Producer period 4, min separation 6: arrival rate 1/4 > service
    # rate 1/6 -- the backlog grows without bound, so EVERY finite queue
    # eventually overflows under the Error protocol.
    for _, verdict in rows:
        assert verdict is Verdict.UNSCHEDULABLE
    print_table(
        "T-QUEUE Error overflow, overloaded arrivals (T_prod=4 < P_min=6)",
        ["queue size", "verdict"],
        [[s, v.value] for s, v in rows],
    )


def test_queue_size_sweep_drop_protocol(benchmark):
    def sweep():
        return [
            (
                size,
                verdict_for(
                    size, OverflowHandlingProtocol.DROP_NEWEST
                ).verdict,
            )
            for size in (1, 2, 3)
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for _, verdict in rows:
        assert verdict is Verdict.SCHEDULABLE
    print_table(
        "T-QUEUE Drop overflow, overloaded arrivals",
        ["queue size", "verdict"],
        [[s, v.value] for s, v in rows],
    )


def test_error_queue_feasible_when_rates_match(benchmark):
    """Arrival rate == service rate: a queue of size 1 already suffices
    (crossover of the protocol comparison)."""

    def run():
        return verdict_for(
            1,
            OverflowHandlingProtocol.ERROR,
            producer_period=6,
            min_separation=6,
        ).verdict

    verdict = benchmark(run)
    assert verdict is Verdict.SCHEDULABLE


def test_states_grow_with_queue_size(benchmark):
    def sweep():
        return [
            (
                size,
                verdict_for(
                    size, OverflowHandlingProtocol.DROP_NEWEST
                ).num_states,
            )
            for size in (1, 2, 4, 8)
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    sizes = [states for _, states in rows]
    assert sizes == sorted(sizes)
    assert sizes[-1] > sizes[0]
    print_table(
        "T-QUEUE states vs queue size (Drop)",
        ["queue size", "states"],
        rows,
    )
