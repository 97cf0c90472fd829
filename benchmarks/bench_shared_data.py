"""T-SHARE: shared data access and the priority-ceiling encoding.

The paper omits access connections from its presentation (S4) but notes
that the priority-inheritance family of protocols has ACSR encodings
(S5).  Regenerated shapes:

* whole-quantum mutual exclusion (S4.1): two sharers on different
  processors never compute in the same quantum;
* classic unbounded priority inversion reproduced under plain HPF;
* the immediate-ceiling encoding restores schedulability;
* the serialization cost is visible in the verdicts of a utilization
  sweep.
"""

import pytest

from repro.aadl.builder import SystemBuilder
from repro.aadl.gallery import priority_inversion_trio
from repro.aadl.properties import DispatchProtocol, SchedulingProtocol, ms
from repro.analysis import Verdict, analyze_model
from repro.translate import TranslationOptions

from conftest import print_table


def test_inversion_vs_ceiling(benchmark):
    instance = priority_inversion_trio()

    def run():
        plain = analyze_model(instance, reduction="none")
        ceiling = analyze_model(
            instance,
            options=TranslationOptions(use_priority_ceiling=True),
            reduction="none",
        )
        return plain, ceiling

    plain, ceiling = benchmark.pedantic(run, rounds=1, iterations=1)
    assert plain.verdict is Verdict.UNSCHEDULABLE
    assert plain.scenario.misses == ["Inversion.high"]
    assert ceiling.verdict is Verdict.SCHEDULABLE
    print_table(
        "T-SHARE priority inversion (HPF, shared data)",
        ["protocol", "verdict", "states"],
        [
            ["none (plain HPF)", plain.verdict.value, plain.num_states],
            ["immediate ceiling", ceiling.verdict.value, ceiling.num_states],
        ],
    )


def _cross_cpu_sharers(wcet: int):
    b = SystemBuilder("Share")
    cpu1 = b.processor("cpu1")
    cpu2 = b.processor("cpu2")
    for index, cpu in enumerate((cpu1, cpu2)):
        t = b.thread(
            f"t{index}",
            dispatch=DispatchProtocol.PERIODIC,
            period=ms(8),
            compute_time=(ms(wcet), ms(wcet)),
            deadline=ms(8),
            processor=cpu,
        )
        t.requires_data_access("d", classifier="Shared")
    return b.instantiate()


def test_serialization_cost_sweep(benchmark):
    """Two sharers on separate cpus: feasible iff the *sum* of their
    demands fits the period -- the shared resource makes two processors
    behave like one."""

    def sweep():
        return [
            (wcet, analyze_model(_cross_cpu_sharers(wcet)).verdict)
            for wcet in (2, 4, 5)
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    verdicts = {wcet: verdict for wcet, verdict in rows}
    assert verdicts[2] is Verdict.SCHEDULABLE   # 2+2 <= 8
    assert verdicts[4] is Verdict.SCHEDULABLE   # 4+4 <= 8, exactly
    assert verdicts[5] is Verdict.UNSCHEDULABLE  # 5+5 > 8
    print_table(
        "T-SHARE cross-cpu serialization (T=D=8 each)",
        ["wcet each", "verdict"],
        [[w, v.value] for w, v in rows],
    )
