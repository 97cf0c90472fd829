"""Comparison of the ACSR verdict with the classical baselines.

Used by the verdict-agreement benchmarks (DESIGN.md experiment T-SCHED)
and available as a library feature: run every applicable analysis on one
model and tabulate who says what, at what cost.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.aadl.instance import SystemInstance
from repro.aadl.properties import SCHEDULING_PROTOCOL, SchedulingProtocol
from repro.analysis.schedulability import Verdict, analyze_model
from repro.errors import SchedError
from repro.sched.demand import edf_schedulable
from repro.sched.rta import response_times, rta_schedulable
from repro.sched.simulation import simulate
from repro.sched.taskmodel import FIXED_PRIORITY_ORDERING, extract_task_set
from repro.sched.utilization import (
    hyperbolic_bound_test,
    liu_layland_test,
)
from repro.translate.quantum import TimingQuantizer


class ComparisonRow:
    """One analysis method's verdict on one model."""

    __slots__ = ("method", "verdict", "elapsed", "detail")

    def __init__(
        self,
        method: str,
        verdict: Optional[bool],
        elapsed: float,
        detail: str = "",
    ) -> None:
        self.method = method
        self.verdict = verdict
        self.elapsed = elapsed
        self.detail = detail

    def __repr__(self) -> str:
        verdict = (
            "schedulable" if self.verdict
            else "unschedulable" if self.verdict is not None
            else "n/a"
        )
        detail = f" [{self.detail}]" if self.detail else ""
        return (
            f"{self.method:<22s} {verdict:<14s} "
            f"{self.elapsed * 1000:8.2f} ms{detail}"
        )


def compare_with_baselines(
    instance: SystemInstance,
    *,
    max_states: int = 1_000_000,
) -> List[ComparisonRow]:
    """Run ACSR exploration plus every applicable classical test.

    Classical tests only apply to single-processor periodic sets; rows
    carry ``verdict=None`` with an explanatory detail otherwise.
    """
    rows: List[ComparisonRow] = []

    start = time.perf_counter()
    result = analyze_model(instance, max_states=max_states)
    rows.append(
        ComparisonRow(
            "acsr-exploration",
            result.schedulable,
            time.perf_counter() - start,
            f"{result.num_states} states",
        )
    )

    processors = [
        p
        for p in instance.processors()
        if any(t.bound_processor is p for t in instance.threads())
    ]
    if len(processors) != 1:
        rows.append(
            ComparisonRow(
                "classical-tests",
                None,
                0.0,
                f"{len(processors)} processors; classical tests are "
                f"single-processor",
            )
        )
        return rows
    processor = processors[0]
    protocol = processor.property(SCHEDULING_PROTOCOL)
    quantizer = TimingQuantizer.natural(instance)
    try:
        tasks = extract_task_set(instance, processor, quantizer)
    except SchedError as exc:
        rows.append(ComparisonRow("classical-tests", None, 0.0, str(exc)))
        return rows
    if len(tasks) != len(instance.threads()):
        rows.append(
            ComparisonRow(
                "classical-tests",
                None,
                0.0,
                "model has event-dispatched threads outside the classical "
                "task model",
            )
        )
        return rows

    if protocol in FIXED_PRIORITY_ORDERING:
        ordering = FIXED_PRIORITY_ORDERING[protocol]
        for name, test in (
            ("utilization-LL", liu_layland_test),
            ("utilization-hyperbolic", hyperbolic_bound_test),
        ):
            if protocol is SchedulingProtocol.RATE_MONOTONIC:
                start = time.perf_counter()
                try:
                    verdict = test(tasks)
                    detail = f"U={tasks.utilization:.3f}"
                except SchedError as exc:
                    verdict, detail = None, str(exc)
                rows.append(
                    ComparisonRow(
                        name, verdict, time.perf_counter() - start, detail
                    )
                )
        start = time.perf_counter()
        rta_verdict = rta_schedulable(tasks, ordering=ordering)
        # Worst margin over the set: responses are reported even past
        # the deadline (None = diverged), so the row can say by how
        # much the worst task misses, not just that it does.
        responses = response_times(tasks, ordering=ordering)
        deadlines = {task.name: task.deadline for task in tasks}
        worst = min(
            (
                (deadlines[name] - response, name, response)
                for name, response in responses.items()
                if response is not None
            ),
            default=None,
        )
        if worst is None:
            detail = "iteration diverged (overload)"
        else:
            margin, name, response = worst
            detail = (
                f"worst {name}: R={response} vs D={deadlines[name]}"
            )
        rows.append(
            ComparisonRow(
                "response-time-analysis",
                rta_verdict,
                time.perf_counter() - start,
                detail,
            )
        )
        sim_policy = ordering
    elif protocol is SchedulingProtocol.EARLIEST_DEADLINE_FIRST:
        start = time.perf_counter()
        rows.append(
            ComparisonRow(
                "edf-demand-analysis",
                edf_schedulable(tasks),
                time.perf_counter() - start,
                f"U={tasks.utilization:.3f}",
            )
        )
        sim_policy = "edf"
    else:
        sim_policy = "llf"

    start = time.perf_counter()
    sim = simulate(tasks, policy=sim_policy)
    rows.append(
        ComparisonRow(
            "cheddar-style-sim",
            sim.schedulable,
            time.perf_counter() - start,
            f"horizon={sim.horizon}",
        )
    )
    return rows
