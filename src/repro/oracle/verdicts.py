"""Verdict collection and agreement classification.

The paper's S5 theorem gives the pipeline an exact external reference on
the classical regime: AADL -> ACSR -> deadlock search must agree with
response-time analysis, the EDF processor-demand criterion and a
simulated worst-case window.  Outside that regime the classical results
weaken to one-sided checks; this module encodes each oracle's *relation*
to the pipeline verdict explicitly so nothing is compared silently:

* ``exact`` -- the oracle's boolean must equal the pipeline's;
* ``sufficient`` -- oracle True forces pipeline True (oracle False says
  nothing), e.g. synchronous RTA on an offset-bearing set;
* ``necessary`` -- oracle False forces pipeline False (oracle True says
  nothing), e.g. the ``U <= 1`` cap.

Oracles that do not apply at all (utilization bounds on constrained
deadlines, say) report ``verdict=None`` with the reason in ``detail``.
A pipeline ``UNKNOWN`` (budget exhausted before coverage) is its own
classification status -- it is never counted as agreement, and never as
disagreement either.  Inexact quantization (impossible for the integer
generators, but checked anyway) demotes every exact oracle to
sufficient and leaves an explanatory note.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional

from repro.aadl.properties import SchedulingProtocol
from repro.analysis.schedulability import AnalysisResult, Verdict, analyze_model
from repro.errors import SchedError
from repro.oracle.case import OracleCase
from repro.sched.demand import edf_schedulable
from repro.sched.rta import rta_exactness, rta_schedulable
from repro.sched.simulation import exact_simulation_horizon, simulate
from repro.sched.taskmodel import FIXED_PRIORITY_ORDERING, TaskSet
from repro.sched.utilization import hyperbolic_bound_test, liu_layland_test

#: A fault transforms the task set handed to the *pipeline* side only,
#: emulating a translator defect (the model analyzed differs from the
#: model specified).  See :mod:`repro.oracle.faults`.
FaultFn = Callable[[TaskSet], TaskSet]


class OracleVerdict:
    """One classical method's verdict on one case."""

    __slots__ = ("method", "relation", "verdict", "detail")

    def __init__(
        self,
        method: str,
        relation: str,
        verdict: Optional[bool],
        detail: str = "",
    ) -> None:
        if relation not in ("exact", "sufficient", "necessary"):
            raise SchedError(f"unknown oracle relation {relation!r}")
        self.method = method
        self.relation = relation
        self.verdict = verdict
        self.detail = detail

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "relation": self.relation,
            "verdict": self.verdict,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OracleVerdict":
        return cls(
            data["method"],
            data["relation"],
            data["verdict"],
            data.get("detail", ""),
        )

    def __repr__(self) -> str:
        verdict = (
            "schedulable" if self.verdict
            else "unschedulable" if self.verdict is not None
            else "n/a"
        )
        return f"{self.method} [{self.relation}]: {verdict}"


class AgreementStatus(enum.Enum):
    AGREED = "agreed"
    DISAGREED = "disagreed"
    UNKNOWN = "unknown"


class CaseClassification:
    """Outcome of comparing the pipeline verdict with every oracle."""

    __slots__ = ("status", "conflicts", "notes")

    def __init__(
        self,
        status: AgreementStatus,
        conflicts: List[str],
        notes: List[str],
    ) -> None:
        self.status = status
        self.conflicts = conflicts
        self.notes = notes

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "conflicts": list(self.conflicts),
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CaseClassification":
        return cls(
            AgreementStatus(data["status"]),
            list(data.get("conflicts", [])),
            list(data.get("notes", [])),
        )

    def __repr__(self) -> str:
        extra = f", conflicts={self.conflicts}" if self.conflicts else ""
        return f"CaseClassification({self.status.value}{extra})"


def run_pipeline(
    case: OracleCase,
    *,
    max_states: int = 300_000,
    fault: Optional[FaultFn] = None,
) -> AnalysisResult:
    """The full AADL -> ACSR -> engine pipeline verdict for a case.

    ``fault`` (testing the harness itself) perturbs the task set on the
    pipeline side only, emulating a translator bug.
    """
    from repro.workloads.generators import task_set_to_system

    tasks = case.task_set()
    if fault is not None:
        tasks = fault(tasks)
    instance = task_set_to_system(tasks, scheduling=case.protocol())
    return analyze_model(instance, max_states=max_states)


def classical_verdicts(case: OracleCase) -> List[OracleVerdict]:
    """Run every applicable classical analysis, tagged with its relation
    to the pipeline verdict (see the module docstring)."""
    tasks = case.task_set()
    protocol = case.protocol()
    synchronous = all(task.offset == 0 for task in tasks)
    verdicts: List[OracleVerdict] = []

    # Utilization cap: schedulable => U <= 1 on one processor, always.
    utilization = tasks.utilization
    verdicts.append(
        OracleVerdict(
            "utilization-cap",
            "necessary",
            utilization <= 1.0 + 1e-12,
            f"U={utilization:.4f}",
        )
    )

    if protocol in FIXED_PRIORITY_ORDERING:
        ordering = FIXED_PRIORITY_ORDERING[protocol]
        if protocol is SchedulingProtocol.RATE_MONOTONIC:
            for name, test in (
                ("utilization-ll", liu_layland_test),
                ("utilization-hyperbolic", hyperbolic_bound_test),
            ):
                try:
                    verdicts.append(
                        OracleVerdict(name, "sufficient", test(tasks))
                    )
                except SchedError as exc:
                    verdicts.append(
                        OracleVerdict(name, "sufficient", None, str(exc))
                    )
        try:
            rta = rta_schedulable(tasks, ordering=ordering)
            verdicts.append(
                OracleVerdict(
                    "response-time-analysis",
                    # Synchronous release is the critical instant: exact
                    # there, only an upper bound once offsets shift it
                    # (the guard lives with RTA itself).
                    rta_exactness(tasks),
                    rta,
                    f"ordering={ordering}",
                )
            )
        except SchedError as exc:
            verdicts.append(
                OracleVerdict("response-time-analysis", "exact", None, str(exc))
            )
        sim_policy = ordering
    elif protocol is SchedulingProtocol.EARLIEST_DEADLINE_FIRST:
        verdicts.append(
            OracleVerdict(
                "edf-demand",
                "exact" if synchronous else "sufficient",
                edf_schedulable(tasks),
                f"U={utilization:.4f}",
            )
        )
        sim_policy = "edf"
    else:
        verdicts.append(
            OracleVerdict(
                "classical-tests",
                "sufficient",
                None,
                f"no exact classical oracle for {protocol.value}",
            )
        )
        sim_policy = None

    if sim_policy is not None:
        horizon = exact_simulation_horizon(tasks)
        if horizon is None:
            verdicts.append(
                OracleVerdict(
                    "simulation",
                    "exact",
                    None,
                    "over-utilized asynchronous set: no finite exact "
                    "window (the utilization-cap oracle already decides)",
                )
            )
        else:
            sim = simulate(tasks, policy=sim_policy, horizon=horizon)
            verdicts.append(
                OracleVerdict(
                    "simulation",
                    "exact",
                    sim.schedulable,
                    f"policy={sim_policy} horizon={horizon}",
                )
            )
    return verdicts


def classify(
    pipeline: AnalysisResult,
    oracles: List[OracleVerdict],
) -> CaseClassification:
    """Compare the pipeline verdict with every oracle, explicitly."""
    notes: List[str] = []

    if pipeline.verdict is Verdict.UNKNOWN:
        limit = (
            pipeline.exploration.limit_hit
            if pipeline.exploration is not None
            else None
        )
        notes.append(
            f"pipeline exhausted its exploration budget "
            f"(limit_hit={limit!r}) before covering the space; "
            f"no agreement claim is possible"
        )
        return CaseClassification(AgreementStatus.UNKNOWN, [], notes)

    quantizer = pipeline.translation.quantizer
    quantization_exact = all(
        quantizer.thread_timing(thread).exact
        for thread in pipeline.translation.instance.threads()
    )
    if not quantization_exact:
        notes.append(
            f"quantization (quantum {quantizer.quantum}) rounded some "
            f"durations; exact oracles demoted to sufficient for this case"
        )

    verdict = pipeline.schedulable
    conflicts: List[str] = []
    for oracle in oracles:
        if oracle.verdict is None:
            continue
        relation = oracle.relation
        if relation == "exact" and not quantization_exact:
            relation = "sufficient"
        if relation == "exact" and oracle.verdict != verdict:
            conflicts.append(oracle.method)
        elif relation == "sufficient" and oracle.verdict and not verdict:
            conflicts.append(oracle.method)
        elif relation == "necessary" and not oracle.verdict and verdict:
            conflicts.append(oracle.method)

    status = (
        AgreementStatus.DISAGREED if conflicts else AgreementStatus.AGREED
    )
    return CaseClassification(status, conflicts, notes)


def evaluate_case(
    case: OracleCase,
    *,
    max_states: int = 300_000,
    fault: Optional[FaultFn] = None,
):
    """Convenience: pipeline + oracles + classification in one call.

    Returns ``(pipeline_result, oracle_verdicts, classification)``.
    """
    pipeline = run_pipeline(case, max_states=max_states, fault=fault)
    oracles = classical_verdicts(case)
    return pipeline, oracles, classify(pipeline, oracles)
