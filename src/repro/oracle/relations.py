"""One campaign runner for every layer-vs-reference oracle relation.

Each analysis layer grown around the paper's pipeline -- compose,
portfolio, reduce, hier, modal -- is trusted only because a seeded
campaign pits it against plain exploration or an exact simulation.
A relation is a :class:`Relation` record: a seeded ``evaluate`` that
draws one case, runs both sides and classifies them with one of two
classifiers, plus the parameters and fault registry the CLI exposes.

* :func:`equal` -- UNKNOWN-aware equivalence of two verdicts (compose,
  reduce, portfolio): budget exhaustion on either side is not evidence
  of unsoundness.
* :func:`implies` -- one-sided soundness (hier per partition, modal per
  transition): a pass on the side under test must be a pass on the
  reference; the converse is the layer's conservatism, not a bug.

:func:`run_relation` is the one campaign loop, and
:data:`RELATIONS` names every relation by its ``repro oracle`` verb.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.analysis.schedulability import Verdict
from repro.oracle.verdicts import AgreementStatus

AGREED = AgreementStatus.AGREED
DISAGREED = AgreementStatus.DISAGREED
UNKNOWN = AgreementStatus.UNKNOWN

#: Per-analysis exploration budget of the exploring relations.
MAX_STATES = 150_000


@dataclass(frozen=True)
class RelationOutcome:
    """One seed's comparison of the two sides of a relation."""

    seed: int
    status: AgreementStatus
    #: short description of the draw, shown in progress and DISAGREED lines
    label: str
    #: per-case counters; the report sums them
    counts: Dict[str, int] = field(default_factory=dict)
    #: why the case DISAGREED, one line per offending check
    details: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class Param:
    """A relation-specific campaign parameter, exposed as one CLI flag."""

    name: str
    default: Any
    help: str

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


MAX_STATES_PARAM = Param(
    "max_states", MAX_STATES, "per-analysis exploration budget"
)


@dataclass(frozen=True)
class Relation:
    """A seeded differential relation and what its CLI verb exposes."""

    name: str
    help: str
    evaluate: Callable[..., RelationOutcome]
    params: Tuple[Param, ...] = ()
    #: the registered faults its ``fault`` parameter accepts
    faults: Collection[str] = ()
    #: extra report-header text after "<name> campaign"
    header: str = ""


def equal(a: Verdict, b: Verdict) -> AgreementStatus:
    """Equivalence of two verdicts, UNKNOWN-aware."""
    if Verdict.UNKNOWN in (a, b):
        return UNKNOWN
    return AGREED if a is b else DISAGREED


def implies(antecedent: bool, consequent: Optional[bool]) -> AgreementStatus:
    """One-sided soundness: ``antecedent`` (the side under test passed)
    must imply ``consequent`` (the reference passed; ``None`` when the
    reference abstained at a cap)."""
    if not antecedent:
        # A failed antecedent cannot witness unsoundness, whatever the
        # reference says.
        return AGREED
    if consequent is None:
        return UNKNOWN
    return AGREED if consequent else DISAGREED


_SEVERITY = (AGREED, UNKNOWN, DISAGREED)


def worst(statuses: Iterable[AgreementStatus]) -> AgreementStatus:
    """Fold per-check statuses into a case status: any DISAGREED wins,
    then any UNKNOWN; no checks at all is AGREED."""
    return max(statuses, key=_SEVERITY.index, default=AGREED)


class RelationReport:
    """Aggregate of one campaign over a relation."""

    def __init__(
        self,
        relation: Relation,
        outcomes: List[RelationOutcome],
        *,
        elapsed: float,
        base_seed: int,
        fault: Optional[str] = None,
    ) -> None:
        self.relation = relation
        self.outcomes = outcomes
        self.elapsed = elapsed
        self.base_seed = base_seed
        self.fault = fault

    def _with(self, status: AgreementStatus) -> List[RelationOutcome]:
        return [o for o in self.outcomes if o.status is status]

    @property
    def agreed(self) -> List[RelationOutcome]:
        return self._with(AGREED)

    @property
    def disagreements(self) -> List[RelationOutcome]:
        return self._with(DISAGREED)

    @property
    def unknown(self) -> List[RelationOutcome]:
        return self._with(UNKNOWN)

    @property
    def counts(self) -> Dict[str, int]:
        """Every per-case counter summed over the campaign."""
        totals: Counter = Counter()
        for outcome in self.outcomes:
            totals.update(outcome.counts)
        return dict(sorted(totals.items()))

    def format(self) -> str:
        title = f"{self.relation.name} campaign"
        if self.relation.header:
            title += f" {self.relation.header}"
        if self.fault:
            title += f" fault={self.fault}"
        lines = [
            f"{title}: {len(self.outcomes)} case(s) "
            f"(base seed {self.base_seed}), {self.elapsed:.1f}s",
            f"  agreed: {len(self.agreed)}  "
            f"disagreed: {len(self.disagreements)}  "
            f"unknown: {len(self.unknown)}",
        ]
        lines += [f"  {name}: {value}" for name, value in self.counts.items()]
        for outcome in self.disagreements:
            lines += [
                f"  DISAGREED seed {outcome.seed} ({outcome.label}): {detail}"
                for detail in outcome.details
            ]
        return "\n".join(lines)


def run_relation(
    name: str,
    *,
    seeds: int = 50,
    base_seed: int = 0,
    progress: bool = False,
    **params: Any,
) -> RelationReport:
    """Seeded campaign over one relation: case ``i`` evaluates seed
    ``base_seed + i``, so a failing seed re-runs alone as
    ``--base-seed <seed> --seeds 1``.

    Runs inline (no pool): every case is a pair of small analyses or
    simulations, so pool-per-case overhead buys nothing at smoke scale.
    """
    from repro.obs.tracer import current_tracer

    relation = RELATIONS[name]
    started = time.perf_counter()
    outcomes: List[RelationOutcome] = []
    with current_tracer().span(
        f"oracle.{name}", seeds=seeds, base_seed=base_seed
    ) as span:
        for index in range(seeds):
            outcome = relation.evaluate(base_seed + index, **params)
            outcomes.append(outcome)
            if progress:
                print(
                    f"[{index + 1}/{seeds}] seed {outcome.seed}: "
                    f"{outcome.status.value} ({outcome.label})",
                    file=sys.stderr,
                )
        report = RelationReport(
            relation,
            outcomes,
            elapsed=time.perf_counter() - started,
            base_seed=base_seed,
            fault=params.get("fault"),
        )
        span.set(disagreed=len(report.disagreements), **report.counts)
    return report


# The relation modules build their records from the types above, so
# they are imported only once those exist.
from repro.oracle import compose, hier, modal, portfolio, reduce  # noqa: E402

#: Every relation by its ``repro oracle`` verb, in CLI help order.
RELATIONS: Dict[str, Relation] = {
    module.RELATION.name: module.RELATION
    for module in (compose, reduce, hier, modal, portfolio)
}
