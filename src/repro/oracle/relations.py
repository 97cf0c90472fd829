"""One campaign runner for every oracle relation.

The ``run`` relation checks the paper's own claim -- the pipeline
verdict against the classical analyses, classified by
:func:`repro.oracle.verdicts.classify`.  Each analysis layer grown
around the pipeline is trusted only because a seeded campaign pits it
against a reference: ``request`` runs every combination of the
exploring layers (portfolio, reduction, compose, all modes) against
plain exploration, and ``hier`` and ``modal`` check partitions and
transitions against exact simulations.  A relation is a
:class:`Relation` record: a seeded ``evaluate`` that draws one case,
runs both sides and classifies them, plus the parameters and fault
registry the CLI exposes.  The layer relations share two classifiers:

* :func:`equal` -- UNKNOWN-aware equivalence of two verdicts (the
  request relation): budget exhaustion on either side is not evidence
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
from repro.errors import SchedError
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

    def to_dict(self) -> Dict[str, Any]:
        """JSON form: how an outcome crosses the batch pool."""
        return {
            "seed": self.seed,
            "status": self.status.value,
            "label": self.label,
            "counts": dict(self.counts),
            "details": list(self.details),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RelationOutcome":
        return cls(
            data["seed"],
            AgreementStatus(data["status"]),
            data["label"],
            dict(data["counts"]),
            list(data["details"]),
        )


@dataclass(frozen=True)
class Param:
    """A relation-specific campaign parameter, exposed as one CLI flag."""

    name: str
    default: Any
    help: str
    #: the flag's value type; None infers it from the default (str
    #: for a None default)
    type: Optional[Callable[[str], Any]] = None

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
    #: extra report-header text after "<name> campaign", formatted
    #: with the campaign's parameters
    header: str = ""
    #: whether ``evaluate`` takes a ``cache`` (verdict-cache spec)
    cached: bool = False


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
        params: Dict[str, Any],
    ) -> None:
        self.relation = relation
        self.outcomes = outcomes
        self.elapsed = elapsed
        self.base_seed = base_seed
        #: every parameter the cases ran with, defaults included
        self.params = params

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
            title += " " + self.relation.header.format(**self.params)
        if self.params.get("fault"):
            title += f" fault={self.params['fault']}"
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
    jobs: Optional[int] = 1,
    cache: Any = None,
    **params: Any,
) -> RelationReport:
    """Seeded campaign over one relation: case ``i`` evaluates seed
    ``base_seed + i``, so a failing seed re-runs alone as
    ``--base-seed <seed> --seeds 1``.

    Every seed is one ``relation`` job of :func:`repro.batch.run_batch`:
    ``jobs=1`` runs them inline, ``jobs=N`` across N worker processes
    (None: one per core), with identical outcomes in seed order.
    ``cache`` is a verdict-cache spec, accepted only by a relation
    whose record is ``cached``.
    """
    from repro.batch import AnalysisJob, VerdictCache, run_batch
    from repro.obs.tracer import current_tracer

    relation = RELATIONS[name]
    if seeds < 1:
        raise SchedError(f"need at least one seed, got {seeds}")
    unknown = set(params) - {param.name for param in relation.params}
    if unknown:
        raise SchedError(
            f"the {name} relation has no parameter(s) {sorted(unknown)}"
        )
    params = {
        **{param.name: param.default for param in relation.params},
        **params,
    }
    fault = params.get("fault")
    if fault is not None and fault not in relation.faults:
        raise SchedError(
            f"unknown fault {fault!r} for the {name} relation; choose "
            f"from {sorted(relation.faults)}"
        )
    evaluated = dict(params)
    if cache is not None and cache is not False:
        if not relation.cached:
            raise SchedError(f"the {name} relation keeps no verdict cache")
        # Jobs carry JSON only: a cache object travels as its directory.
        evaluated["cache"] = (
            cache.directory if isinstance(cache, VerdictCache) else cache
        )

    def report_progress(done: int, total: int, result) -> None:
        if result.error is None:
            outcome = RelationOutcome.from_dict(result.classification)
            print(
                f"[{done}/{total}] seed {outcome.seed}: "
                f"{outcome.status.value} ({outcome.label})",
                file=sys.stderr,
            )

    started = time.perf_counter()
    with current_tracer().span(
        f"oracle.{name}", seeds=seeds, base_seed=base_seed
    ) as span:
        batch = run_batch(
            [
                AnalysisJob.from_relation(name, base_seed + index, evaluated)
                for index in range(seeds)
            ],
            workers=jobs,
            progress=report_progress if progress else None,
        )
        outcomes: List[RelationOutcome] = []
        for result in batch.results:
            if result.error is not None:
                raise SchedError(f"{result.job_id}: {result.error}")
            outcomes.append(RelationOutcome.from_dict(result.classification))
        report = RelationReport(
            relation,
            outcomes,
            elapsed=time.perf_counter() - started,
            base_seed=base_seed,
            params=params,
        )
        span.set(disagreed=len(report.disagreements), **report.counts)
    return report


# The relation modules build their records from the types above, so
# they are imported only once those exist.
from repro.oracle import campaign, hier, modal, request  # noqa: E402

#: Every relation by its ``repro oracle`` verb, in CLI help order.
RELATIONS: Dict[str, Relation] = {
    module.RELATION.name: module.RELATION
    for module in (campaign, request, hier, modal)
}
