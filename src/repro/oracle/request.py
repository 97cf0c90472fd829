"""Differential oracle for every exploring layer, alone and together.

The paper's S5 theorem makes plain exploration the reference: a model
is schedulable iff its translation is deadlock-free.  So the portfolio
(``tiers``), state-space reduction (``reduce``), island decomposition
(``decomposition="compose"``) and the per-mode fan-out
(``modes="all"``) must reach the plain request's verdict for the same
source, in any combination.

The draw is stratified: seed ``s`` draws family ``s % 4``
(:data:`FAMILIES`) and layers ``COMBOS[(s // 4) % 15]``, so every
window of 60 seeds runs each family under each combination once.  The
plain request is explicitly unreduced (``reduce="none"``: reduction is
on by default), and a combination's ``reduce=None`` is unreduced too.
Both requests run through :func:`repro.analysis.request.analyze` at the
same budget and are classified with
:func:`repro.oracle.relations.equal`, per mode (folded with
:func:`~repro.oracle.relations.worst`) for the all-modes family:

* ``AGREED`` -- same decided verdict, and an analytic UNSCHEDULABLE
  carries a *witness* scenario that names a deadline miss;
* ``UNKNOWN`` -- either side exhausted its budget (an island, a reduced
  space or a tier may decide what the other side cannot);
* ``DISAGREED`` -- both sides decided and differ, an analytic
  UNSCHEDULABLE has no witness, or the layered request raised (an
  unreduced search refuting a reduced deadlock, say) where the plain
  one answered.  CI gates on it.  A raising request has no layer
  counts; it counts one ``request.errors`` instead.

``fault=`` names a registered reduction bug
(:data:`repro.engine.reduce.REDUCTION_FAULTS`).  It rides in the
layered request of every draw that reduces without compose (the
request refuses a fault with compose), and the campaign must then
disagree on some seed: the oracle's own self-test.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.aadl.printer import format_model
from repro.analysis.modes import ModalAnalysisResult
from repro.analysis.request import DEFAULT_TIERS, AnalysisRequest, analyze
from repro.analysis.schedulability import Verdict
from repro.compose.combiner import CompositionResult
from repro.engine.reduce import REDUCTION_FAULTS
from repro.errors import ReproError
from repro.oracle import modal
from repro.oracle.campaign import PROFILES, draw_case
from repro.oracle.relations import (
    DISAGREED,
    MAX_STATES,
    MAX_STATES_PARAM,
    UNKNOWN,
    Param,
    Relation,
    RelationOutcome,
    equal,
    worst,
)
from repro.oracle.verdicts import AgreementStatus
from repro.workloads.generators import (
    multiprocessor_system,
    replicated_system,
)

#: Every non-empty layer combination, as request fields.
COMBOS: Tuple[Dict[str, Optional[str]], ...] = tuple(
    {"tiers": tiers, "reduce": reduce, "decomposition": decomposition}
    for tiers, reduce, decomposition in itertools.product(
        (None, DEFAULT_TIERS),
        (None, "sym", "por", "sym,por"),
        (None, "compose"),
    )
    if tiers or reduce or decomposition
)


def _smoke(seed: int):
    """The main oracle's smoke envelope.  The index ``seed // 4`` (the
    seed is a multiple of 4 here) cycles all four generators."""
    case = draw_case(PROFILES["smoke"], seed, seed // 4)
    return case.case_id, case.system().declarative


def _multiprocessor(seed: int):
    """An island per processor, or (a quarter) one bus-coupled system
    that compose falls back on."""
    rng = np.random.default_rng(seed)
    n_processors = int(rng.integers(2, 4))
    threads_per_processor = int(rng.integers(1, 3))
    utilization = float(rng.uniform(0.3, 1.15))
    coupled = bool(rng.random() < 0.25)
    instance = multiprocessor_system(
        n_processors,
        threads_per_processor,
        utilization_per_processor=utilization,
        shared_bus=coupled,
        rng=rng,
    )
    return "coupled" if coupled else "islands", instance.declarative


def _replicated(seed: int):
    """Identical replica processors, where symmetry fires, or (a
    quarter) offset-jittered ones, where it must not."""
    rng = np.random.default_rng(seed)
    n_replicas = int(rng.integers(2, 5))
    threads_per_replica = int(rng.integers(1, 3))
    utilization = float(rng.uniform(0.3, 1.15))
    jittered = bool(rng.random() < 0.25)
    instance = replicated_system(
        n_replicas,
        threads_per_replica,
        utilization_per_replica=utilization,
        offset_jitter=jittered,
        rng=rng,
    )
    return "jittered" if jittered else "symmetric", instance.declarative


#: The families in ``seed % 4`` order: a draw returning a short label
#: and the declarative model, and the ``modes`` both requests run with.
FAMILIES = {
    "smoke": (_smoke, None),
    "multiprocessor": (_multiprocessor, None),
    "replicated": (_replicated, None),
    "modal": (lambda seed: ("modal", modal.draw(seed)), "all"),
}


def plan(seed: int) -> Tuple[str, Dict[str, Optional[str]]]:
    """The family name and layer combination ``seed`` draws."""
    family = list(FAMILIES)[seed % len(FAMILIES)]
    return family, COMBOS[(seed // len(FAMILIES)) % len(COMBOS)]


def _analytic(result) -> bool:
    """Whether a tier, not exploration, decided ``result``."""
    return getattr(result, "decided_by", None) not in (None, "exploration")


def _witness_note(result) -> str:
    """Why an analytic UNSCHEDULABLE fails the witness cross-check, or
    the empty string when there is no such claim or its evidence holds
    up."""
    if result.verdict is not Verdict.UNSCHEDULABLE or not _analytic(result):
        return ""  # exploration carries its own counterexample trace
    if result.scenario is None:
        return "analytic unschedulable verdict carries no witness"
    if not result.scenario.misses:
        return "witness scenario names no deadline miss"
    return ""


def _parts(result) -> dict:
    """What is classified: each mode's outcome of an all-modes result,
    a compose fallback's monolithic run, else the result itself."""
    if isinstance(result, ModalAnalysisResult):
        return {f"mode {m}: ": o for m, o in result.per_mode.items()}
    if isinstance(result, CompositionResult) and result.monolithic:
        return {"": result.monolithic}
    return {"": result}


def classify(plain, layered) -> Tuple[AgreementStatus, List[str]]:
    """The status of ``layered`` against ``plain`` (see the module
    docstring) and one detail line per disagreeing part."""
    statuses = []
    details: List[str] = []
    layered_parts = _parts(layered)
    for where, reference in _parts(plain).items():
        part = layered_parts[where]
        status = equal(reference.verdict, part.verdict)
        note = _witness_note(part)
        if note and status is not UNKNOWN:
            status = DISAGREED
        statuses.append(status)
        if status is DISAGREED:
            by = getattr(part, "decided_by", None)
            details.append(
                f"{where}plain {reference.verdict.value} vs layered "
                f"{part.verdict.value}"
                + (f" [{by}]" if by else "")
                + (f" -- {note}" if note else "")
            )
    return worst(statuses), details


def _counts(layered) -> Dict[str, int]:
    """The layers' own counters, summed over the analyses they ran."""
    total = layered.stats.counters
    analytic = [
        part for part in _parts(layered).values() if _analytic(part)
    ]
    composed = isinstance(layered, CompositionResult)
    return {
        "portfolio.analytic": sum(
            count for name, count in total.items()
            if name.startswith("portfolio.hits.")
        ),
        # Must stay 0: an analytic verdict explores nothing.
        "portfolio.analytic_states": sum(p.num_states for p in analytic),
        "portfolio.escalations": total.get("portfolio.escalations", 0),
        "compose.decomposed": int(composed and layered.compositional),
        "compose.fallback": int(composed and not layered.compositional),
        "reduce.orbits_merged": total.get("reduce.orbits_merged", 0),
        "reduce.por_pruned": total.get("reduce.por_pruned", 0),
        "request.errors": 0,
    }


def evaluate(
    seed: int,
    *,
    max_states: int = MAX_STATES,
    fault: Optional[str] = None,
) -> RelationOutcome:
    """Draw the model and layers of ``seed`` (:func:`plan`) and compare
    the layered request with the plain one.  The draw derives from the
    seed alone, so a failing seed reproduces byte-for-byte, from the
    CLI as ``repro oracle request --base-seed <seed> --seeds 1``."""
    family, layers = plan(seed)
    draw, modes = FAMILIES[family]
    label, model = draw(seed)
    source = format_model(model)

    def run(**fields):
        request = AnalysisRequest(
            source, modes=modes, max_states=max_states, **fields
        )
        return analyze(request, model=model, workers=1)

    if layers["decomposition"] or not layers["reduce"]:
        fault = None
    combo = " ".join(
        "tiers" if name == "tiers" else value
        for name, value in layers.items()
        if value
    )
    title = f"{family} {label} [{combo}]"
    plain = run(reduce="none")
    try:
        layered = run(fault=fault, **layers)
    except ReproError as exc:
        # The layers ran but return no counts: count the error, so a
        # campaign's totals say how many seeds they leave out.
        return RelationOutcome(
            seed,
            DISAGREED,
            title,
            counts={"request.errors": 1},
            details=[f"layered request failed: {exc}"],
        )
    status, details = classify(plain, layered)
    return RelationOutcome(
        seed, status, title, counts=_counts(layered), details=details
    )


RELATION = Relation(
    name="request",
    help="seeded campaign asserting every combination of portfolio, "
    "reduction, compose and all-modes reaches the plain-exploration "
    "verdict (UNKNOWN-aware, witnesses cross-checked)",
    evaluate=evaluate,
    params=(
        MAX_STATES_PARAM,
        Param(
            "fault",
            None,
            "inject a known reduction bug into every draw that reduces "
            "without compose (harness self-test; see "
            "repro.engine.reduce.REDUCTION_FAULTS)",
        ),
    ),
    faults=REDUCTION_FAULTS,
)
