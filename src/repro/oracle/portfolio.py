"""Differential oracle for the tiered verdict portfolio.

The relation under test: on any workload, ``analyze --portfolio`` and
the pure exhaustive exploration must reach the **same verdict**.  That
is exactly the soundness contract of the tier chain -- a SUFFICIENT
tier may only claim SCHEDULABLE, a NECESSARY tier only UNSCHEDULABLE,
and an EXACT tier both, all on the very model the translation would
explore (same quantizer, same fragment).  Any divergence means a tier
overstepped its soundness class or its applicability screen leaked.

Each seeded case is drawn from the same envelope as the main oracle's
smoke campaign (:data:`repro.oracle.campaign.PROFILES`), so the
portfolio faces the full generator spread: uniform, harmonic,
constrained-deadline and offset-bearing sets under RM, DM and EDF.
Both analyses run at the same exploration budget and the outcome is
classified with :func:`repro.oracle.relations.equal`, like compose:

* ``AGREED`` -- same decided verdict; additionally, an analytic
  UNSCHEDULABLE must carry a *witness* scenario that names at least one
  deadline miss (a claim without evidence is classified ``DISAGREED``
  even when the verdicts line up);
* ``UNKNOWN`` -- the exploration side exhausted its budget (the
  portfolio deciding what the budget could not is the feature, not a
  bug signal);
* ``DISAGREED`` -- both sides decided and differ, or an analytic
  unschedulable verdict arrived without a substantiating witness.  CI
  gates on this.
"""

from __future__ import annotations

from repro.analysis.schedulability import Verdict, analyze_model
from repro.oracle.campaign import PROFILES, draw_case
from repro.oracle.relations import (
    DISAGREED,
    MAX_STATES,
    MAX_STATES_PARAM,
    UNKNOWN,
    Relation,
    RelationOutcome,
    equal,
)


def _witness_note(result) -> str:
    """Why an analytic UNSCHEDULABLE fails the witness cross-check, or
    the empty string when its evidence holds up."""
    if result.verdict is not Verdict.UNSCHEDULABLE:
        return ""
    if result.decided_by in (None, "exploration"):
        return ""  # exploration carries its own counterexample trace
    scenario = result.scenario
    if scenario is None:
        return "analytic unschedulable verdict carries no witness"
    if not scenario.misses:
        return "witness scenario names no deadline miss"
    return ""


def evaluate(seed: int, *, max_states: int = MAX_STATES) -> RelationOutcome:
    """Draw one case and compare the portfolio against pure exploration.

    The draw reuses the main oracle's smoke envelope (generator cycling
    plus seed-derived parameters) with the seed as the case index, so a
    failing seed reproduces byte-for-byte with
    ``draw_case(PROFILES["smoke"], seed, seed)`` -- and from the CLI as
    ``repro oracle portfolio --base-seed <seed> --seeds 1``.
    """
    from repro.portfolio import analyze_portfolio

    case = draw_case(PROFILES["smoke"], seed, seed)
    instance = case.system()
    portfolio = analyze_portfolio(instance, max_states=max_states)
    exploration = analyze_model(instance, max_states=max_states)

    status = equal(exploration.verdict, portfolio.verdict)
    note = _witness_note(portfolio)
    if note and status is not UNKNOWN:
        status = DISAGREED
    decided_by = portfolio.decided_by or "?"
    analytic = decided_by not in ("?", "exploration")
    return RelationOutcome(
        seed,
        status,
        case.case_id,
        counts={
            "analytic": int(analytic),
            "escalated": int(not analytic),
            # Must stay 0: an analytic verdict explores nothing.
            "analytic_states": portfolio.num_states if analytic else 0,
            # What exploration paid for the verdicts the tiers gave free.
            "states_saved": exploration.num_states if analytic else 0,
            f"decided_by.{decided_by}": 1,
        },
        details=[
            f"{case.scheduling}: portfolio {portfolio.verdict.value} "
            f"[{decided_by}] vs exploration {exploration.verdict.value}"
            + (f" -- {note}" if note else "")
        ]
        if status is DISAGREED
        else [],
    )


RELATION = Relation(
    name="portfolio",
    help="seeded campaign asserting portfolio ≡ pure-exploration "
    "verdicts (UNKNOWN-aware, witnesses cross-checked)",
    evaluate=evaluate,
    params=(MAX_STATES_PARAM,),
)
