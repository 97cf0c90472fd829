"""Tiered verdict portfolio: analytic fast path, exploration as escalation.

The exhaustive ACSR exploration is the paper's exact instrument, but on
the classical fragment (independent periodic threads, no communication)
the textbook tests decide the very same quantized model in microseconds.
This package chains them in escalating cost order --

    utilization cap -> utilization bounds -> RTA -> EDF demand ->
    hyperperiod simulation -> (escalate) exhaustive exploration

-- with each tier's conclusions bounded by an explicit soundness class
(:class:`~repro.portfolio.tiers.Soundness`), witnesses synthesized for
analytic UNSCHEDULABLE verdicts, and per-tier counters on the engine
stats.  Two functions make the portfolio: :func:`screen` runs a tier
chain, and :func:`analyze_portfolio` hands what it leaves undecided to
:func:`escalate` -- the hierarchical analysis for a partitioned
instance, exhaustive exploration otherwise -- which the compose
runner's islands share.  ``repro analyze --portfolio``, the compose
runner and the batch pool route through them; the ``oracle request``
relation cross-checks them against pure exploration.  See
``docs/portfolio.md``.
"""

from repro.portfolio.analyzer import analyze_portfolio, escalate, screen
from repro.portfolio.context import (
    AnalyticUnit,
    PortfolioContext,
    build_context,
)
from repro.portfolio.tiers import (
    DEFAULT_MAX_HORIZON,
    EdfDemandTier,
    RtaTier,
    SimulationTier,
    Soundness,
    Tier,
    UnitDecision,
    UtilizationBoundTier,
    UtilizationCapTier,
    default_tiers,
    tiers_from_token,
)
from repro.portfolio.witness import (
    explanation_witness,
    miss_witness,
    scenario_from_simulation,
)

__all__ = [
    "AnalyticUnit",
    "DEFAULT_MAX_HORIZON",
    "EdfDemandTier",
    "PortfolioContext",
    "RtaTier",
    "SimulationTier",
    "Soundness",
    "Tier",
    "UnitDecision",
    "UtilizationBoundTier",
    "UtilizationCapTier",
    "analyze_portfolio",
    "build_context",
    "default_tiers",
    "escalate",
    "explanation_witness",
    "miss_witness",
    "scenario_from_simulation",
    "screen",
    "tiers_from_token",
]
