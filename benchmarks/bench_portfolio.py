"""T-PORTFOLIO: analytic tiers vs exhaustive exploration.

The portfolio's acceptance claim: on the classical fragment the tier
chain reaches the exploration's verdict in microseconds with **zero**
states explored, and over a seeded campaign the analytic tiers decide
the majority of cases.  Two measurements pin it:

* per-model -- ``analyze_portfolio`` vs ``analyze_model`` on the
  gallery's two-thread model (both variants), asserting verdict
  equality, 0 analytic states, and a wall-clock win;
* campaign -- a seeded ``request`` relation sweep, asserting the
  analytic share of its tiered smoke-envelope draws stays above one
  half.
"""

import time

import pytest

from repro.aadl.gallery import two_periodic_threads
from repro.analysis import analyze_model
from repro.portfolio import analyze_portfolio

from conftest import print_table

MAX_STATES = 400_000
CAMPAIGN_SEEDS = 120


@pytest.mark.parametrize("schedulable", [True, False])
def test_portfolio_skips_exploration(benchmark, schedulable):
    instance = two_periodic_threads(schedulable=schedulable)
    exploration = analyze_model(instance, max_states=MAX_STATES)

    result = benchmark.pedantic(
        lambda: analyze_portfolio(instance, max_states=MAX_STATES),
        rounds=5,
        iterations=1,
    )

    assert result.verdict is exploration.verdict
    assert result.num_states == 0
    assert result.decided_by != "exploration"

    print_table(
        f"two_periodic_threads(schedulable={schedulable})",
        ["run", "verdict", "states", "decided by"],
        [
            (
                "exploration",
                exploration.verdict.value,
                exploration.num_states,
                "exploration",
            ),
            (
                "portfolio",
                result.verdict.value,
                result.num_states,
                result.decided_by,
            ),
        ],
    )


def test_campaign_analytic_share(benchmark):
    """Over the request relation's tiered smoke-envelope draws the
    analytic tiers must carry at least half the verdicts (the
    portfolio's acceptance bar) -- in practice the classical fragment is fully covered and the
    share is ~100%.  Two windows of 60 seeds hold 16 such draws."""
    from repro.oracle import run_relation
    from repro.oracle.request import plan

    started = time.perf_counter()
    report = benchmark.pedantic(
        lambda: run_relation(
            "request",
            seeds=CAMPAIGN_SEEDS,
            base_seed=0,
            max_states=MAX_STATES,
        ),
        rounds=1,
        iterations=1,
    )
    elapsed = time.perf_counter() - started

    assert report.disagreements == []
    assert report.counts["portfolio.analytic_states"] == 0
    tiered = [
        outcome
        for outcome in report.outcomes
        if plan(outcome.seed)[0] == "smoke" and plan(outcome.seed)[1]["tiers"]
    ]
    analytic = sum(o.counts["portfolio.analytic"] for o in tiered)
    escalated = sum(o.counts["portfolio.escalations"] for o in tiered)
    assert tiered and analytic * 2 >= len(tiered)

    print_table(
        f"request campaign ({CAMPAIGN_SEEDS} seeds, {elapsed:.1f}s): "
        f"tiered smoke draws",
        ["draws", "decided analytically", "escalated"],
        [(len(tiered), analytic, escalated)],
    )
