"""The portfolio layer under the request oracle: every tiered draw must
reach the plain-exploration verdict, the analytic tiers must decide
without exploring, and what they cannot decide must escalate."""

import itertools

import pytest

from repro.cli import main
from repro.oracle import run_relation
from repro.oracle.request import evaluate, plan
from repro.oracle.verdicts import AgreementStatus


def tiered_seeds(count):
    """The first ``count`` seeds whose draw enables the tiers."""
    tiered = (s for s in itertools.count() if plan(s)[1]["tiers"])
    return list(itertools.islice(tiered, count))


class TestPortfolioCase:
    def test_case_is_seed_reproducible(self):
        # A bus-coupled multiprocessor no tier decides.
        assert plan(37)[1]["tiers"]
        first = evaluate(37)
        second = evaluate(37)
        assert first == second
        assert first.counts["portfolio.escalations"] == 1


class TestPortfolioCampaign:
    @pytest.fixture(scope="class")
    def draws(self):
        # Fifty tiered draws: portfolio and pure exploration must agree
        # on every one.
        return [(plan(s)[0], evaluate(s)) for s in tiered_seeds(50)]

    def test_fifty_seed_regression_agrees(self, draws):
        assert len(draws) == 50
        assert [
            o for _, o in draws if o.status is AgreementStatus.DISAGREED
        ] == []

    def test_analytic_tiers_carry_the_load(self, draws):
        """The acceptance bar: at least half the tiered smoke cases
        must be decided by analytic tiers, with zero states explored."""
        smoke = [o for family, o in draws if family == "smoke"]
        analytic = [o for o in smoke if o.counts["portfolio.analytic"]]
        assert 2 * len(analytic) >= len(smoke) > 0
        assert all(
            o.counts["portfolio.analytic_states"] == 0 for _, o in draws
        )

    def test_histogram_and_format(self, draws):
        """A single tiered analysis is decided by a tier or escalated,
        never both and never neither."""
        single = [
            o
            for family, o in draws
            if family != "modal" and not plan(o.seed)[1]["decomposition"]
        ]
        assert single
        assert all(
            o.counts["portfolio.analytic"]
            + o.counts["portfolio.escalations"]
            == 1
            for o in single
        )
        assert any(o.counts["portfolio.escalations"] for o in single)
        # Seeds 28-31 draw every family under the tiers alone.
        text = run_relation("request", seeds=4, base_seed=28).format()
        assert "request campaign: 4 case(s) (base seed 28)" in text
        assert "disagreed: 0" in text
        assert "portfolio.analytic_states: 0" in text
        assert "portfolio.escalations: 0" in text


class TestPortfolioOracleCli:
    def test_oracle_portfolio_command(self, capsys):
        assert main(["oracle", "request", "--seeds", "4",
                     "--base-seed", "28"]) == 0
        out = capsys.readouterr().out
        assert "request campaign: 4 case(s) (base seed 28)" in out
        assert "disagreed: 0" in out
        assert "portfolio.analytic_states: 0" in out
