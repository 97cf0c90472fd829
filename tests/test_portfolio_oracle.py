"""The portfolio ≡ exploration oracle relation and its CLI entry."""

import pytest

from repro.cli import main
from repro.oracle import AgreementStatus, run_relation
from repro.oracle.portfolio import evaluate


class TestPortfolioCase:
    def test_case_is_seed_reproducible(self):
        first = evaluate(7)
        second = evaluate(7)
        assert first.status is second.status
        assert first.label == second.label
        assert first.counts == second.counts

    def test_outcome_records_deciding_tier(self):
        outcome = evaluate(0)
        tiers = [k for k in outcome.counts if k.startswith("decided_by.")]
        assert tiers and tiers != ["decided_by.?"]
        assert outcome.status is not AgreementStatus.DISAGREED

    def test_failing_seed_reruns_alone(self):
        """Case i of a campaign draws from seed base+i alone, so the
        seed a report prints re-runs that very case."""
        campaign = run_relation("portfolio", seeds=6, base_seed=0)
        alone = run_relation("portfolio", seeds=1, base_seed=5)
        assert campaign.outcomes[5].label == "harmonic-5"
        assert alone.outcomes[0].label == campaign.outcomes[5].label
        assert alone.outcomes[0].counts == campaign.outcomes[5].counts


class TestPortfolioCampaign:
    @pytest.fixture(scope="class")
    def smoke_report(self):
        # The 50-seed regression the issue pins: portfolio and pure
        # exploration must agree on every seed.
        return run_relation("portfolio", seeds=50, base_seed=0)

    def test_fifty_seed_regression_agrees(self, smoke_report):
        assert len(smoke_report.outcomes) == 50
        assert smoke_report.disagreements == []

    def test_analytic_tiers_carry_the_load(self, smoke_report):
        """The acceptance bar: at least half the verdicts must come
        from analytic tiers with zero states explored."""
        counts = smoke_report.counts
        assert counts["analytic"] >= 25
        assert counts["analytic_states"] == 0

    def test_histogram_and_format(self, smoke_report):
        counts = smoke_report.counts
        assert counts["analytic"] + counts["escalated"] == 50
        assert (
            sum(v for k, v in counts.items() if k.startswith("decided_by."))
            == 50
        )
        text = smoke_report.format()
        assert "50 case(s)" in text
        assert "decided_by." in text
        assert "disagreed: 0" in text


class TestPortfolioOracleCli:
    def test_oracle_portfolio_command(self, capsys):
        assert (
            main(
                [
                    "oracle",
                    "portfolio",
                    "--seeds",
                    "6",
                    "--base-seed",
                    "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "portfolio campaign: 6 case(s)" in out
        assert "disagreed: 0" in out
