"""The compose layer under the request oracle: every draw that
decomposes must reach the plain (monolithic) verdict, island systems
must decompose and bus-coupled ones fall back."""

from repro.cli import main
from repro.oracle import run_relation
from repro.oracle.request import evaluate, plan
from repro.oracle.verdicts import AgreementStatus

DISAGREED = AgreementStatus.DISAGREED


def composed_draws(seeds):
    return [
        (plan(seed)[0], evaluate(seed))
        for seed in seeds
        if plan(seed)[1]["decomposition"] == "compose"
    ]


class TestComposeCampaign:
    def test_case_is_seed_reproducible(self):
        assert plan(9) == (
            "multiprocessor",
            {"tiers": None, "reduce": "sym", "decomposition": "compose"},
        )
        first = evaluate(9)
        second = evaluate(9)
        assert first == second
        assert first.counts["compose.decomposed"] == 1

    def test_small_campaign_agrees(self):
        draws = composed_draws(range(60))
        assert len(draws) == 32
        assert [o for _, o in draws if o.status is DISAGREED] == []
        # The multiprocessor draw must exercise both paths, and each on
        # the systems it is meant for.
        labels = set()
        for family, outcome in draws:
            if family != "multiprocessor":
                continue
            coupled = "coupled" in outcome.label
            labels.add(coupled)
            assert outcome.counts["compose.fallback"] == int(coupled)
            assert outcome.counts["compose.decomposed"] == int(not coupled)
        assert labels == {True, False}

    def test_report_format(self):
        # Seeds 0-3 draw every family under compose alone.
        report = run_relation("request", seeds=4, base_seed=0)
        assert all(o.label.endswith(" [compose]") for o in report.outcomes)
        text = report.format()
        assert "request campaign: 4 case(s) (base seed 0)" in text
        assert "disagreed: 0" in text
        assert "compose.decomposed: 1" in text
        assert "compose.fallback: 2" in text


class TestComposeCli:
    def test_oracle_compose_command(self, capsys):
        assert main(["oracle", "request", "--seeds", "4",
                     "--base-seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "request campaign: 4 case(s) (base seed 0)" in out
        assert "disagreed: 0" in out
        assert "compose.fallback: 2" in out
