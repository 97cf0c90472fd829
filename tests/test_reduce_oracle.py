"""The reduction layer under the request oracle: every reduced draw must
reach the unreduced verdict, symmetry must merge orbits only on
symmetric replicas, and POR must prune."""

from repro.cli import main
from repro.engine.reduce import REDUCTION_FAULTS
from repro.oracle import run_relation
from repro.oracle.request import evaluate, plan
from repro.oracle.verdicts import AgreementStatus


class TestReduceCampaign:
    def test_case_is_seed_reproducible(self):
        assert plan(6) == (
            "replicated",
            {"tiers": None, "reduce": "sym", "decomposition": None},
        )
        first = evaluate(6)
        second = evaluate(6)
        assert first == second
        assert first.counts["reduce.orbits_merged"] > 0

    def test_small_campaign_agrees_and_reduces(self):
        # The replicated draws that reduce with no tier to decide first.
        outcomes = [
            evaluate(seed)
            for seed in range(60)
            if plan(seed)[0] == "replicated"
            and plan(seed)[1]["reduce"]
            and not plan(seed)[1]["tiers"]
        ]
        assert len(outcomes) == 6
        assert [
            o for o in outcomes if o.status is AgreementStatus.DISAGREED
        ] == []
        # Both passes fire somewhere, on both kinds of replica.
        assert sum(o.counts["reduce.orbits_merged"] for o in outcomes) > 0
        assert sum(o.counts["reduce.por_pruned"] for o in outcomes) > 0
        kinds = {o.label.split()[1] for o in outcomes}
        assert kinds == {"jittered", "symmetric"}
        # Offset jitter breaks the symmetry: no orbit may merge there.
        assert all(
            o.counts["reduce.orbits_merged"] == 0
            for o in outcomes
            if "jittered" in o.label
        )

    def test_report_format(self):
        # Seeds 20-23 draw every family under sym,por alone.
        report = run_relation("request", seeds=4, base_seed=20)
        assert all(o.label.endswith(" [sym,por]") for o in report.outcomes)
        text = report.format()
        assert "request campaign: 4 case(s) (base seed 20)" in text
        assert "disagreed: 0" in text
        assert "reduce.orbits_merged:" in text
        assert "reduce.por_pruned:" in text


class TestCli:
    def test_oracle_reduce_command(self, capsys):
        assert main(["oracle", "request", "--seeds", "4",
                     "--base-seed", "20"]) == 0
        out = capsys.readouterr().out
        assert "request campaign: 4 case(s) (base seed 20)" in out
        assert "disagreed: 0" in out
        assert "reduce.por_pruned: 0" not in out

    def test_unknown_fault_is_a_usage_error(self, capsys):
        assert (
            main(
                [
                    "oracle", "request", "--seeds", "1",
                    "--fault", "no-such-fault",
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "unknown fault 'no-such-fault'" in err
        # The request relation offers the reduction faults.
        assert all(fault in err for fault in REDUCTION_FAULTS)
