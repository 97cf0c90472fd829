"""The reduced ≡ unreduced oracle relation and its CLI command."""

import gc

from repro.acsr.terms import Term
from repro.analysis import Verdict
from repro.cli import main
from repro.oracle import run_relation
from repro.oracle.reduce import evaluate, equal
from repro.oracle.verdicts import AgreementStatus

AGREED = AgreementStatus.AGREED
DISAGREED = AgreementStatus.DISAGREED
UNKNOWN = AgreementStatus.UNKNOWN


class TestAgreementRelation:
    """The reduce oracle classifies with the UNKNOWN-aware equality."""

    def test_equal_decided_verdicts_agree(self):
        assert equal(Verdict.SCHEDULABLE, Verdict.SCHEDULABLE) is AGREED
        assert (
            equal(Verdict.UNSCHEDULABLE, Verdict.UNSCHEDULABLE) is AGREED
        )

    def test_decided_mismatch_disagrees(self):
        assert (
            equal(Verdict.SCHEDULABLE, Verdict.UNSCHEDULABLE) is DISAGREED
        )

    def test_unknown_is_not_a_disagreement(self):
        """Reduction changes which prefix a truncated run covers, so a
        budget-bound UNKNOWN on either side is never unsoundness."""
        assert equal(Verdict.UNKNOWN, Verdict.SCHEDULABLE) is UNKNOWN
        assert equal(Verdict.UNSCHEDULABLE, Verdict.UNKNOWN) is UNKNOWN


def live_terms() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Term))


class TestReduceCampaign:
    def test_campaign_keeps_no_term_alive(self):
        """Every seed runs in an intern scope, so once the campaign is
        over nothing may still hold one of its terms -- in particular
        no module-level memo of the reduction passes."""
        before = live_terms()
        run_relation("reduce", seeds=5)
        assert live_terms() == before

    def test_case_is_seed_reproducible(self):
        first = evaluate(11)
        second = evaluate(11)
        assert first.status is second.status
        assert first.label == second.label  # jittered or symmetric
        assert first.counts == second.counts

    def test_small_campaign_agrees_and_reduces(self):
        report = run_relation("reduce", seeds=8, base_seed=100)
        assert len(report.outcomes) == 8
        assert report.disagreements == []
        # The passes must actually fire somewhere in the campaign.
        assert report.counts["orbits_merged"] > 0
        assert report.counts["por_pruned"] > 0
        # The draw must include both symmetric and jittered systems.
        assert {o.label for o in report.outcomes} == {
            "jittered", "symmetric",
        }

    def test_report_format(self):
        report = run_relation("reduce", seeds=4, base_seed=100)
        text = report.format()
        assert "reduce campaign [sym,por]: 4 case(s)" in text
        assert "disagreed: 0" in text
        assert "orbits_merged:" in text
        assert "por_pruned:" in text


class TestCli:
    def test_oracle_reduce_command(self, capsys):
        assert main(["oracle", "reduce", "--seeds", "4",
                     "--base-seed", "100"]) == 0
        out = capsys.readouterr().out
        assert "reduce campaign [sym,por]: 4 case(s)" in out
        assert "disagreed: 0" in out

    def test_oracle_reduce_fault_exits_nonzero(self, capsys):
        assert (
            main(
                [
                    "oracle", "reduce", "--seeds", "8",
                    "--base-seed", "100", "--fault", "overeager-sym",
                ]
            )
            == 1
        )
        assert "DISAGREED" in capsys.readouterr().out

    def test_unknown_fault_is_a_usage_error(self, capsys):
        assert (
            main(
                [
                    "oracle", "reduce", "--seeds", "1",
                    "--fault", "no-such-fault",
                ]
            )
            == 2
        )
        assert "unknown reduction fault" in capsys.readouterr().err
