"""The compositional ≡ monolithic oracle relation and the compose CLI."""

import pytest

from repro.aadl import format_model
from repro.aadl.gallery import coupled_islands, dual_island
from repro.analysis import Verdict
from repro.cli import main
from repro.oracle import run_relation
from repro.oracle.compose import evaluate, equal
from repro.oracle.verdicts import AgreementStatus

AGREED = AgreementStatus.AGREED
DISAGREED = AgreementStatus.DISAGREED
UNKNOWN = AgreementStatus.UNKNOWN


class TestAgreementRelation:
    """The compose oracle classifies with the UNKNOWN-aware equality."""

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
        """An island can decide what the larger monolithic space cannot
        (or vice versa); budget exhaustion is not unsoundness."""
        assert equal(Verdict.UNKNOWN, Verdict.SCHEDULABLE) is UNKNOWN
        assert equal(Verdict.UNSCHEDULABLE, Verdict.UNKNOWN) is UNKNOWN


class TestComposeCampaign:
    def test_case_is_seed_reproducible(self):
        first = evaluate(7)
        second = evaluate(7)
        assert first.status is second.status
        assert first.label == second.label
        assert first.counts == second.counts

    def test_small_campaign_agrees(self):
        report = run_relation("compose", seeds=8, base_seed=0)
        assert len(report.outcomes) == 8
        assert report.disagreements == []
        # The draw must exercise both paths at these seeds.
        modes = {o.label for o in report.outcomes}
        assert "compositional" in modes
        assert "monolithic-fallback" in modes

    def test_report_format(self):
        report = run_relation("compose", seeds=4, base_seed=0)
        text = report.format()
        assert "4 case(s)" in text
        assert "disagreed: 0" in text
        assert "island_states:" in text
        assert "monolithic_states:" in text


@pytest.fixture()
def dual_file(tmp_path):
    path = tmp_path / "dual.aadl"
    path.write_text(format_model(dual_island().declarative))
    return str(path)


@pytest.fixture()
def coupled_file(tmp_path):
    path = tmp_path / "coupled.aadl"
    path.write_text(format_model(coupled_islands().declarative))
    return str(path)


class TestComposeCli:
    def test_analyze_compose_schedulable(self, dual_file, capsys):
        assert main(["analyze", dual_file, "--compose", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "compose: 2 islands" in out
        assert "verdict: schedulable" in out

    def test_analyze_compose_unschedulable(self, tmp_path, capsys):
        path = tmp_path / "bad.aadl"
        path.write_text(
            format_model(dual_island(schedulable=False).declarative)
        )
        assert (
            main(["analyze", str(path), "--compose", "--jobs", "1"]) == 1
        )
        out = capsys.readouterr().out
        assert "counterexample island: island-1-cpu2" in out

    def test_analyze_compose_fallback_logs_reason(
        self, coupled_file, capsys
    ):
        assert (
            main(["analyze", coupled_file, "--compose", "--jobs", "1"])
            == 0
        )
        captured = capsys.readouterr()
        assert "monolithic fallback" in captured.err
        assert "coupled" in captured.err
        assert "verdict: schedulable" in captured.out

    def test_compose_rejects_multiple_files(
        self, dual_file, coupled_file, capsys
    ):
        assert (
            main(["analyze", dual_file, coupled_file, "--compose"]) == 2
        )
        assert "exactly one model" in capsys.readouterr().err

    def test_compose_all_modes_needs_a_modal_root(self, dual_file, capsys):
        """--compose composes with --all-modes now (one decomposition
        per steady mode); a modeless root is still an error."""
        assert (
            main(["analyze", dual_file, "--compose", "--all-modes"]) == 2
        )
        assert "declares no modes" in capsys.readouterr().err

    def test_compose_plan_decomposable(self, dual_file, capsys):
        assert main(["compose", "plan", dual_file]) == 0
        out = capsys.readouterr().out
        assert "islands: 2" in out

    def test_compose_plan_coupled(self, coupled_file, capsys):
        assert main(["compose", "plan", coupled_file]) == 0
        out = capsys.readouterr().out
        assert "fallback: monolithic" in out
        assert "[event]" in out

    def test_compose_with_cache(self, dual_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = [
            "analyze", dual_file, "--compose", "--jobs", "1",
            "--cache-dir", cache_dir,
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "[cached]" in capsys.readouterr().out

    def test_oracle_compose_command(self, capsys):
        assert main(["oracle", "compose", "--seeds", "4"]) == 0
        out = capsys.readouterr().out
        assert "compose campaign: 4 case(s)" in out
        assert "disagreed: 0" in out

    def test_compose_trace_records_stages(self, dual_file, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        assert (
            main(
                [
                    "analyze", dual_file, "--compose", "--jobs", "1",
                    "--trace", trace,
                ]
            )
            == 0
        )
        from repro.obs import COMPOSE_STAGES, validate_file

        records = validate_file(trace)
        names = {
            r["name"] for r in records if r.get("type") == "span"
        }
        for stage in COMPOSE_STAGES:
            assert stage in names
