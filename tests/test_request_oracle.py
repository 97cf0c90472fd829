"""The request relation: every exploring layer, alone and together,
against plain exploration of the same source."""

import gc
from types import SimpleNamespace

import pytest

from repro.acsr.terms import Term
from repro.analysis import Verdict
from repro.cli import main
from repro.oracle import run_relation
from repro.oracle.request import COMBOS, FAMILIES, classify, evaluate, plan
from repro.oracle.verdicts import AgreementStatus

S, U, N = Verdict.SCHEDULABLE, Verdict.UNSCHEDULABLE, Verdict.UNKNOWN
AGREED = AgreementStatus.AGREED
DISAGREED = AgreementStatus.DISAGREED
UNKNOWN = AgreementStatus.UNKNOWN


class TestDraw:
    def test_combos_are_every_nonempty_layer_set(self):
        keys = {tuple(combo.values()) for combo in COMBOS}
        assert len(COMBOS) == len(keys) == 15
        assert all(any(key) for key in keys)

    def test_first_window_covers_every_pair(self):
        pairs = {
            (family, tuple(combo.values()))
            for family, combo in map(plan, range(60))
        }
        assert len(pairs) == len(FAMILIES) * len(COMBOS) == 60

    def test_case_is_seed_reproducible(self):
        first = evaluate(7)
        second = evaluate(7)
        assert first == second

    def test_layered_error_disagrees(self):
        """A layered request that raises where the plain one answered is
        a disagreement, with the error as its detail: here the unreduced
        witness search refutes the faulted reduction's deadlock."""
        outcome = evaluate(4, fault="overeager-sym")
        assert outcome.status is DISAGREED
        (detail,) = outcome.details
        assert detail.startswith("layered request failed: ")
        assert "refuted by the unreduced search" in detail
        assert outcome.counts == {"request.errors": 1}

    def test_failing_seed_reruns_alone(self):
        """Case i of a campaign draws from seed base+i alone, so the
        seed a report prints re-runs that very case."""
        campaign = run_relation("request", seeds=6)
        alone = run_relation("request", seeds=1, base_seed=5)
        assert alone.outcomes[0] == campaign.outcomes[5]
        assert campaign.outcomes[5].label.startswith("multiprocessor ")


def live_terms() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Term))


class TestCampaign:
    def test_campaign_keeps_no_term_alive(self):
        """Every seed runs in an intern scope, so once the campaign is
        over nothing may still hold one of its terms -- in particular
        no module-level memo of the reduction passes."""
        before = live_terms()
        run_relation("request", seeds=5)
        assert live_terms() == before

    def test_window_agrees_and_every_layer_fires(self):
        report = run_relation("request", seeds=60)
        assert report.disagreements == []
        counts = report.counts
        assert counts["portfolio.analytic"] > 0
        assert counts["portfolio.analytic_states"] == 0
        assert counts["portfolio.escalations"] > 0
        assert counts["compose.decomposed"] > 0
        assert counts["compose.fallback"] > 0
        assert counts["reduce.orbits_merged"] > 0
        assert counts["reduce.por_pruned"] > 0
        assert counts["request.errors"] == 0
        text = report.format()
        assert "disagreed: 0" in text
        assert "reduce.por_pruned:" in text

    def test_modal_family_counts_its_compose_runs(self):
        """A per-mode compose run keeps its engine stats, so the modal
        family's compose draws count their portfolio and reduction
        work."""
        seeds = [
            seed for seed in range(60)
            if plan(seed)[0] == "modal" and plan(seed)[1]["decomposition"]
        ]
        assert len(seeds) == 8
        counts = [evaluate(seed).counts for seed in seeds]
        assert sum(
            count
            for seen in counts
            for name, count in seen.items()
            if name.startswith(("portfolio.", "reduce."))
        ) > 0


def _result(verdict, decided_by=None, misses=None):
    scenario = None if misses is None else SimpleNamespace(misses=misses)
    return SimpleNamespace(
        verdict=verdict, decided_by=decided_by, scenario=scenario
    )


class TestWitness:
    """An analytic UNSCHEDULABLE must name a deadline miss: the verdict
    alone is a claim without evidence."""

    @pytest.mark.parametrize(
        "layered, expected",
        [
            pytest.param(_result(U, "rta"), DISAGREED, id="no-scenario"),
            pytest.param(_result(U, "rta", []), DISAGREED, id="no-miss"),
            pytest.param(
                _result(U, "rta", [("t0", 8)]), AGREED, id="named-miss"
            ),
            # Exploration carries its own counterexample trace.
            pytest.param(
                _result(U, "exploration"), AGREED, id="explored"
            ),
        ],
    )
    def test_analytic_unschedulable_needs_a_miss(self, layered, expected):
        status, details = classify(_result(U), layered)
        assert status is expected
        assert bool(details) == (expected is DISAGREED)

    def test_unknown_reference_cannot_disagree(self):
        status, _ = classify(_result(N), _result(U, "rta"))
        assert status is UNKNOWN


class TestCli:
    def test_oracle_request_command(self, capsys):
        assert main(["oracle", "request", "--seeds", "4"]) == 0
        out = capsys.readouterr().out
        assert "request campaign: 4 case(s)" in out
        assert "disagreed: 0" in out

    def test_fault_exits_nonzero(self, capsys):
        argv = ["oracle", "request", "--seeds", "8"]
        assert main(argv + ["--fault", "overeager-sym"]) == 1
        out = capsys.readouterr().out
        assert "DISAGREED seed 4 (smoke " in out
        # Seeds 4, 6 and 7 raise: their errors are counted, not dropped.
        assert "  request.errors: 3\n" in out
