"""The modal oracle campaign: modal transition pass ⇒ honest
reference simulation pass (plus steady-half equivalence).  The
``shrink-transient-window`` fault self-test, which proves the campaign
would catch an unsound transient shortcut, runs with every registered
fault in ``test_relations.py``."""

import numpy as np

from repro.cli import main
from repro.oracle import run_relation
from repro.oracle.modal import evaluate, implies
from repro.oracle.verdicts import AgreementStatus
from repro.workloads import faulty_modal_system


class TestClassification:
    """modal pass ⇒ reference pass, via the one-sided ``implies``."""

    def test_modal_pass_reference_fail_is_the_bug_signal(self):
        assert implies(True, False) is AgreementStatus.DISAGREED

    def test_conservatism_is_agreement(self):
        """The relation is one-sided: the modal side may refuse or fail
        a transition the reference passes without being wrong."""
        assert implies(False, True) is AgreementStatus.AGREED
        assert implies(True, True) is AgreementStatus.AGREED
        assert implies(False, False) is AgreementStatus.AGREED
        assert implies(False, None) is AgreementStatus.AGREED

    def test_capped_reference_is_unknown(self):
        assert implies(True, None) is AgreementStatus.UNKNOWN


class TestGenerator:
    def test_faulty_modal_system_shape(self):
        model = faulty_modal_system(
            n_modes=3, threads_per_mode=2,
            rng=np.random.default_rng(11),
        )
        impl = model.implementation("FaultyModal.impl")
        assert len(impl.modes) == 3
        # The mode cycle: one transition out of each mode.
        assert len(impl.mode_transitions) == 3
        sources = {t.source for t in impl.mode_transitions}
        assert sources == {"nominal", "error", "recovery"}

    def test_orphan_mode_is_off_the_cycle(self):
        from repro.modal import ModeAutomaton

        model = faulty_modal_system(
            n_modes=2, include_orphan=True,
            rng=np.random.default_rng(5),
        )
        impl = model.implementation("FaultyModal.impl")
        automaton = ModeAutomaton.from_implementation(model, impl)
        assert automaton.unreachable_modes() == ("maintenance",)

    def test_seeded_case_reproduces(self):
        a = evaluate(7)
        b = evaluate(7)
        assert a.status is b.status
        assert a.counts == b.counts


class TestCampaign:
    def test_small_campaign_agrees(self):
        report = run_relation("modal", seeds=12)
        assert not report.disagreements, report.format()
        # The draw must exercise the non-vacuous side of the relation:
        # some transition actually passed by the modal checker.
        assert report.counts["modal_passes"] > 0

    def test_cli_exit_codes(self):
        assert main(["oracle", "modal", "--seeds", "5"]) == 0
        assert (
            main(
                [
                    "oracle", "modal", "--seeds", "5",
                    "--fault", "shrink-transient-window",
                ]
            )
            == 1
        )
