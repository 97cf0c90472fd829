"""The hier oracle campaign: interface ⇒ flattened-simulation.

The soundness gate for the BDR abstraction: across seeded partitioned
workloads the sufficient interface check must never pass a partition
the exact supply-aware simulation fails.  The ``inflate-alpha`` fault
self-test, which proves the campaign can catch an over-promising
derivation, runs with every registered fault in ``test_relations.py``.
"""

from repro.cli import main
from repro.oracle import run_relation
from repro.oracle.hier import evaluate, implies
from repro.oracle.verdicts import AgreementStatus
from repro.workloads import partitioned_system


class TestClassification:
    """interface pass ⇒ simulation pass, via the one-sided ``implies``."""

    def test_interface_pass_sim_fail_is_the_bug_signal(self):
        assert implies(True, False) is AgreementStatus.DISAGREED

    def test_conservatism_is_agreement(self):
        assert implies(False, True) is AgreementStatus.AGREED
        assert implies(True, True) is AgreementStatus.AGREED
        assert implies(False, False) is AgreementStatus.AGREED

    def test_capped_window_is_unknown(self):
        assert implies(True, None) is AgreementStatus.UNKNOWN


class TestGenerator:
    def test_partitioned_system_shape(self):
        import numpy as np

        instance = partitioned_system(
            3, 2, rng=np.random.default_rng(7)
        )
        vprocs = instance.virtual_processors()
        assert len(vprocs) == 3
        threads = instance.threads()
        assert len(threads) == 6
        assert all(
            t.bound_processor is not t.host_processor for t in threads
        )

    def test_seeded_draw_reproduces(self):
        a = evaluate(3)
        b = evaluate(3)
        assert a.counts == b.counts
        assert a.counts["partitions"] > 0


class TestCampaign:
    def test_fifty_seeds_agree(self):
        report = run_relation("hier", seeds=50)
        assert not report.disagreements, report.format()
        # The draw must exercise both sides of the relation.
        assert report.counts["interface_passes"] > 0
        assert any(
            o.counts["simulation_passes"] < o.counts["partitions"]
            for o in report.outcomes
        )

    def test_cli_exit_codes(self):
        assert main(["oracle", "hier", "--seeds", "5"]) == 0
        assert (
            main(
                [
                    "oracle",
                    "hier",
                    "--seeds",
                    "10",
                    "--fault",
                    "inflate-alpha",
                ]
            )
            == 1
        )

    def test_report_format_mentions_conservatism(self):
        report = run_relation("hier", seeds=15)
        text = report.format()
        assert "conservative" in text
        assert "disagreed: 0" in text
