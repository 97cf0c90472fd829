"""The relation-generic oracle runner: classifiers, registry, report,
CLI wiring, and the fault self-test every registered fault must pass."""

import pytest

from repro.analysis import Verdict
from repro.cli import build_parser, main
from repro.obs.tracer import Tracer, activate
from repro.oracle import RELATIONS, run_relation
from repro.oracle.relations import equal, implies, worst
from repro.oracle.verdicts import AgreementStatus

S, U, N = Verdict.SCHEDULABLE, Verdict.UNSCHEDULABLE, Verdict.UNKNOWN
AGREED = AgreementStatus.AGREED
DISAGREED = AgreementStatus.DISAGREED
UNKNOWN = AgreementStatus.UNKNOWN


class TestClassifiers:
    @pytest.mark.parametrize(
        "classify, a, b, expected",
        [
            pytest.param(equal, S, S, AGREED, id="equal-both-schedulable"),
            pytest.param(
                equal, U, U, AGREED, id="equal-both-unschedulable"
            ),
            pytest.param(
                equal, S, U, DISAGREED, id="equal-decided-mismatch"
            ),
            # Budget exhaustion is not unsoundness: an island (or a
            # reduced space) can decide what the other side cannot.
            pytest.param(equal, N, S, UNKNOWN, id="equal-unknown-first"),
            pytest.param(equal, U, N, UNKNOWN, id="equal-unknown-second"),
            # The bug signal: the side under test passed, the reference
            # fails.
            pytest.param(
                implies, True, False, DISAGREED, id="implies-pass-fail"
            ),
            # Conservatism is agreement: the side under test may refuse
            # what the reference passes.
            pytest.param(
                implies, False, True, AGREED, id="implies-fail-pass"
            ),
            pytest.param(
                implies, True, True, AGREED, id="implies-pass-pass"
            ),
            pytest.param(
                implies, False, False, AGREED, id="implies-fail-fail"
            ),
            # A capped reference cannot confirm a pass.
            pytest.param(
                implies, True, None, UNKNOWN, id="implies-pass-abstain"
            ),
            # A failed antecedent cannot witness unsoundness, so the
            # reference abstaining changes nothing.
            pytest.param(
                implies, False, None, AGREED, id="implies-fail-abstain"
            ),
        ],
    )
    def test_table(self, classify, a, b, expected):
        assert classify(a, b) is expected

    @pytest.mark.parametrize(
        "statuses, expected",
        [
            ([], AGREED),
            ([AGREED, AGREED], AGREED),
            ([AGREED, UNKNOWN], UNKNOWN),
            ([UNKNOWN, DISAGREED, AGREED], DISAGREED),
        ],
    )
    def test_worst(self, statuses, expected):
        assert worst(statuses) is expected


#: The pinned seed window on which each registered fault must DISAGREE.
#: A fault registered without a window fails the self-test below.
FAULT_WINDOWS = {
    ("run", "underestimate-wcet"): dict(seeds=3),
    ("run", "deadline-as-period"): dict(seeds=3),
    # The only offset-sensitive case among the first 400 smoke seeds.
    ("run", "ignore-offsets"): dict(base_seed=299, seeds=1),
    # Seeds 4 (a harmonic smoke case under sym) and 7 (a modal system
    # under sym) merge threads the fault must not merge.
    ("request", "overeager-sym"): dict(seeds=8),
    ("hier", "inflate-alpha"): dict(seeds=50),
    ("modal", "shrink-transient-window"): dict(seeds=12),
}


@pytest.mark.parametrize(
    "name, fault",
    [(r.name, f) for r in RELATIONS.values() for f in r.faults],
)
def test_fault_is_caught(name, fault, tmp_path, monkeypatch):
    """The harness self-test: a registered fault injected into the side
    under test must produce at least one DISAGREED case."""
    monkeypatch.chdir(tmp_path)  # the run relation saves bundles
    window = FAULT_WINDOWS.get((name, fault))
    assert window is not None, (
        f"fault {fault!r} of relation {name!r} has no pinned seed window"
    )
    report = run_relation(name, fault=fault, **window)
    assert report.disagreements, (
        f"the {name} oracle failed to catch the {fault!r} fault"
    )
    assert "DISAGREED" in report.format()


class TestRegistry:
    def test_relations_in_cli_order(self):
        assert list(RELATIONS) == ["run", "request", "hier", "modal"]

    @pytest.mark.parametrize("verb", ["portfolio", "compose", "reduce"])
    def test_layer_verbs_are_folded_into_request(self, verb, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", verb, "--seeds", "1"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_cli_flags_follow_the_records(self):
        """Each verb takes the shared flags plus its record's parameters,
        with the record's defaults."""
        parser = build_parser()
        for relation in RELATIONS.values():
            args = parser.parse_args(
                ["oracle", relation.name, "--seeds", "3",
                 "--base-seed", "7", "--progress", "--jobs", "2",
                 "--cache-dir", "d", "--trace", "t.jsonl",
                 "--span-profile"]
            )
            assert (args.seeds, args.base_seed, args.progress) == (
                3, 7, True,
            )
            assert (args.jobs, args.cache_dir, args.trace) == (
                2, "d", "t.jsonl",
            )
            assert args.span_profile
            for param in relation.params:
                assert getattr(args, param.name) == param.default
            assert ("fault" in vars(args)) == bool(relation.faults)

    @pytest.mark.parametrize(
        "argv",
        [
            ["request", "--coupled-fraction", "0.5"],
            ["request", "--jitter-fraction", "0.5"],
            ["request", "--spec", "sym"],
        ],
    )
    def test_single_value_flags_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["oracle", *argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_flags_keep_their_types(self):
        args = build_parser().parse_args(
            ["oracle", "run", "--profile", "nightly", "--max-states", "9",
             "--artifacts", "a", "--fault", "ignore-offsets"]
        )
        assert (args.profile, args.max_states, args.artifacts) == (
            "nightly", 9, "a",
        )

    def test_cache_is_refused_where_no_relation_keeps_one(self, capsys):
        assert main(["oracle", "request", "--seeds", "1", "--cache"]) == 2
        assert "keeps no verdict cache" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, fault",
        [
            *[
                pytest.param(r.name, "no-such", id=r.name)
                for r in RELATIONS.values()
                if r.faults
            ],
            # The request relation takes the reduction faults only, so
            # another relation's fault is unknown to it.
            pytest.param("request", "inflate-alpha", id="reduce"),
        ],
    )
    def test_unknown_fault_is_a_usage_error(self, name, fault, capsys):
        assert (
            main(["oracle", name, "--seeds", "1", "--fault", fault])
            == 2
        )
        err = capsys.readouterr().err
        assert "unknown" in err and f"fault {fault!r}" in err


class TestRunner:
    def test_counters_are_summed_onto_report_and_span(self):
        tracer = Tracer()
        with activate(tracer):
            report = run_relation("hier", seeds=4)
        partitions = report.counts["partitions"]
        assert partitions == sum(
            o.counts["partitions"] for o in report.outcomes
        )
        assert report.format().startswith(
            "hier campaign: 4 case(s) (base seed 0)"
        )
        assert f"  partitions: {partitions}" in report.format()
        (span,) = [s for s in tracer.spans if s.name == "oracle.hier"]
        assert span.attrs["seeds"] == 4
        assert span.attrs["disagreed"] == 0
        assert span.attrs["partitions"] == partitions

    #: Four seeds of each relation; the request relation's seeds
    #: 4k..4k+3 draw every family under one layer combination, so it
    #: runs once per layer and once with every layer on.
    POOLED_WINDOWS = {
        "run": ("run", 0),
        "request": ("request", 56),
        "hier": ("hier", 0),
        "modal": ("modal", 0),
        "compose": ("request", 0),
        "portfolio": ("request", 28),
        "reduce": ("request", 20),
    }

    @pytest.mark.parametrize("window", list(POOLED_WINDOWS))
    def test_pooled_equals_inline(self, window):
        name, base_seed = self.POOLED_WINDOWS[window]
        inline = run_relation(name, seeds=4, base_seed=base_seed, jobs=1)
        pooled = run_relation(name, seeds=4, base_seed=base_seed, jobs=2)
        assert pooled.outcomes == inline.outcomes

    def test_pooled_trace_merges_worker_spans(self):
        tracer = Tracer()
        with activate(tracer):
            run_relation("request", seeds=2, jobs=2)
        names = [s.name for s in tracer.spans]
        assert "oracle.request" in names
        assert names.count("batch.job") == 2

    def test_progress_reports_each_case(self, capsys):
        run_relation("hier", seeds=2, base_seed=4, progress=True)
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("[1/2] seed 4: agreed (")
        assert err[1].startswith("[2/2] seed 5: ")
