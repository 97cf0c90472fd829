"""Tests of the differential-testing oracle subsystem.

Covers campaign runs (agreement on a healthy pipeline), fault injection
(a deliberately broken pipeline is caught and shrunk to a small
reproducer), bundle round-tripping, the shrinker, and the CLI surface.
"""

import json
import os

import pytest

from repro.cli import main
from repro.errors import SchedError
from repro.oracle import (
    AgreementStatus,
    OracleCase,
    PROFILES,
    ReproBundle,
    classical_verdicts,
    classify,
    draw_case,
    evaluate_case,
    get_fault,
    replay_bundle,
    run_relation,
    run_pipeline,
    shrink_case,
)
from repro.sched import PeriodicTask, TaskSet
from repro.workloads import (
    constrained_deadline_task_set,
    generate_task_set,
    harmonic_task_set,
    offset_task_set,
)


def make_case(specs, scheduling="RMS", case_id="manual"):
    tasks = TaskSet(
        [
            PeriodicTask(f"t{i}", **spec)
            for i, spec in enumerate(specs)
        ]
    )
    return OracleCase.from_task_set(
        tasks, scheduling=scheduling, case_id=case_id
    )


class TestGenerators:
    def test_harmonic_periods_divide(self):
        tasks = harmonic_task_set(5, 0.9, rng=__import__("numpy").random.default_rng(7))
        periods = sorted({task.period for task in tasks})
        for small, large in zip(periods, periods[1:]):
            assert large % small == 0

    def test_harmonic_rejects_non_chain_pool(self):
        with pytest.raises(SchedError):
            harmonic_task_set(3, 0.5, periods=(4, 6, 8))

    def test_constrained_deadlines_within_bounds(self):
        import numpy as np

        tasks = constrained_deadline_task_set(
            6, 0.8, rng=np.random.default_rng(3)
        )
        assert any(task.deadline < task.period for task in tasks)
        for task in tasks:
            assert task.wcet <= task.deadline <= task.period

    def test_offsets_within_period(self):
        import numpy as np

        tasks = offset_task_set(6, 0.8, rng=np.random.default_rng(11))
        for task in tasks:
            assert 0 <= task.offset < task.period

    def test_registry_rejects_unknown_generator(self):
        with pytest.raises(SchedError, match="unknown task-set generator"):
            generate_task_set("nope", 2, 0.5, seed=0)


class TestClassification:
    def test_agreed_case(self):
        case = make_case([dict(wcet=1, period=4), dict(wcet=2, period=8)])
        pipeline, oracles, classification = evaluate_case(case)
        assert classification.status is AgreementStatus.AGREED
        assert pipeline.schedulable is True

    def test_unknown_is_explicit_never_agreement(self):
        case = make_case([dict(wcet=1, period=4), dict(wcet=2, period=8)])
        pipeline, oracles, classification = evaluate_case(
            case, max_states=3
        )
        assert pipeline.verdict.value == "unknown"
        assert classification.status is AgreementStatus.UNKNOWN
        assert classification.conflicts == []
        assert any("budget" in note for note in classification.notes)

    def test_offset_case_demotes_rta_to_sufficient(self):
        # Synchronously infeasible (two C=2, D=2 jobs at t=0), but the
        # offsets separate the phases completely: the pipeline must say
        # schedulable while synchronous RTA says no -- and that is
        # agreement, because RTA is only a sufficient test here.
        case = make_case(
            [
                dict(wcet=2, period=4, deadline=2, offset=0),
                dict(wcet=2, period=4, deadline=2, offset=2),
            ]
        )
        pipeline, oracles, classification = evaluate_case(case)
        assert pipeline.schedulable is True
        rta = next(
            o for o in oracles if o.method == "response-time-analysis"
        )
        assert rta.relation == "sufficient"
        assert rta.verdict is False
        assert classification.status is AgreementStatus.AGREED

    def test_fault_produces_disagreement(self):
        # U = 7/6 > 1: really unschedulable, but the faulted pipeline
        # translates every WCET one quantum short and says schedulable.
        case = make_case([dict(wcet=3, period=6), dict(wcet=4, period=6)])
        fault = get_fault("underestimate-wcet")
        pipeline = run_pipeline(case, fault=fault)
        oracles = classical_verdicts(case)
        classification = classify(pipeline, oracles)
        assert pipeline.schedulable is True
        assert classification.status is AgreementStatus.DISAGREED
        assert "utilization-cap" in classification.conflicts


class TestShrinker:
    def test_shrinks_to_single_task(self):
        case = make_case(
            [
                dict(wcet=1, period=8),
                dict(wcet=2, period=12),
                dict(wcet=3, period=6),
            ]
        )

        def has_heavy_task(candidate):
            return any(task["wcet"] >= 3 for task in candidate.tasks)

        result = shrink_case(case, has_heavy_task)
        assert len(result.case.tasks) == 1
        assert result.case.tasks[0]["wcet"] == 3
        assert result.reductions > 0

    def test_shrinks_wcet_and_period(self):
        case = make_case([dict(wcet=4, period=12)])

        def non_trivial(candidate):
            return any(task["wcet"] >= 2 for task in candidate.tasks)

        result = shrink_case(case, non_trivial, period_pool=[4, 8, 12])
        assert result.case.tasks[0]["wcet"] == 2
        assert result.case.tasks[0]["period"] == 4

    def test_respects_evaluation_budget(self):
        case = make_case([dict(wcet=2, period=8)] )

        def always(candidate):
            return True

        result = shrink_case(case, always, max_evaluations=1)
        assert result.evaluations <= 1


def _bundle_paths(report):
    """The bundle path of every DISAGREED case, from its replay line."""
    prefix = "replay: repro oracle replay "
    return [
        detail[len(prefix):]
        for outcome in report.disagreements
        for detail in outcome.details
        if detail.startswith(prefix)
    ]


class TestCampaign:
    def test_smoke_campaign_all_agree(self, tmp_path):
        report = run_relation(
            "run", seeds=16, profile="smoke", artifacts=str(tmp_path)
        )
        assert len(report.outcomes) == 16
        assert report.disagreements == []
        assert len(report.agreed) + len(report.unknown) == 16
        # Every generator was exercised.
        assert {
            name.split(".")[1]
            for name in report.counts
            if name.startswith("generator.")
        } == {"uniform", "harmonic", "constrained", "offset"}
        # Engine accounting flowed through the stats layer.
        assert report.counts["runs"] == 16
        assert report.counts["states"] > 0
        assert report.counts["engine_cache_hits"] > 0
        assert "  generator.uniform.agreed: 4" in report.format()

    def test_campaign_is_deterministic(self, tmp_path):
        first = run_relation(
            "run", seeds=6, profile="smoke", artifacts=str(tmp_path / "a")
        )
        second = run_relation(
            "run", seeds=6, profile="smoke", artifacts=str(tmp_path / "b")
        )
        assert [o.label for o in first.outcomes] == [
            o.label for o in second.outcomes
        ]
        assert [o.counts for o in first.outcomes] == [
            o.counts for o in second.outcomes
        ]

    def test_seed_reruns_alone(self, tmp_path):
        """Case ``i`` of a campaign is seed ``base_seed + i`` drawn by
        the seed alone, with the same counters as inside the campaign."""
        campaign = run_relation("run", seeds=8, base_seed=30)
        alone = run_relation("run", seeds=1, base_seed=33)
        (outcome,) = alone.outcomes
        assert outcome == campaign.outcomes[3]
        assert outcome.label == "harmonic-33"

    def test_draw_case_covers_boundary_band(self):
        profile = PROFILES["smoke"]
        drawn = [draw_case(profile, seed, seed) for seed in range(40)]
        assert any(
            0.85 <= case.params["utilization"] <= 1.1 for case in drawn
        )

    def test_injected_fault_is_caught_and_shrunk(self, tmp_path):
        report = run_relation(
            "run",
            seeds=24,
            profile="smoke",
            artifacts=str(tmp_path),
            fault="underestimate-wcet",
        )
        assert report.disagreements, (
            "the harness failed to catch a deliberately broken pipeline"
        )
        assert report.counts["shrink_runs"] > 0
        # Every disagreement was persisted as a replayable bundle.
        paths = _bundle_paths(report)
        assert len(paths) == len(report.disagreements)
        assert all(os.path.exists(path) for path in paths)
        bundles = [ReproBundle.load(path) for path in paths]
        assert min(len(bundle.case.tasks) for bundle in bundles) <= 2
        # Replaying against the healthy pipeline shows the fix...
        bundle = bundles[0]
        healthy = replay_bundle(bundle)
        assert healthy.classification.status is AgreementStatus.AGREED
        assert not healthy.verdict_matches
        # ...and re-injecting the recorded fault reproduces the failure.
        historical = replay_bundle(bundle, fault=bundle.fault)
        assert historical.verdict_matches
        assert (
            historical.classification.status is AgreementStatus.DISAGREED
        )

    def test_rejects_bad_arguments(self, tmp_path):
        with pytest.raises(SchedError, match="at least one seed"):
            run_relation("run", seeds=0, artifacts=str(tmp_path))
        with pytest.raises(SchedError, match="unknown campaign profile"):
            run_relation(
                "run", seeds=1, profile="huge", artifacts=str(tmp_path)
            )
        with pytest.raises(SchedError, match="unknown fault"):
            run_relation(
                "run", seeds=1, fault="nope", artifacts=str(tmp_path)
            )


class TestBundles:
    def _bundle(self, tmp_path):
        case = make_case(
            [dict(wcet=1, period=4), dict(wcet=2, period=8)],
            case_id="bundle-test",
        )
        pipeline, oracles, classification = evaluate_case(case)
        return ReproBundle.from_evaluation(
            kind="regression",
            case=case,
            pipeline=pipeline,
            oracles=oracles,
            classification=classification,
            max_states=300_000,
            profile="smoke",
        )

    def test_round_trips_through_dict(self, tmp_path):
        bundle = self._bundle(tmp_path)
        clone = ReproBundle.from_dict(bundle.to_dict())
        assert clone.to_dict() == bundle.to_dict()

    def test_round_trips_through_file(self, tmp_path):
        bundle = self._bundle(tmp_path)
        path = bundle.save(str(tmp_path))
        assert path.endswith("bundle-test.json")
        loaded = ReproBundle.load(path)
        assert loaded.to_dict() == bundle.to_dict()
        # The stored AADL text parses and re-analyzes.
        assert "system implementation" in loaded.aadl

    def test_replay_matches_recorded_verdict(self, tmp_path):
        bundle = self._bundle(tmp_path)
        result = replay_bundle(bundle)
        assert result.verdict_matches
        assert "verdict match: yes" in result.format()

    def test_rejects_unknown_schema_version(self):
        data = self._bundle(None).to_dict()
        data["schema_version"] = 99
        with pytest.raises(SchedError, match="schema version"):
            ReproBundle.from_dict(data)

    def test_rejects_unknown_kind(self, tmp_path):
        bundle = self._bundle(tmp_path)
        data = bundle.to_dict()
        data["kind"] = "mystery"
        with pytest.raises(SchedError, match="bundle kind"):
            ReproBundle.from_dict(data)


class TestCaseSerialization:
    def test_case_round_trip(self):
        case = OracleCase.generate(
            "offset", 42, n=3, utilization=0.7, scheduling="EDF"
        )
        clone = OracleCase.from_dict(case.to_dict())
        assert clone.to_dict() == case.to_dict()

    def test_missing_fields_raise(self):
        with pytest.raises(SchedError, match="missing fields"):
            OracleCase.from_dict({"case_id": "x"})

    def test_aadl_text_round_trips_through_parser(self):
        from repro.aadl import instantiate, parse_model

        case = OracleCase.generate(
            "offset", 9, n=2, utilization=0.6, scheduling="RMS"
        )
        model = parse_model(case.aadl_text())
        instance = instantiate(model, "Synthetic.impl")
        assert len(list(instance.threads())) == 2


class TestOracleCli:
    def test_run_exits_zero_on_agreement(self, tmp_path, capsys):
        status = main(
            [
                "oracle", "run",
                "--seeds", "6",
                "--profile", "smoke",
                "--artifacts", str(tmp_path),
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "run campaign profile=smoke: 6 case(s)" in out
        assert "agreed: 6  disagreed: 0  unknown: 0" in out

    def test_failing_seed_reruns_alone(self, tmp_path, capsys):
        """``--base-seed S --seeds 1`` draws the case that seed S draws
        inside a longer campaign: the ``ignore-offsets`` self-test's
        only offset-sensitive smoke seed reproduces by itself."""
        argv = [
            "oracle", "run", "--fault", "ignore-offsets",
            "--artifacts", str(tmp_path), "--jobs", "1",
        ]
        assert main([*argv, "--base-seed", "299", "--seeds", "1"]) == 1
        out = capsys.readouterr().out
        assert "DISAGREED seed 299 (offset-299)" in out

    def test_run_exits_nonzero_on_disagreement(self, tmp_path, capsys):
        status = main(
            [
                "oracle", "run",
                "--seeds", "12",
                "--profile", "smoke",
                "--artifacts", str(tmp_path),
                "--fault", "underestimate-wcet",
            ]
        )
        assert status == 1
        out = capsys.readouterr().out
        assert "DISAGREED seed" in out
        assert "replay: repro oracle replay" in out

    def test_replay_round_trip(self, tmp_path, capsys):
        main(
            [
                "oracle", "run",
                "--seeds", "12",
                "--profile", "smoke",
                "--artifacts", str(tmp_path),
                "--fault", "underestimate-wcet",
            ]
        )
        capsys.readouterr()
        bundles = sorted(tmp_path.glob("*.json"))
        assert bundles
        # Healthy pipeline: verdict differs from the faulted recording.
        status = main(["oracle", "replay", str(bundles[0])])
        assert status == 1
        # Re-injecting the fault reproduces the historical verdict.
        status = main(
            ["oracle", "replay", str(bundles[0]), "--with-fault"]
        )
        assert status == 0
