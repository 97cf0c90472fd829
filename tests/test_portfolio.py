"""The tiered verdict portfolio: tiers, witnesses, wiring, CLI."""

import pytest

from repro.aadl import format_model
from repro.aadl.builder import SystemBuilder
from repro.aadl.gallery import (
    sporadic_consumer,
    two_periodic_threads,
)
from repro.aadl.properties import (
    DispatchProtocol,
    SchedulingProtocol,
    ms,
)
from repro.analysis import Verdict, analyze_model
from repro.cli import main
from repro.portfolio import (
    RtaTier,
    SimulationTier,
    Soundness,
    UtilizationBoundTier,
    UtilizationCapTier,
    analyze_portfolio,
    build_context,
    default_tiers,
    screen,
    tiers_from_token,
)
from repro.portfolio.context import AnalyticUnit
from repro.sched.taskmodel import PeriodicTask, TaskSet


def _single_cpu_system(
    tasks,
    *,
    scheduling=SchedulingProtocol.RATE_MONOTONIC,
    name="Portfolio",
):
    b = SystemBuilder(name)
    cpu = b.processor("cpu", scheduling=scheduling)
    for spec in tasks:
        b.thread(
            spec["name"],
            dispatch=DispatchProtocol.PERIODIC,
            period=ms(spec["period"]),
            compute_time=(ms(spec["wcet"]), ms(spec["wcet"])),
            deadline=ms(spec.get("deadline", spec["period"])),
            processor=cpu,
            priority=spec.get("priority"),
            offset=ms(spec["offset"]) if spec.get("offset") else None,
        )
    return b.instantiate()


def _unit(tasks, protocol=SchedulingProtocol.RATE_MONOTONIC):
    return AnalyticUnit("cpu", TaskSet(tasks), protocol)


class TestContext:
    def test_classical_fragment_yields_units(self):
        context = build_context(two_periodic_threads())
        assert context.applicable
        assert len(context.units) == 1
        unit = context.units[0]
        assert len(unit.tasks) == 2
        assert unit.ordering == "rate"
        assert unit.synchronous

    def test_sporadic_dispatch_is_inapplicable(self):
        context = build_context(sporadic_consumer())
        assert not context.applicable
        assert "outside the periodic task model" in context.inapplicable

    def test_queued_connection_is_inapplicable(self):
        instance = sporadic_consumer()
        reason = build_context(instance).inapplicable
        assert reason is not None

    def test_pure_data_connection_is_inert(self):
        from repro.aadl.gallery import dual_island

        context = build_context(dual_island())
        assert context.applicable
        assert len(context.units) == 2


class TestTierSoundness:
    def test_sufficient_tier_never_claims_unschedulable(self):
        """The hyperbolic bound failing proves nothing: a SUFFICIENT
        tier must return None, not an unschedulable decision."""
        tier = UtilizationBoundTier()
        assert tier.soundness is Soundness.SUFFICIENT
        # U = 0.75 + 0.25 = 1.0 > hyperbolic bound for 2 tasks, yet the
        # set (harmonic) is schedulable -- the tier must stay silent.
        unit = _unit(
            [
                PeriodicTask("a", 3, 4, priority=2),
                PeriodicTask("b", 2, 8, priority=1),
            ]
        )
        assert tier.decide(unit) is None

    def test_necessary_tier_never_claims_schedulable(self):
        tier = UtilizationCapTier()
        assert tier.soundness is Soundness.NECESSARY
        unit = _unit([PeriodicTask("a", 1, 4, priority=1)])
        assert tier.decide(unit) is None  # U <= 1 proves nothing

    def test_overutilized_unit_gets_witness(self):
        tier = UtilizationCapTier()
        unit = _unit(
            [
                PeriodicTask("a", 3, 4, priority=2),
                PeriodicTask("b", 3, 8, priority=1),
            ]
        )
        decision = tier.decide(unit)
        assert decision is not None
        assert not decision.schedulable
        assert decision.scenario is not None
        assert decision.scenario.misses

    def test_rta_demotes_on_offsets(self):
        """A failing RTA with nonzero offsets proves nothing (t = 0 is
        no longer the critical instant) -- the tier must escalate."""
        tier = RtaTier()
        failing_synchronous = _unit(
            [
                PeriodicTask("a", 2, 4, priority=2),
                PeriodicTask("b", 5, 8, priority=1),
            ]
        )
        decision = tier.decide(failing_synchronous)
        assert decision is not None and not decision.schedulable
        with_offsets = _unit(
            [
                PeriodicTask("a", 2, 4, priority=2),
                PeriodicTask("b", 5, 8, priority=1, offset=2),
            ]
        )
        assert tier.decide(with_offsets) is None

    def test_rta_pass_covers_offsets(self):
        tier = RtaTier()
        unit = _unit(
            [
                PeriodicTask("a", 1, 4, priority=2, offset=1),
                PeriodicTask("b", 2, 8, priority=1),
            ]
        )
        decision = tier.decide(unit)
        assert decision is not None and decision.schedulable

    def test_simulation_tier_excludes_llf(self):
        tier = SimulationTier()
        unit = _unit(
            [PeriodicTask("a", 1, 4)],
            SchedulingProtocol.LEAST_LAXITY_FIRST,
        )
        assert not tier.applicable(unit)

    def test_simulation_horizon_caps_escalate(self):
        tier = SimulationTier(max_horizon=4)
        unit = _unit(
            [
                PeriodicTask("a", 1, 4, priority=2),
                PeriodicTask("b", 2, 8, priority=1),
            ]
        )
        assert tier.decide(unit) is None  # hyperperiod 8 > cap 4


class TestTierConfig:
    def test_default_chain_order(self):
        names = [tier.name for tier in default_tiers()]
        assert names == [
            "hier",
            "utilization-cap",
            "utilization-bound",
            "rta",
            "edf-demand",
            "simulation",
        ]

    def test_token_roundtrip(self):
        rebuilt = tiers_from_token("+".join(t.name for t in default_tiers()))
        assert [t.name for t in rebuilt] == [
            t.name for t in default_tiers()
        ]

    def test_unknown_tier_name_raises(self):
        from repro.errors import SchedError

        with pytest.raises(SchedError, match="unknown portfolio tier"):
            tiers_from_token("rta+nonsense")


class TestPortfolioAnalysis:
    def test_schedulable_decided_without_exploration(self):
        result = analyze_portfolio(two_periodic_threads())
        assert result.verdict is Verdict.SCHEDULABLE
        assert result.decided_by == "utilization-bound"
        assert result.num_states == 0
        assert result.exploration.stats.strategy == "portfolio"

    def test_unschedulable_witness_matches_exploration(self):
        instance = two_periodic_threads(schedulable=False)
        portfolio = analyze_portfolio(instance)
        exploration = analyze_model(instance)
        assert portfolio.verdict is Verdict.UNSCHEDULABLE
        assert portfolio.decided_by == "utilization-cap"
        assert portfolio.scenario is not None
        assert exploration.scenario is not None
        assert set(portfolio.scenario.misses) == set(
            exploration.scenario.misses
        )

    def test_sufficient_fail_escalates_within_chain(self):
        """The hyperbolic bound fails at U = 1.0 but RTA still decides
        analytically -- escalation inside the chain, not to the engine."""
        instance = _single_cpu_system(
            [
                {"name": "a", "wcet": 3, "period": 4, "priority": 2},
                {"name": "b", "wcet": 2, "period": 8, "priority": 1},
            ]
        )
        result = analyze_portfolio(instance)
        assert result.verdict is Verdict.SCHEDULABLE
        assert result.decided_by == "rta"

    def test_undecidable_unit_escalates_to_exploration(self):
        """LLF units: no analytic tier speaks (bounds and demand are
        inapplicable, simulation excludes LLF) -- the portfolio must
        fall through to exhaustive exploration and still agree."""
        instance = _single_cpu_system(
            [
                {"name": "a", "wcet": 1, "period": 4},
                {"name": "b", "wcet": 2, "period": 8},
            ],
            scheduling=SchedulingProtocol.LEAST_LAXITY_FIRST,
        )
        result = analyze_portfolio(instance)
        assert result.decided_by == "exploration"
        assert result.num_states > 0
        assert (
            result.verdict is analyze_model(instance).verdict
        )

    def test_inapplicable_model_escalates(self):
        """Outside the classical fragment the tiers stand aside."""
        instance = sporadic_consumer()
        result = analyze_portfolio(instance)
        assert result.decided_by == "exploration"
        assert result.tier_trail
        assert "escalated" in result.tier_trail[-1]
        assert result.verdict is analyze_model(instance).verdict

    def test_escalation_counters_on_stats(self):
        result = analyze_portfolio(sporadic_consumer())
        stats = result.exploration.stats
        assert stats.counters["portfolio.escalations"] == 1

    def test_offset_model_decided_by_simulation(self):
        """Offsets past RTA's reach land in the simulation tier over
        the Leung-Merrill window: U = 0.875 clears the cap, RTA fails
        on the constrained deadline but may not conclude with offsets."""
        instance = _single_cpu_system(
            [
                {"name": "a", "wcet": 2, "period": 4, "priority": 2},
                {
                    "name": "b",
                    "wcet": 3,
                    "period": 8,
                    "deadline": 6,
                    "priority": 1,
                    "offset": 2,
                },
            ]
        )
        result = analyze_portfolio(instance)
        assert result.decided_by == "simulation"
        assert result.verdict is analyze_model(instance).verdict


    def test_screen_leaves_undecided_units_to_the_caller(self):
        instance = _single_cpu_system(
            [
                {"name": "a", "wcet": 1, "period": 4},
                {"name": "b", "wcet": 2, "period": 8},
            ],
            scheduling=SchedulingProtocol.LEAST_LAXITY_FIRST,
        )
        result, attempts, trail = screen(instance, default_tiers())
        assert result is None
        assert "simulation" not in attempts
        assert trail[-1] == "undecided after 6 tier(s): 1 unit(s) remain"

    @pytest.mark.parametrize(
        "keyword, value",
        [
            ("options", "translation options"),
            ("stop_at_first_deadlock", False),
        ],
    )
    def test_portfolio_refuses_exploration_only_arguments(
        self, keyword, value
    ):
        """The portfolio sets no exploration options: passing one with
        ``portfolio=True`` is an error, not a silently dropped
        argument."""
        with pytest.raises(ValueError, match=keyword):
            analyze_model(
                two_periodic_threads(), portfolio=True, **{keyword: value}
            )


class TestPortfolioCli:
    @pytest.fixture()
    def schedulable_file(self, tmp_path):
        path = tmp_path / "ok.aadl"
        path.write_text(format_model(two_periodic_threads().declarative))
        return str(path)

    @pytest.fixture()
    def unschedulable_file(self, tmp_path):
        path = tmp_path / "bad.aadl"
        path.write_text(
            format_model(
                two_periodic_threads(schedulable=False).declarative
            )
        )
        return str(path)

    def test_analyze_portfolio_prints_deciding_tier(
        self, schedulable_file, capsys
    ):
        assert main(["analyze", schedulable_file, "--portfolio"]) == 0
        out = capsys.readouterr().out
        assert "decided by: utilization-bound" in out
        assert "states explored: 0" in out

    def test_analyze_no_portfolio_explores(self, schedulable_file, capsys):
        assert main(["analyze", schedulable_file, "--no-portfolio"]) == 0
        out = capsys.readouterr().out
        assert "decided by:" not in out

    def test_portfolio_unschedulable_exit_code_and_scenario(
        self, unschedulable_file, capsys
    ):
        assert main(["analyze", unschedulable_file, "--portfolio"]) == 1
        out = capsys.readouterr().out
        assert "decided by: utilization-cap" in out
        assert "deadline" in out  # the synthesized witness renders

    def test_stats_print_tier_counters(self, schedulable_file, capsys):
        assert (
            main(["analyze", schedulable_file, "--portfolio", "--stats"])
            == 0
        )
        out = capsys.readouterr().out
        assert "portfolio tiers:" in out
        assert "utilization-bound: 1 attempt(s), 1 hit(s)" in out
        assert "escalated to exploration: 0" in out

    def test_portfolio_all_modes_needs_a_modal_root(
        self, schedulable_file, capsys
    ):
        """--portfolio composes with --all-modes now (each steady mode
        reuses the tier chain); a modeless root is still an error."""
        assert (
            main(
                ["analyze", schedulable_file, "--portfolio", "--all-modes"]
            )
            == 2
        )
        assert "declares no modes" in capsys.readouterr().err

    def test_batch_run_portfolio_job(
        self, schedulable_file, unschedulable_file, capsys
    ):
        assert (
            main(
                [
                    "batch",
                    "run",
                    schedulable_file,
                    unschedulable_file,
                    "--portfolio",
                    "--jobs",
                    "1",
                    "--stats",
                ]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "portfolio tiers:" in out
        assert "0 states" in out

    def test_compose_portfolio_screens_islands(self, tmp_path, capsys):
        from repro.aadl.gallery import dual_island

        path = tmp_path / "dual.aadl"
        path.write_text(format_model(dual_island().declarative))
        assert (
            main(
                ["analyze", str(path), "--compose", "--portfolio"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "compose: 2 islands (0 states total)" in out


class TestStatsPlumbing:
    def test_tier_counters_roundtrip_and_aggregate(self):
        from repro.engine.stats import EngineStats

        rta = {"portfolio.attempts.rta": 1, "portfolio.hits.rta": 1}
        first = EngineStats(strategy="portfolio", counters=rta)
        second = EngineStats(
            strategy="portfolio",
            counters={
                "portfolio.attempts.rta": 1,
                "portfolio.attempts.simulation": 1,
                "portfolio.escalations": 1,
            },
        )
        restored = EngineStats.from_dict(first.as_dict())
        assert restored.counters == rta
        total = EngineStats.aggregate([restored, second])
        assert total.counters == {
            "portfolio.attempts.rta": 2,
            "portfolio.attempts.simulation": 1,
            "portfolio.hits.rta": 1,
            "portfolio.escalations": 1,
        }
        assert "portfolio tiers:" in total.format()

    def test_portfolio_spans_exported(self):
        from repro.obs import PORTFOLIO_STAGES

        assert "portfolio.escalate" in PORTFOLIO_STAGES
