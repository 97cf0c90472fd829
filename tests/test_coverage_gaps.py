"""Tests for remaining behavioural corners across modules."""

import pytest

from repro.aadl.gallery import cruise_control, two_periodic_threads
from repro.analysis import Verdict, analyze_model, raise_trace
from repro.translate import translate
from repro.engine import Budget, explore
from repro.versa import random_walk


class TestNonDeadlockedScenarios:
    def test_raise_exemplary_trace(self):
        """Raising works on healthy traces too (deadlocked=False): an
        execution prefix rendered as an AADL scenario."""
        translation = translate(two_periodic_threads(schedulable=True))
        trace = random_walk(translation.system, max_steps=12, seed=5)
        scenario = raise_trace(translation, trace, deadlocked=False)
        assert not scenario.deadlocked
        assert scenario.misses == []
        kinds = {e.kind for e in scenario.events}
        assert "dispatch" in kinds
        assert len(scenario.activity["TwoThreads.fast"]) == scenario.duration

    def test_walk_states_are_reachable(self):
        """Every state touched by a walk appears in the exhaustive
        exploration (the walk is one path of the same relation)."""
        translation = translate(two_periodic_threads(schedulable=True))
        exploration = explore(translation.system)
        known = set(exploration.states())
        trace = random_walk(translation.system, max_steps=25, seed=9)
        for step in trace:
            assert step.state in known


class TestExplorerBudgets:
    def test_time_budget_truncates(self):
        translation = translate(cruise_control())
        result = explore(
            translation.system,
            budget=Budget(max_seconds=0.0, on_limit="truncate"),
        )
        assert not result.completed

    def test_time_budget_raises(self):
        from repro.errors import ExplorationLimitError

        translation = translate(cruise_control())
        with pytest.raises(ExplorationLimitError):
            explore(translation.system, budget=Budget(max_seconds=0.0))


class TestAnalysisResultSurface:
    def test_unknown_format(self):
        result = analyze_model(cruise_control(), max_states=5)
        assert result.verdict is Verdict.UNKNOWN
        assert "unknown" in result.format()
        assert "AnalysisResult" in repr(result)

    def test_full_exploration_mode(self):
        result = analyze_model(
            two_periodic_threads(schedulable=False),
            stop_at_first_deadlock=False,
        )
        assert result.verdict is Verdict.UNSCHEDULABLE
        # Full exploration still produced a scenario for the first
        # (shallowest) deadlock found.
        assert result.scenario is not None


class TestHpfComparisonPath:
    def test_explicit_priorities_in_report(self):
        from repro.aadl.properties import SchedulingProtocol
        from repro.analysis import compare_with_baselines

        rows = compare_with_baselines(
            two_periodic_threads(
                scheduling=SchedulingProtocol.HIGHEST_PRIORITY_FIRST
            )
        )
        methods = {row.method: row.verdict for row in rows}
        assert methods["acsr-exploration"] is True
        assert methods["response-time-analysis"] is True
        # Utilization bounds only apply under RM ordering assumptions.
        assert "utilization-LL" not in methods

    def test_llf_sim_fallback(self):
        from repro.aadl.properties import SchedulingProtocol
        from repro.analysis import compare_with_baselines

        rows = compare_with_baselines(
            two_periodic_threads(
                scheduling=SchedulingProtocol.LEAST_LAXITY_FIRST
            )
        )
        methods = {row.method: row.verdict for row in rows}
        assert methods["cheddar-style-sim"] is True


class TestTraceRendering:
    def test_show_states(self):
        translation = translate(two_periodic_threads(schedulable=True))
        trace = random_walk(translation.system, max_steps=3, seed=1)
        text = trace.format(show_states=True)
        assert "[t=0]" in text
        assert "t=0" in text
