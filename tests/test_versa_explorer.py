"""Tests of the state-space explorer, :func:`repro.engine.explore`."""

import pytest

from repro.errors import ExplorationLimitError
from repro.acsr import (
    ProcessEnv,
    action,
    choice,
    guard,
    idle,
    nil,
    parallel,
    proc,
    recv,
    restrict,
    send,
)
from repro.acsr.expressions import var
from repro.engine import Budget, explore


@pytest.fixture
def counter_env():
    """Count(n): n goes 0..4 then deadlocks."""
    env = ProcessEnv()
    n = var("n")
    env.define(
        "Count",
        ("n",),
        guard(n < 4, action({"cpu": 1}) >> proc("Count", n + 1)),
    )
    return env


class TestBasicExploration:
    def test_counts_states(self, counter_env):
        system = counter_env.close(proc("Count", 0))
        result = explore(system)
        assert result.num_states == 5
        assert result.num_transitions == 4
        assert result.completed

    def test_detects_deadlock(self, counter_env):
        system = counter_env.close(proc("Count", 0))
        result = explore(system)
        assert result.deadlock_states == [proc("Count", 4)]
        assert not result.deadlock_free

    def test_cycle_is_deadlock_free(self):
        env = ProcessEnv()
        env.define("Loop", (), idle() >> proc("Loop"))
        result = explore(env.close(proc("Loop")))
        assert result.num_states == 1
        assert result.deadlock_free

    def test_trace_to_deadlock(self, counter_env):
        system = counter_env.close(proc("Count", 0))
        result = explore(system)
        trace = result.first_deadlock_trace()
        assert trace is not None
        assert len(trace) == 4
        assert trace.duration == 4
        assert trace.final_state is proc("Count", 4)

    def test_trace_to_unknown_state_raises(self, counter_env):
        system = counter_env.close(proc("Count", 0))
        result = explore(system)
        with pytest.raises(KeyError):
            result.trace_to(proc("Count", 99))

    def test_stop_at_first_deadlock(self, counter_env):
        system = counter_env.close(proc("Count", 0))
        result = explore(system, stop_at_first_deadlock=True)
        assert result.deadlock_states
        assert not result.completed


class TestBudgets:
    def test_state_budget_raises(self, counter_env):
        system = counter_env.close(proc("Count", 0))
        with pytest.raises(ExplorationLimitError) as excinfo:
            explore(system, budget=Budget(max_states=2))
        assert excinfo.value.states_explored == 2

    def test_state_budget_truncates(self, counter_env):
        system = counter_env.close(proc("Count", 0))
        result = explore(
            system,
            budget=Budget(max_states=2, on_limit="truncate"),
        )
        assert result.num_states == 2
        assert not result.completed

    def test_invalid_on_limit(self):
        with pytest.raises(ValueError):
            Budget(on_limit="ignore")


class TestTargets:
    def test_target_collection(self, counter_env):
        system = counter_env.close(proc("Count", 0))
        result = explore(system, target=lambda t: t is proc("Count", 2))
        assert result.target_states == [proc("Count", 2)]

    def test_stop_at_target(self, counter_env):
        system = counter_env.close(proc("Count", 0))
        result = explore(
            system,
            target=lambda t: t is proc("Count", 2),
            stop_at_target=True,
        )
        assert result.target_states == [proc("Count", 2)]
        trace = result.trace_to(proc("Count", 2))
        assert len(trace) == 2

    def test_initial_state_can_match(self, counter_env):
        system = counter_env.close(proc("Count", 0))
        result = explore(
            system,
            target=lambda t: t is proc("Count", 0),
            stop_at_target=True,
        )
        assert result.target_states == [proc("Count", 0)]


class TestBfsShortestCounterexample:
    def test_shortest_deadlock_found_first(self):
        """Two paths to deadlock: length 1 and length 3; BFS returns the
        short one."""
        env = ProcessEnv()
        env.define(
            "Start",
            (),
            choice(
                action({"cpu": 1}) >> nil(),
                action({"bus": 1})
                >> (action({"bus": 1}) >> (action({"bus": 1}) >> nil())),
            ),
        )
        system = env.close(proc("Start"))
        result = explore(system, stop_at_first_deadlock=True)
        trace = result.first_deadlock_trace()
        assert len(trace) == 1


class TestPrioritizedVsUnprioritized:
    def test_ablation_space_sizes(self):
        """The prioritized relation prunes dominated interleavings; the
        unprioritized space is at least as large (DESIGN.md T-PRIO)."""
        env = ProcessEnv()
        env.define(
            "Hi",
            (),
            choice(action({"cpu": 2}) >> proc("Hi"), idle() >> proc("Hi")),
        )
        env.define(
            "Lo",
            (),
            choice(action({"cpu": 1}) >> proc("Lo"), idle() >> proc("Lo")),
        )
        system = env.close(parallel(proc("Hi"), proc("Lo")))
        pri = explore(system, prioritized=True)
        unpri = explore(system, prioritized=False)
        assert pri.num_transitions < unpri.num_transitions
        assert pri.num_states <= unpri.num_states


class TestTransitionStorage:
    def test_stored_transitions(self, counter_env):
        system = counter_env.close(proc("Count", 0))
        result = explore(system, store_transitions=True)
        steps = result.transitions_of(proc("Count", 0))
        assert len(steps) == 1

    def test_unavailable_without_flag(self, counter_env):
        system = counter_env.close(proc("Count", 0))
        result = explore(system)
        with pytest.raises(ValueError):
            result.transitions_of(proc("Count", 0))
