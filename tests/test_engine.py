"""Tests of the unified exploration engine (repro.engine).

Covers the ISSUE-specified edge cases: every budget dimension under both
raise and truncate policies, target hits on the initial state, deadlocks
at the budget boundary, BFS/DFS discovered-set equivalence on the paper's
Fig. 2 example, the explicit transition cache, and observer hooks.
"""

import warnings

import pytest

from repro.errors import AnalysisError, ExplorationLimitError
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
from repro.engine import (
    Budget,
    BreadthFirst,
    DepthFirst,
    IncompleteExplorationWarning,
    ProgressObserver,
    RandomWalk,
    RecordingObserver,
    SuccessorProvider,
    TransitionCache,
    explore,
    make_strategy,
)


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


@pytest.fixture
def counter_system(counter_env):
    return counter_env.close(proc("Count", 0))


def fig2_system():
    """The paper's Fig. 2 'simple process' example (with idling)."""
    env = ProcessEnv()
    step2 = action({"cpu": 1, "bus": 1}) >> send("done", 1) >> proc("Simple")
    first = action({"cpu": 1}) >> proc("Step2")
    env.define("Simple", (), choice(first, idle().then(proc("Simple"))))
    env.define("Step2", (), choice(step2, idle().then(proc("Step2"))))
    env.define(
        "Recv",
        (),
        choice(recv("done", 1).then(proc("Recv")), idle().then(proc("Recv"))),
    )
    return env.close(
        restrict(parallel(proc("Simple"), proc("Recv")), ["done"])
    )


class TestBudgets:
    def test_state_budget_raises(self, counter_system):
        with pytest.raises(ExplorationLimitError) as excinfo:
            explore(counter_system, budget=Budget(max_states=2))
        assert excinfo.value.states_explored == 2

    def test_state_budget_truncates(self, counter_system):
        result = explore(
            counter_system,
            budget=Budget(max_states=2, on_limit="truncate"),
        )
        assert result.num_states == 2
        assert not result.completed
        assert result.limit_hit == "states"
        assert result.stats.limit_hit == "states"

    def test_time_budget_raises(self, counter_system):
        with pytest.raises(ExplorationLimitError):
            explore(counter_system, budget=Budget(max_seconds=0.0))

    def test_time_budget_truncates(self, counter_system):
        result = explore(
            counter_system,
            budget=Budget(max_seconds=0.0, on_limit="truncate"),
        )
        assert not result.completed
        assert result.limit_hit == "seconds"

    def test_transition_budget_raises(self, counter_system):
        with pytest.raises(ExplorationLimitError):
            explore(counter_system, budget=Budget(max_transitions=2))

    def test_transition_budget_truncates(self, counter_system):
        result = explore(
            counter_system,
            budget=Budget(max_transitions=2, on_limit="truncate"),
        )
        assert not result.completed
        assert result.limit_hit == "transitions"
        assert result.num_transitions == 3  # stopped on the 3rd

    def test_invalid_on_limit(self):
        with pytest.raises(ValueError):
            Budget(on_limit="ignore")

    def test_unlimited_budget(self, counter_system):
        result = explore(counter_system, budget=Budget(max_states=None))
        assert result.completed
        assert result.num_states == 5

    def test_deadlock_exactly_at_state_budget(self, counter_system):
        """The deadlocked state Count(4) is the 5th and last discovered:
        a budget of exactly 5 states still finds the deadlock and the
        run completes (the boundary is not an off-by-one truncation)."""
        result = explore(counter_system, budget=Budget(max_states=5))
        assert result.num_states == 5
        assert result.completed
        assert result.deadlock_states == [proc("Count", 4)]

    def test_deadlock_discovered_but_not_expanded_at_budget(
        self, counter_system
    ):
        """With a budget of 4, Count(4)'s predecessor is expanded but
        Count(4) itself is never discovered -- the truncated result must
        not claim a deadlock-freedom proof."""
        result = explore(
            counter_system,
            budget=Budget(max_states=4, on_limit="truncate"),
        )
        assert not result.completed
        assert result.deadlock_states == []
        with pytest.warns(IncompleteExplorationWarning):
            assert result.deadlock_free


class TestTargets:
    def test_stop_at_target_on_initial_state(self, counter_system):
        initial = proc("Count", 0)
        result = explore(
            counter_system,
            target=lambda t: t is initial,
            stop_at_target=True,
        )
        assert result.target_states == [initial]
        assert not result.completed
        assert result.num_states == 1
        assert len(result.trace_to(initial)) == 0

    def test_target_collection_without_stop(self, counter_system):
        result = explore(
            counter_system, target=lambda t: t is proc("Count", 2)
        )
        assert result.target_states == [proc("Count", 2)]
        assert result.completed


class TestStrategies:
    def test_bfs_dfs_same_discovered_set_fig2(self):
        system = fig2_system()
        bfs = explore(system, strategy="bfs")
        dfs = explore(system, strategy="dfs")
        assert bfs.completed and dfs.completed
        assert set(bfs.states()) == set(dfs.states())
        assert bfs.num_states == dfs.num_states
        assert bfs.num_transitions == dfs.num_transitions
        assert bfs.stats.strategy == "bfs"
        assert dfs.stats.strategy == "dfs"

    def test_bfs_finds_shortest_counterexample(self):
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
        assert len(result.first_deadlock_trace()) == 1

    def test_random_walk_records_path(self, counter_system):
        strategy = RandomWalk(max_steps=10, seed=7)
        result = explore(counter_system, strategy=strategy)
        # The counter is a 4-step chain: the walk takes it and stops at
        # the deadlock.
        assert len(strategy.path) == 4
        assert result.deadlock_states == [proc("Count", 4)]
        assert not result.completed  # a walk never proves coverage

    def test_random_walk_rejects_negative_steps(self):
        with pytest.raises(AnalysisError):
            RandomWalk(max_steps=-1)

    def test_random_walk_bad_policy_index(self, counter_system):
        strategy = RandomWalk(max_steps=5, policy=lambda steps, rng: 99)
        with pytest.raises(AnalysisError):
            explore(counter_system, strategy=strategy)

    def test_make_strategy_resolution(self):
        assert isinstance(make_strategy(None), BreadthFirst)
        assert isinstance(make_strategy("dfs"), DepthFirst)
        dfs = DepthFirst()
        assert make_strategy(dfs) is dfs
        with pytest.raises(ValueError):
            make_strategy("best-first")
        with pytest.raises(TypeError):
            make_strategy(42)


class TestResultDiagnostics:
    def test_transitions_of_without_storage(self, counter_system):
        result = explore(counter_system)
        with pytest.raises(ValueError, match="store_transitions"):
            result.transitions_of(proc("Count", 0))

    def test_transitions_of_undiscovered_state(self, counter_system):
        result = explore(counter_system, store_transitions=True)
        with pytest.raises(KeyError, match="never discovered"):
            result.transitions_of(proc("Count", 99))

    def test_transitions_of_unexpanded_state(self):
        # Branching system: the root's first successor is discovered but
        # the budget hits before it is ever expanded.
        env = ProcessEnv()
        env.define(
            "Fork",
            (),
            choice(
                action({"cpu": 1}) >> (action({"cpu": 1}) >> nil()),
                action({"bus": 1}) >> (action({"bus": 1}) >> nil()),
            ),
        )
        result = explore(
            env.close(proc("Fork")),
            store_transitions=True,
            budget=Budget(max_states=2, on_limit="truncate"),
        )
        unexpanded = [
            state
            for state in result.states()
            if state not in result.stored_transitions
        ]
        assert unexpanded
        with pytest.raises(KeyError, match="not expanded"):
            result.transitions_of(unexpanded[-1])

    def test_deadlock_free_definitive_runs_do_not_warn(self, counter_system):
        result = explore(counter_system)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not result.deadlock_free  # completed, has deadlock

    def test_deadlock_free_truncated_with_witness_does_not_warn(
        self, counter_system
    ):
        result = explore(counter_system, stop_at_first_deadlock=True)
        assert not result.completed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not result.deadlock_free  # witness is definitive


class TestTransitionCache:
    def test_hits_misses(self):
        cache = TransitionCache(name="t")
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_bounded_eviction_is_lru(self):
        cache = TransitionCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now LRU
        cache.put("c", 3)
        assert cache.evictions == 1
        assert "b" not in cache and "a" in cache and "c" in cache

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            TransitionCache(0)

    def test_clear_keeps_counters(self):
        cache = TransitionCache()
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1
        cache.reset_stats()
        assert cache.hits == 0

    def test_stats_shape(self):
        stats = TransitionCache(8, name="steps").stats()
        assert stats["name"] == "steps"
        assert stats["maxsize"] == 8
        assert set(stats) >= {"size", "hits", "misses", "evictions"}


class TestSystemCacheApi:
    def test_cache_stats_and_clear(self, counter_system):
        explore(counter_system)
        stats = counter_system.cache_stats()
        # A prioritized run fills the prioritized cache only; the
        # unprioritized step cache stays empty.
        assert stats["step_cache"] == 0
        assert stats["prio_cache"] >= 1
        assert stats["trans_cache"] >= 1
        assert stats["detail"]["semantics"]["misses"] >= 1
        counter_system.clear_cache()
        stats = counter_system.cache_stats()
        assert stats["prio_cache"] == 0
        assert stats["trans_cache"] == 0
        assert stats["unfold_cache"] == 0

    def test_component_tables_reported_and_cleared(self, counter_env):
        system = counter_env.close(
            parallel(proc("Count", 0), idle() >> proc("Count", 2))
        )
        explore(system)
        stats = system.cache_stats()
        assert stats["table_cache"] >= 2
        assert stats["detail"]["tables"]["misses"] >= 2
        assert counter_env.table_cache in system.caches()
        system.clear_cache()
        assert system.cache_stats()["table_cache"] == 0

    def test_env_owns_explicit_trans_cache(self, counter_env):
        assert isinstance(counter_env.trans_cache, TransitionCache)
        # ProcessEnv is slotted: the old monkey-patch route is closed.
        with pytest.raises(AttributeError):
            counter_env._trans_memo = {}

    def test_rerun_hits_cache(self, counter_system):
        cold = explore(counter_system)
        warm = explore(counter_system)
        assert cold.stats.cache_misses > 0
        assert warm.stats.cache_misses == 0
        assert warm.stats.cache_hit_rate == 1.0

    def test_bounded_system_caches_evict(self, counter_env):
        system = counter_env.close(proc("Count", 0), cache_maxsize=2)
        explore(system)
        stats = system.cache_stats()
        assert stats["prio_cache"] <= 2
        assert stats["detail"]["prioritized"]["evictions"] >= 1


class TestObservers:
    def test_recording_observer_sees_run(self, counter_system):
        recorder = RecordingObserver()
        result = explore(counter_system, observers=recorder)
        assert recorder.of_kind("start")
        assert len(recorder.of_kind("state")) == 5
        assert len(recorder.of_kind("transition")) == 4
        assert len(recorder.of_kind("deadlock")) == 1
        ((_, finished),) = recorder.of_kind("finish")
        assert finished is result

    def test_on_limit_hook_fires_on_truncate(self, counter_system):
        recorder = RecordingObserver()
        explore(
            counter_system,
            budget=Budget(max_states=2, on_limit="truncate"),
            observers=recorder,
        )
        assert recorder.of_kind("limit") == [("limit", "states", 2)]

    def test_on_limit_hook_fires_before_raise(self, counter_system):
        recorder = RecordingObserver()
        with pytest.raises(ExplorationLimitError):
            explore(
                counter_system,
                budget=Budget(max_states=2),
                observers=recorder,
            )
        assert recorder.of_kind("limit") == [("limit", "states", 2)]

    def test_progress_observer_callback(self, counter_system):
        reports = []
        explore(
            counter_system,
            observers=ProgressObserver(
                every_states=2,
                callback=lambda ex, disc, el: reports.append((ex, disc)),
            ),
        )
        assert reports  # fired at expansions 2 and 4
        assert reports[0][0] == 2

    def test_progress_observer_requires_a_trigger(self):
        with pytest.raises(ValueError):
            ProgressObserver(every_states=None, every_seconds=None)

    def test_multiple_observers(self, counter_system):
        a, b = RecordingObserver(), RecordingObserver()
        explore(counter_system, observers=[a, b])
        assert len(a.events) == len(b.events) > 0


class TestProvider:
    def test_counts_calls(self, counter_system):
        provider = SuccessorProvider(counter_system)
        explore(counter_system, provider=provider)
        assert provider.calls == 5  # one expansion per state

    def test_unprioritized_relation(self):
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


class TestEngineStats:
    def test_stats_snapshot(self, counter_system):
        result = explore(counter_system)
        stats = result.stats
        assert stats.strategy == "bfs"
        assert stats.states == 5
        assert stats.transitions == 4
        assert stats.expanded == 5
        assert stats.frontier_peak >= 1
        assert stats.parent_map_bytes > 0
        assert stats.elapsed >= 0
        assert stats.limit_hit is None
        as_dict = stats.as_dict()
        assert as_dict["states"] == 5
        assert "states/s" in stats.format() or "states" in stats.format()
