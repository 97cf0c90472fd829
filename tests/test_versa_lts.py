"""Tests for LTS export, minimization, traces and queries."""

import pytest

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
from repro.acsr.events import event_label, OUT
from repro.acsr.expressions import var
from repro.acsr.resources import Action
from repro.engine import explore
from repro.versa import (
    LTS,
    Step,
    Trace,
    bisimulation_quotient,
    deadlock_free,
    find_deadlock,
    find_reachable,
    reachable_states,
)
from repro.versa.queries import contains_proc


@pytest.fixture
def explored():
    env = ProcessEnv()
    n = var("n")
    env.define(
        "Count",
        ("n",),
        guard(n < 3, action({"cpu": 1}) >> proc("Count", n + 1)),
    )
    system = env.close(proc("Count", 0))
    return explore(system, store_transitions=True)


class TestLts:
    def test_from_exploration(self, explored):
        lts = LTS.from_exploration(explored)
        assert lts.num_states == 4
        assert len(lts.edges) == 3
        assert lts.deadlock_states() == [3]

    def test_requires_stored_transitions(self):
        env = ProcessEnv()
        env.define("L", (), idle() >> proc("L"))
        result = explore(env.close(proc("L")))
        with pytest.raises(ValueError):
            LTS.from_exploration(result)

    def test_networkx_export(self, explored):
        graph = LTS.from_exploration(explored).to_networkx()
        assert graph.number_of_nodes() == 4
        assert graph.number_of_edges() == 3
        assert graph.graph["initial"] == 0

    def test_labels(self, explored):
        lts = LTS.from_exploration(explored)
        assert lts.labels() == [Action([("cpu", 1)])]

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            LTS(2, 0, [(0, "a", 5)])


class TestMinimization:
    def test_chain_of_identical_states_collapses(self):
        """A cycle of identical idle states is bisimilar to one state."""
        env = ProcessEnv()
        env.define("A", (), idle() >> proc("B"))
        env.define("B", (), idle() >> proc("A"))
        result = explore(env.close(proc("A")), store_transitions=True)
        lts = LTS.from_exploration(result)
        quotient, block_of = bisimulation_quotient(lts)
        assert quotient.num_states == 1
        assert block_of[0] == block_of[1]

    def test_distinct_behaviour_not_merged(self, explored):
        # Count(0)..Count(3) differ in distance-to-deadlock: no merging.
        lts = LTS.from_exploration(explored)
        quotient, _ = bisimulation_quotient(lts)
        assert quotient.num_states == 4

    def test_deadlock_freedom_invariant(self):
        env = ProcessEnv()
        env.define(
            "P",
            (),
            choice(
                action({"cpu": 1}) >> proc("P"),
                idle() >> proc("Q"),
            ),
        )
        env.define("Q", (), action({"cpu": 1}) >> proc("P"))
        result = explore(env.close(proc("P")), store_transitions=True)
        lts = LTS.from_exploration(result)
        quotient, _ = bisimulation_quotient(lts)
        assert bool(lts.deadlock_states()) == bool(quotient.deadlock_states())

    def test_labels_distinguish(self):
        """States differing only in the label of their step stay apart."""
        lts = LTS(
            3,
            0,
            [
                (0, event_label("a", OUT, 1), 2),
                (1, event_label("b", OUT, 1), 2),
            ],
        )
        quotient, block_of = bisimulation_quotient(lts)
        assert block_of[0] != block_of[1]


class TestTraces:
    def test_duration_counts_timed_steps(self):
        t = Trace(
            nil(),
            [
                Step(event_label("e", OUT, 1), nil()),
                Step(Action([("cpu", 1)]), nil()),
                Step(Action(()), nil()),
            ],
        )
        assert t.duration == 2
        assert len(t) == 3

    def test_timed_prefix_times(self):
        t = Trace(
            nil(),
            [
                Step(Action([("cpu", 1)]), nil()),
                Step(event_label("e", OUT, 1), nil()),
                Step(Action([("cpu", 1)]), nil()),
            ],
        )
        assert t.timed_prefix_times() == [0, 1, 1]

    def test_format_contains_clock(self):
        t = Trace(nil(), [Step(Action([("cpu", 1)]), nil())])
        assert "t=0" in t.format()

    def test_empty_trace(self):
        t = Trace(nil(), [])
        assert t.final_state is nil()
        assert "<empty trace>" in t.format()


class TestQueries:
    def test_deadlock_free_true(self):
        env = ProcessEnv()
        env.define("L", (), idle() >> proc("L"))
        assert deadlock_free(env.close(proc("L")))

    def test_find_deadlock_none_when_free(self):
        env = ProcessEnv()
        env.define("L", (), idle() >> proc("L"))
        assert find_deadlock(env.close(proc("L"))) is None

    def test_find_deadlock_trace(self):
        env = ProcessEnv()
        env.define("D", (), action({"cpu": 1}) >> nil())
        trace = find_deadlock(env.close(proc("D")))
        assert trace is not None and len(trace) == 1

    def test_find_reachable(self):
        env = ProcessEnv()
        env.define("A", (), idle() >> proc("Target"))
        env.define("Target", (), idle() >> proc("Target"))
        trace = find_reachable(
            env.close(proc("A")), contains_proc("Target")
        )
        assert trace is not None and len(trace) == 1

    def test_find_reachable_none(self):
        env = ProcessEnv()
        env.define("A", (), idle() >> proc("A"))
        assert (
            find_reachable(env.close(proc("A")), contains_proc("Missing"))
            is None
        )

    def test_contains_proc_sees_parallel_components(self):
        env = ProcessEnv()
        env.define("X", (), idle() >> proc("X"))
        env.define("Y", (), idle() >> proc("Y"))
        predicate = contains_proc("Y")
        assert predicate(parallel(proc("X"), proc("Y")))
        assert not predicate(parallel(proc("X"), proc("X")))

    def test_reachable_states_full_result(self):
        env = ProcessEnv()
        n = var("n")
        env.define(
            "C", ("n",), guard(n < 2, idle() >> proc("C", n + 1))
        )
        result = reachable_states(env.close(proc("C", 0)))
        assert result.num_states == 3
        assert result.completed


class TestAdjacencyIndex:
    """``successors`` answers from a lazily built adjacency index
    instead of rescanning the whole edge list per query."""

    def test_successors_match_edges(self, explored):
        lts = LTS.from_exploration(explored)
        for state in range(lts.num_states):
            expected = [
                (label, dst)
                for src, label, dst in lts.edges
                if src == state
            ]
            assert lts.successors(state) == expected

    def test_index_built_once_and_reused(self, explored):
        lts = LTS.from_exploration(explored)
        assert lts._adjacency is None  # lazy: nothing until first query
        lts.successors(0)
        index = lts._adjacency
        assert index is not None
        lts.successors(1)
        lts.deadlock_states()
        assert lts._adjacency is index  # same object, not rebuilt

    def test_successors_returns_a_copy(self, explored):
        lts = LTS.from_exploration(explored)
        lts.successors(0).append(("tampered", 0))
        assert ("tampered", 0) not in lts.successors(0)

    def test_out_of_range_state_rejected(self, explored):
        lts = LTS.from_exploration(explored)
        with pytest.raises(ValueError):
            lts.successors(lts.num_states)
        with pytest.raises(ValueError):
            lts.successors(-1)

    def test_deadlock_states_use_index(self, explored):
        lts = LTS.from_exploration(explored)
        deadlocks = lts.deadlock_states()
        assert deadlocks == [
            state
            for state in range(lts.num_states)
            if not lts.successors(state)
        ]
