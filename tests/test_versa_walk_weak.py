"""Tests for random walks and the weak bisimulation quotient."""

import pytest

from repro.errors import AnalysisError
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
from repro.acsr.events import event_label, tau_label, OUT
from repro.acsr.expressions import var
from repro.acsr.resources import Action
from repro.engine import explore
from repro.versa import (
    LTS,
    bisimulation_quotient,
    event_first_policy,
    random_walk,
    uniform_policy,
    walk_statistics,
    weak_bisimulation_quotient,
)


@pytest.fixture
def looping_system():
    env = ProcessEnv()
    env.define(
        "P",
        (),
        action({"cpu": 1}) >> (send("fin", 0) >> proc("P")),
    )
    env.define(
        "Q",
        (),
        choice(recv("fin", 0).then(proc("Q")), idle().then(proc("Q"))),
    )
    return env.close(restrict(parallel(proc("P"), proc("Q")), ["fin"]))


class TestRandomWalk:
    def test_walk_length(self, looping_system):
        trace = random_walk(looping_system, max_steps=10, seed=0)
        assert len(trace) == 10

    def test_reproducible_with_seed(self, looping_system):
        a = random_walk(looping_system, max_steps=15, seed=42)
        b = random_walk(looping_system, max_steps=15, seed=42)
        assert a.labels() == b.labels()

    def test_walk_stops_at_deadlock(self):
        env = ProcessEnv()
        env.define("D", (), action({"cpu": 1}) >> nil())
        trace = random_walk(env.close(proc("D")), max_steps=50, seed=0)
        assert len(trace) == 1

    def test_zero_steps(self, looping_system):
        trace = random_walk(looping_system, max_steps=0)
        assert len(trace) == 0
        assert trace.final_state is looping_system.root

    def test_negative_steps_rejected(self, looping_system):
        with pytest.raises(AnalysisError):
            random_walk(looping_system, max_steps=-1)

    def test_event_first_policy_drains_events(self, looping_system):
        trace = random_walk(
            looping_system,
            max_steps=20,
            seed=3,
            policy=event_first_policy,
        )
        # After the compute step the handshake always fires immediately:
        # the labels strictly alternate action / tau.
        kinds = ["E" if step.is_event else "A" for step in trace]
        assert kinds == ["A", "E"] * 10

    def test_bad_policy_rejected(self, looping_system):
        with pytest.raises(AnalysisError):
            random_walk(
                looping_system,
                max_steps=5,
                policy=lambda steps, rng: 99,
            )

    def test_statistics_on_deadlocking_system(self):
        env = ProcessEnv()
        n = var("n")
        env.define(
            "C", ("n",), guard(n < 3, action({"cpu": 1}) >> proc("C", n + 1))
        )
        stats = walk_statistics(
            env.close(proc("C", 0)), walks=10, max_steps=50, seed=1
        )
        assert stats["deadlock_rate"] == 1.0
        assert stats["max_duration"] == 3

    def test_statistics_on_live_system(self, looping_system):
        stats = walk_statistics(
            looping_system, walks=5, max_steps=30, seed=1
        )
        assert stats["deadlock_rate"] == 0.0
        assert stats["deadlocks"] == 0
        assert stats["mean_duration"] > 0

    def test_trace_records_deadlock_flag(self, looping_system):
        env = ProcessEnv()
        env.define("D", (), action({"cpu": 1}) >> nil())
        dead = random_walk(env.close(proc("D")), max_steps=50, seed=0)
        assert dead.deadlocked is True
        live = random_walk(looping_system, max_steps=10, seed=0)
        assert live.deadlocked is False

    def test_deadlock_at_exactly_max_steps_counted(self):
        # The boundary case the old length-based heuristic missed: the
        # walk budget runs out on the same step that reaches the stuck
        # state, so len(trace) == max_steps yet the walk deadlocked.
        env = ProcessEnv()
        n = var("n")
        env.define(
            "C", ("n",), guard(n < 3, action({"cpu": 1}) >> proc("C", n + 1))
        )
        system = env.close(proc("C", 0))
        trace = random_walk(system, max_steps=3, seed=0)
        assert len(trace) == 3
        assert trace.deadlocked is True
        stats = walk_statistics(system, walks=4, max_steps=3, seed=1)
        assert stats["deadlocks"] == 4
        assert stats["deadlock_rate"] == 1.0

    def test_multi_walk_seed_sequence_determinism(self, looping_system):
        from repro.versa import multi_walk

        first = multi_walk(looping_system, walks=6, max_steps=12, seed=9)
        second = multi_walk(looping_system, walks=6, max_steps=12, seed=9)
        assert [t.labels() for t in first] == [t.labels() for t in second]
        # Spawned child streams must be pairwise independent: sibling
        # walks of a branching system should not all replay one stream.
        import numpy as np

        spawned = multi_walk(
            looping_system,
            walks=3,
            max_steps=12,
            seed=np.random.SeedSequence(9),
        )
        assert [t.labels() for t in spawned] == [
            t.labels() for t in first[:3]
        ]


class TestWeakBisimulation:
    def explored_lts(self, system):
        result = explore(system, store_transitions=True)
        return LTS.from_exploration(result)

    def test_tau_chain_collapses(self, looping_system):
        lts = self.explored_lts(looping_system)
        weak, _ = weak_bisimulation_quotient(lts)
        strong, _ = bisimulation_quotient(lts)
        assert weak.num_states < strong.num_states

    def test_visible_behaviour_preserved(self, looping_system):
        lts = self.explored_lts(looping_system)
        weak, block_of = weak_bisimulation_quotient(lts)
        visible = {
            label
            for _, label, _ in weak.edges
            if isinstance(label, Action)
        }
        assert Action([("cpu", 1)]) in visible

    def test_pure_tau_cycle_is_one_state(self):
        lts = LTS(
            3,
            0,
            [
                (0, tau_label(0, via="x"), 1),
                (1, tau_label(0, via="y"), 2),
                (2, tau_label(0), 0),
            ],
        )
        weak, _ = weak_bisimulation_quotient(lts)
        assert weak.num_states == 1
        assert weak.edges == []

    def test_distinct_visible_labels_not_merged(self):
        lts = LTS(
            3,
            0,
            [
                (0, event_label("a", OUT, 1), 2),
                (1, event_label("b", OUT, 1), 2),
            ],
        )
        weak, block_of = weak_bisimulation_quotient(lts)
        assert block_of[0] != block_of[1]

    def test_tau_then_visible_equals_visible(self):
        """s -tau-> t -a-> u is weakly equal to s' -a-> u."""
        lts = LTS(
            4,
            0,
            [
                (0, tau_label(0), 1),
                (1, event_label("a", OUT, 1), 3),
                (2, event_label("a", OUT, 1), 3),
            ],
        )
        weak, block_of = weak_bisimulation_quotient(lts)
        assert block_of[0] == block_of[2]

    def test_empty_lts(self):
        weak, block_of = weak_bisimulation_quotient(LTS(0, 0, []))
        assert weak.num_states == 0
        assert block_of == []

    def test_translated_thread_abstracts_handshakes(self):
        """Weak quotient of a single periodic thread: the visible cycle
        (compute + idles over one period) with handshakes erased."""
        from repro.aadl.builder import SystemBuilder
        from repro.aadl.properties import DispatchProtocol, ms
        from repro.translate import translate

        b = SystemBuilder("W")
        cpu = b.processor("cpu")
        b.thread(
            "t",
            dispatch=DispatchProtocol.PERIODIC,
            period=ms(4),
            compute_time=(ms(1), ms(1)),
            deadline=ms(4),
            processor=cpu,
        )
        translation = translate(b.instantiate())
        lts = self.explored_lts(translation.system)
        weak, _ = weak_bisimulation_quotient(lts)
        # One state per quantum of the period: 4.
        assert weak.num_states == 4
        assert all(isinstance(l, Action) for _, l, _ in weak.edges)
