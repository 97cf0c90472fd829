"""Tests of the preemption relation and the prioritized semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.acsr import (
    ProcessEnv,
    action,
    choice,
    idle,
    nil,
    parallel,
    preempts,
    prioritized,
    prioritized_transitions,
    proc,
    recv,
    restrict,
    send,
    tau,
)
from repro.acsr.events import EventLabel, IN, OUT, event_label, tau_label
from repro.acsr.resources import Action


def A(*pairs):
    return Action(pairs)


def pairwise_prioritized(steps):
    """The prioritized relation by its definition: drop every step some
    coenabled step preempts (the executable spec of ``prioritized``)."""
    labels = [label for label, _ in steps]
    return tuple(
        step
        for i, step in enumerate(steps)
        if not any(
            i != j and preempts(step[0], other)
            for j, other in enumerate(labels)
        )
    )


PRIORITIES = st.integers(min_value=0, max_value=3)
ACTIONS = st.dictionaries(
    st.sampled_from(["cpu", "bus", "mem"]), PRIORITIES, max_size=3
).map(lambda pairs: Action(pairs.items()))
TAUS = st.builds(tau_label, PRIORITIES, st.sampled_from([None, "a", "b"]))
EVENTS = st.builds(
    event_label, st.sampled_from(["a", "b"]), st.sampled_from([IN, OUT]),
    PRIORITIES,
)
STEP_LISTS = st.lists(
    st.tuples(st.one_of(ACTIONS, TAUS, EVENTS), st.integers(0, 3)),
    max_size=12,
)


class TestActionPreemption:
    def test_higher_priority_same_resource(self):
        assert preempts(A(("cpu", 1)), A(("cpu", 2)))
        assert not preempts(A(("cpu", 2)), A(("cpu", 1)))

    def test_equal_actions_do_not_preempt(self):
        assert not preempts(A(("cpu", 1)), A(("cpu", 1)))

    def test_resource_using_step_preempts_idle(self):
        # Paper: "any resource-using step will preempt an idling step".
        assert preempts(A(), A(("cpu", 1)))

    def test_zero_priority_step_does_not_preempt_idle(self):
        # Strictness: no resource has strictly greater priority than 0.
        assert not preempts(A(), A(("cpu", 0)))

    def test_superset_with_equal_priorities_preempts(self):
        # rho(low) subset of rho(high), equal on shared, strict on the
        # extra resource (priority 1 > absent 0).
        assert preempts(A(("cpu", 1)), A(("cpu", 1), ("bus", 1)))

    def test_subset_does_not_preempt(self):
        assert not preempts(A(("cpu", 1), ("bus", 1)), A(("cpu", 2)))

    def test_incomparable_resources(self):
        assert not preempts(A(("cpu", 1)), A(("bus", 2)))
        assert not preempts(A(("bus", 2)), A(("cpu", 1)))

    def test_mixed_priorities_no_preemption(self):
        # One resource higher, the other lower: incomparable.
        low = A(("cpu", 1), ("bus", 2))
        high = A(("cpu", 2), ("bus", 1))
        assert not preempts(low, high)
        assert not preempts(high, low)


class TestEventPreemption:
    def test_tau_preempts_actions(self):
        assert preempts(A(("cpu", 5)), tau_label(1))
        assert preempts(A(), tau_label(1))

    def test_zero_priority_tau_does_not_preempt_actions(self):
        assert not preempts(A(("cpu", 1)), tau_label(0))

    def test_actions_never_preempt_events(self):
        assert not preempts(tau_label(1), A(("cpu", 5)))

    def test_same_label_higher_priority(self):
        assert preempts(event_label("e", IN, 1), event_label("e", IN, 2))
        assert not preempts(event_label("e", IN, 2), event_label("e", IN, 1))

    def test_different_names_incomparable(self):
        assert not preempts(event_label("e", IN, 1), event_label("f", IN, 2))

    def test_different_directions_incomparable(self):
        assert not preempts(event_label("e", IN, 1), event_label("e", OUT, 2))

    def test_tau_vs_tau_by_priority(self):
        assert preempts(tau_label(1, via="a"), tau_label(2, via="b"))
        assert not preempts(tau_label(2), tau_label(2))

    def test_external_event_does_not_preempt_action(self):
        assert not preempts(A(("cpu", 1)), event_label("e", OUT, 9))


class TestPrioritizedRelation:
    def test_removes_dominated_transitions(self):
        steps = (
            (A(("cpu", 1)), nil()),
            (A(("cpu", 2)), nil()),
            (A(), nil()),
        )
        kept = prioritized(steps)
        assert [label for label, _ in kept] == [A(("cpu", 2))]

    def test_keeps_incomparable(self):
        steps = ((A(("cpu", 1)), nil()), (A(("bus", 1)), nil()))
        assert len(prioritized(steps)) == 2

    def test_subset_of_unprioritized(self, env):
        env.define(
            "P",
            (),
            choice(
                action({"cpu": 1}) >> proc("P"),
                action({"cpu": 2}) >> proc("P"),
                idle() >> proc("P"),
            ),
        )
        unpri = env.close(proc("P")).steps()
        pri = prioritized_transitions(proc("P"), env)
        assert set(pri) <= set(unpri)
        assert len(pri) == 1


    @given(STEP_LISTS)
    def test_linear_filter_equals_pairwise_spec(self, steps):
        """The linear filter keeps exactly the steps the pairwise
        definition keeps, in the same order, duplicates included."""
        assert prioritized(steps) == pairwise_prioritized(steps)


class TestSchedulingScenario:
    def test_higher_priority_thread_wins_cpu(self, env):
        """Two threads on one cpu: the prioritized relation leaves only
        the high-priority thread's step."""
        env.define(
            "Low",
            (),
            choice(
                action({"cpu": 1}) >> proc("Low"),
                idle() >> proc("Low"),
            ),
        )
        env.define(
            "High",
            (),
            choice(
                action({"cpu": 2}) >> proc("High"),
                idle() >> proc("High"),
            ),
        )
        system = env.close(parallel(proc("Low"), proc("High")))
        steps = system.prioritized_steps()
        assert len(steps) == 1
        assert steps[0][0] is A(("cpu", 2))

    def test_urgent_tau_blocks_time(self, env):
        """A pending positive-priority synchronization preempts all timed
        steps (dispatch immediacy in the translation)."""
        env.define("Snd", (), send("go", 1) >> proc("Idle"))
        env.define(
            "Rcv",
            (),
            choice(recv("go", 1) >> proc("Idle"), idle() >> proc("Rcv")),
        )
        env.define("Idle", (), idle() >> proc("Idle"))
        env.define("Work", (), action({"cpu": 1}) >> proc("Work"))
        system = env.close(
            restrict(
                parallel(proc("Snd"), proc("Rcv"), proc("Work")), ["go"]
            )
        )
        steps = system.prioritized_steps()
        assert len(steps) == 1
        label = steps[0][0]
        assert label.is_tau and label.via == "go"

    def test_zero_priority_tau_coexists_with_time(self, env):
        """Priority-0 synchronizations stay nondeterministic alternatives
        (the completion handshake of the translation)."""
        env.define("Snd", (), choice(
            send("fin", 0) >> proc("Idle"),
            idle() >> proc("Snd"),
        ))
        env.define(
            "Rcv",
            (),
            choice(recv("fin", 0) >> proc("Idle"), idle() >> proc("Rcv")),
        )
        env.define("Idle", (), idle() >> proc("Idle"))
        system = env.close(
            restrict(parallel(proc("Snd"), proc("Rcv")), ["fin"])
        )
        labels = {str(label) for label, _ in system.prioritized_steps()}
        assert "(tau@fin,0)" in labels
        assert "idle" in labels
