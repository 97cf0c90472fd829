"""Integration tests pinned to the paper's explicit claims.

Each test names the paper section it reproduces; the benchmarks in
``benchmarks/`` regenerate the corresponding artifacts with measurements.
"""

import pytest

from repro.aadl import parse_model, instantiate
from repro.aadl.gallery import cruise_control, cruise_control_text
from repro.aadl.properties import SchedulingProtocol, ms
from repro.analysis import Verdict, analyze_model
from repro.sched import extract_task_set, rta_schedulable, edf_schedulable
from repro.translate import translate
from repro.engine import Budget, explore
from repro.workloads import task_set_to_system
from repro.sched.taskmodel import PeriodicTask, TaskSet


class TestSection41CruiseControl:
    """S4.1: 'the translation produces six ACSR processes that represent
    threads and six ACSR processes that represent dispatchers for each
    thread.  All connections in the example are data connections, thus no
    queue processes are introduced.'"""

    def test_process_counts(self):
        result = translate(cruise_control())
        assert result.num_thread_processes == 6
        assert result.num_dispatchers == 6
        assert result.num_queue_processes == 0

    def test_full_pipeline_from_text(self):
        model = parse_model(cruise_control_text())
        instance = instantiate(model, "CruiseControl.impl")
        result = analyze_model(instance)
        assert result.verdict is Verdict.SCHEDULABLE

    def test_exploration_is_exhaustive(self):
        result = translate(cruise_control())
        exploration = explore(
            result.system,
            budget=Budget(max_states=1_000_000),
        )
        assert exploration.completed
        assert exploration.deadlock_free


class TestSection42BusRefinement:
    """S4.2: 'Two of the threads, DriverModeLogic and RefSpeed have
    outgoing data connections that are mapped to the bus ... the last
    computation step of the Compute state uses both cpu and bus as
    resources.  In all other computation steps ... R = {} and access only
    cpu.'"""

    def test_only_two_threads_touch_the_bus(self):
        result = translate(cruise_control())
        exploration = explore(
            result.system,
            budget=Budget(max_states=1_000_000),
            store_transitions=True,
        )
        from repro.acsr.resources import Action

        bus_resource = next(iter(result.names.names_of_kind("bus")))
        # Any timed step using the bus also uses the HCI cpu (both
        # bus-mapped sources live on the HCI processor).
        hci_cpu = "cpu$CruiseControl_hci_processor"
        for state in exploration.states():
            for label, _ in exploration.transitions_of(state):
                if isinstance(label, Action) and bus_resource in label:
                    assert hci_cpu in label


class TestSection5PolicyEncodings:
    """S5: fixed-priority and dynamic-priority scheduling encodings.

    The pinned separation case: C=(2,3), T=(4,6), U=1.0 -- RM misses a
    deadline, EDF and LLF schedule it."""

    @pytest.fixture
    def separation_tasks(self):
        return TaskSet(
            [PeriodicTask("a", 2, 4), PeriodicTask("b", 3, 6)]
        )

    def test_rm_unschedulable(self, separation_tasks):
        instance = task_set_to_system(
            separation_tasks, scheduling=SchedulingProtocol.RATE_MONOTONIC
        )
        assert analyze_model(instance).verdict is Verdict.UNSCHEDULABLE

    def test_edf_schedulable(self, separation_tasks):
        instance = task_set_to_system(
            separation_tasks,
            scheduling=SchedulingProtocol.EARLIEST_DEADLINE_FIRST,
        )
        assert analyze_model(instance).verdict is Verdict.SCHEDULABLE

    def test_llf_schedulable(self, separation_tasks):
        instance = task_set_to_system(
            separation_tasks,
            scheduling=SchedulingProtocol.LEAST_LAXITY_FIRST,
        )
        assert analyze_model(instance).verdict is Verdict.SCHEDULABLE

    def test_matches_classical_theory(self, separation_tasks):
        assert not rta_schedulable(separation_tasks, ordering="rate")
        assert edf_schedulable(separation_tasks)


class TestSection5DeadlockTheorem:
    """S5: 'the resulting ACSR model is deadlock-free if and only if
    every task meets its deadline.'  Spot-checked here; the property
    tests in test_property_agreement.py randomize it."""

    @pytest.mark.parametrize(
        "wcets,periods,expected",
        [
            ((1, 2), (4, 8), True),     # U = 0.5
            ((2, 4), (4, 8), True),     # U = 1.0 harmonic: RM schedules
            ((3, 3), (4, 8), False),    # U = 1.125
            ((2, 3), (4, 6), False),    # U = 1.0 non-harmonic under RM
        ],
    )
    def test_verdict_equals_rta(self, wcets, periods, expected):
        tasks = TaskSet(
            [
                PeriodicTask(f"t{i}", c, p)
                for i, (c, p) in enumerate(zip(wcets, periods))
            ]
        )
        assert rta_schedulable(tasks, ordering="rate") == expected
        instance = task_set_to_system(tasks)
        result = analyze_model(instance)
        assert result.schedulable == expected


class TestSection41QuantumPrecision:
    """S4.1: 'analysis will overapproximate timing behavior ... precision
    can be improved by making scheduling quanta smaller, which tends to
    increase the size of the state space.'"""

    def test_coarse_quantum_false_negative(self):
        """A schedulable set rejected at a coarse quantum and accepted at
        the exact one."""
        tasks = TaskSet([PeriodicTask("a", 4, 8), PeriodicTask("b", 4, 8)])
        instance = task_set_to_system(tasks)
        exact = analyze_model(instance, quantum=ms(1))
        assert exact.verdict is Verdict.SCHEDULABLE
        coarse = analyze_model(instance, quantum=ms(3))
        # Quantum 3 ms: each wcet rounds up to 2 quanta (6 ms) while the
        # deadline floors to 2 quanta: combined demand 4 > 2 -> spurious
        # violation.
        assert coarse.verdict is Verdict.UNSCHEDULABLE

    def test_finer_quantum_grows_state_space(self):
        instance = cruise_control()
        sizes = {}
        for quantum in (ms(10), ms(5), ms(2), ms(1)):
            result = analyze_model(
                instance, quantum=quantum, max_states=2_000_000,
                stop_at_first_deadlock=False,
            )
            sizes[quantum.value] = result.num_states
        # The paper claims a tendency, not strict monotonicity: the
        # finest quantum costs clearly more than the coarsest.
        assert sizes[1] > sizes[2] > sizes[10]

    def test_never_overapproximates_in_reverse(self):
        """A genuinely unschedulable set stays unschedulable at any
        quantum (rounding only adds demand / removes supply)."""
        tasks = TaskSet([PeriodicTask("a", 3, 4), PeriodicTask("b", 3, 8)])
        instance = task_set_to_system(tasks)
        for quantum in (ms(1), ms(2)):
            result = analyze_model(instance, quantum=quantum)
            assert result.verdict is Verdict.UNSCHEDULABLE


class TestSection5FailingScenario:
    """S5/S7: failing scenarios are raised to AADL terms and presented in
    time-line form."""

    def test_overloaded_cruise_control_names_aadl_elements(self):
        result = analyze_model(cruise_control(overloaded=True))
        assert result.verdict is Verdict.UNSCHEDULABLE
        scenario = result.scenario
        elements = {e.element for e in scenario.events}
        # Every named element is a genuine AADL qualified name.
        instance_names = {
            t.qualified_name for t in cruise_control(overloaded=True).threads()
        }
        assert elements <= instance_names
        assert scenario.misses and all(
            m in instance_names for m in scenario.misses
        )

    def test_timeline_covers_all_threads(self):
        result = analyze_model(cruise_control(overloaded=True))
        assert set(result.scenario.activity) == {
            t.qualified_name
            for t in cruise_control(overloaded=True).threads()
        }
