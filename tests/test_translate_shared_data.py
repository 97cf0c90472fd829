"""Tests of shared-data access: resources, blocking, inversion, ceiling.

Paper S4: access connections are omitted from the presentation but S5
notes that the "priority-inheritance protocol" family has ACSR encodings;
S4.1 fixes the granularity: "access to shared data is modeled as taking
the whole quantum, since only one thread can gain access to it during
the quantum."
"""

import pytest

from repro.errors import TranslationError
from repro.aadl import parse_model, instantiate
from repro.aadl.builder import SystemBuilder
from repro.aadl.gallery import priority_inversion_trio
from repro.aadl.properties import (
    DispatchProtocol,
    SchedulingProtocol,
    ms,
)
from repro.analysis import Verdict, analyze_model
from repro.translate import TranslationOptions, translate
from repro.translate.priorities import CeilingPriority


class TestAccessConnectionResolution:
    SRC = """
    processor CPU
      properties
        Scheduling_Protocol => RMS;
    end CPU;
    data State end State;
    thread Writer
      features
        st: requires data access State;
      properties
        Dispatch_Protocol => Periodic;
        Period => 8 ms;
        Compute_Execution_Time => 1 ms .. 1 ms;
        Compute_Deadline => 8 ms;
    end Writer;
    system S end S;
    system implementation S.impl
      subcomponents
        w1: thread Writer;
        w2: thread Writer;
        shared: data State;
        cpu: processor CPU;
      connections
        a1: data access shared -> w1.st;
        a2: data access w2.st -> shared;
      properties
        Actual_Processor_Binding => reference(cpu) applies to w1;
        Actual_Processor_Binding => reference(cpu) applies to w2;
    end S.impl;
    """

    def test_access_connections_resolved_both_directions(self):
        inst = instantiate(parse_model(self.SRC), "S.impl")
        assert len(inst.access_connections) == 2
        targets = {a.target.qualified_name for a in inst.access_connections}
        assert targets == {"S.shared"}

    def test_shared_data_of(self):
        inst = instantiate(parse_model(self.SRC), "S.impl")
        w1 = inst.child("w1")
        assert [d.qualified_name for d in inst.shared_data_of(w1)] == [
            "S.shared"
        ]

    def test_translated_resource_names_the_data_component(self):
        inst = instantiate(parse_model(self.SRC), "S.impl")
        result = translate(inst)
        data_resources = result.names.names_of_kind("data")
        assert list(data_resources.values()) == ["S.shared"]

    def test_classifier_fallback_without_connection(self):
        src = self.SRC.replace(
            "a1: data access shared -> w1.st;\n        "
            "a2: data access w2.st -> shared;",
            "a1: data access shared -> w1.st;",
        )
        inst = instantiate(parse_model(src), "S.impl")
        result = translate(inst)
        data_resources = set(result.names.names_of_kind("data").values())
        # w1 resolved to the component; w2 falls back to the classifier.
        assert data_resources == {"S.shared", "State"}


class TestQuantumSerialization:
    def build_pair(self, same_classifier: bool):
        b = SystemBuilder("Pair")
        cpu1 = b.processor("cpu1")
        cpu2 = b.processor("cpu2")
        t1 = b.thread(
            "t1", dispatch=DispatchProtocol.PERIODIC, period=ms(4),
            compute_time=(ms(2), ms(2)), deadline=ms(4), processor=cpu1,
        )
        t1.requires_data_access("d", classifier="Shared")
        t2 = b.thread(
            "t2", dispatch=DispatchProtocol.PERIODIC, period=ms(4),
            compute_time=(ms(2), ms(2)), deadline=ms(4), processor=cpu2,
        )
        t2.requires_data_access(
            "d", classifier="Shared" if same_classifier else "Other"
        )
        return b.instantiate()

    def test_sharers_never_compute_simultaneously(self):
        from repro.acsr.resources import Action
        from repro.engine import Budget, explore

        result = translate(self.build_pair(same_classifier=True))
        exploration = explore(
            result.system,
            budget=Budget(max_states=100_000),
            store_transitions=True,
        )
        assert exploration.completed
        for state in exploration.states():
            for label, _ in exploration.transitions_of(state):
                if isinstance(label, Action):
                    # Never both cpus in one quantum: the shared data
                    # serializes them (S4.1 whole-quantum access).
                    assert not (
                        "cpu$Pair_cpu1" in label and "cpu$Pair_cpu2" in label
                    )

    def test_independent_threads_do_compute_simultaneously(self):
        from repro.acsr.resources import Action
        from repro.engine import Budget, explore

        result = translate(self.build_pair(same_classifier=False))
        exploration = explore(
            result.system,
            budget=Budget(max_states=100_000),
            store_transitions=True,
        )
        parallel_steps = [
            label
            for state in exploration.states()
            for label, _ in exploration.transitions_of(state)
            if isinstance(label, Action)
            and "cpu$Pair_cpu1" in label
            and "cpu$Pair_cpu2" in label
        ]
        assert parallel_steps

    def test_serialized_sharers_still_schedulable_when_feasible(self):
        result = analyze_model(self.build_pair(same_classifier=True))
        # 2+2 quanta of serialized work per 4-quantum period: exactly
        # feasible.
        assert result.verdict is Verdict.SCHEDULABLE


class TestPriorityInversion:
    def test_inversion_misses_deadline_without_ceiling(self):
        result = analyze_model(priority_inversion_trio())
        assert result.verdict is Verdict.UNSCHEDULABLE
        assert result.scenario.misses == ["Inversion.high"]

    def test_ceiling_restores_schedulability(self):
        result = analyze_model(
            priority_inversion_trio(),
            options=TranslationOptions(use_priority_ceiling=True),
        )
        assert result.verdict is Verdict.SCHEDULABLE

    def test_ceiling_priority_assigned_to_sharers_only(self):
        result = translate(
            priority_inversion_trio(),
            TranslationOptions(use_priority_ceiling=True),
        )
        priorities = {
            qual.split(".")[-1]: t.priority
            for qual, t in result.threads.items()
        }
        assert isinstance(priorities["low"], CeilingPriority)
        assert priorities["low"].ceiling == 3
        # High already sits at the ceiling; medium shares nothing.
        assert not isinstance(priorities["medium"], CeilingPriority)

    def test_ceiling_requires_fixed_priorities(self):
        b = SystemBuilder("Dyn")
        cpu = b.processor(
            "cpu", scheduling=SchedulingProtocol.EARLIEST_DEADLINE_FIRST
        )
        t1 = b.thread(
            "t1", dispatch=DispatchProtocol.PERIODIC, period=ms(4),
            compute_time=(ms(1), ms(1)), deadline=ms(4), processor=cpu,
        )
        t1.requires_data_access("d", classifier="Shared")
        t2 = b.thread(
            "t2", dispatch=DispatchProtocol.PERIODIC, period=ms(8),
            compute_time=(ms(1), ms(1)), deadline=ms(8), processor=cpu,
        )
        t2.requires_data_access("d", classifier="Shared")
        with pytest.raises(TranslationError):
            translate(
                b.instantiate(),
                TranslationOptions(use_priority_ceiling=True),
            )

    def test_base_priority_wins_initial_contention(self):
        """ICPP shape: at simultaneous release nobody holds the resource
        yet, so the high-priority sharer runs first even with the ceiling
        option on."""
        from repro.acsr.resources import Action

        result = translate(
            priority_inversion_trio(),
            TranslationOptions(use_priority_ceiling=True),
        )
        system = result.system
        state = system.root
        # Drain the initial dispatch handshakes.
        while True:
            steps = system.prioritized_steps(state)
            event_steps = [
                (l, s) for l, s in steps if not isinstance(l, Action)
            ]
            if not event_steps:
                break
            state = event_steps[0][1]
        timed = [l for l, _ in system.prioritized_steps(state)]
        assert len(timed) == 1
        assert timed[0].priority_of("cpu$Inversion_cpu") == 3