"""Tests of the modal subsystem: the mode automaton, the transient
machinery, and the transition-aware :func:`repro.modal.analyze_modal`."""

from pathlib import Path

import pytest

from repro.aadl import parse_model
from repro.aadl.gallery import fault_recovery, fault_recovery_text
from repro.analysis import Verdict
from repro.errors import AadlLegalityError, AnalysisError
from repro.modal import (
    MODAL_FAULTS,
    ModalResult,
    ModeAutomaton,
    analyze_modal,
    check_transition,
    simulate_transition,
    transient_union_check,
    union_task_set,
)
from repro.sched.taskmodel import PeriodicTask


def _automaton(text, impl="Plant.impl"):
    model = parse_model(text)
    return ModeAutomaton.from_implementation(
        model, model.implementation(impl)
    )


NO_TRANSITIONS = """
thread A
  properties
    Dispatch_Protocol => Periodic;
    Period => 8 ms;
    Compute_Execution_Time => 1 ms .. 1 ms;
    Compute_Deadline => 8 ms;
end A;
system S end S;
system implementation S.impl
  subcomponents
    a: thread A in modes (night);
  modes
    day: initial mode;
    night: mode;
end S.impl;
"""


class TestModeAutomaton:
    def test_reachability_from_initial(self):
        automaton = _automaton(fault_recovery_text())
        assert set(automaton.reachable_modes()) == {
            "nominal", "error", "recovery",
        }
        assert automaton.unreachable_modes() == ("maintenance",)

    def test_no_transitions_keeps_every_mode(self):
        """Transitionless modal models keep the historical reading:
        every mode is a possible externally-chosen configuration."""
        automaton = _automaton(NO_TRANSITIONS, "S.impl")
        assert set(automaton.reachable_modes()) == {"day", "night"}
        assert automaton.unreachable_modes() == ()

    def test_edge_deltas(self):
        automaton = _automaton(fault_recovery_text())
        by_label = {e.label: e for e in automaton.edges}
        t0 = by_label["nominal -[monitor.fault]-> error"]
        # filter runs only in nominal, alarm only in error.
        assert t0.activated == ("alarm",)
        assert t0.deactivated == ("filter",)
        t2 = by_label["recovery -[monitor.done]-> nominal"]
        assert t2.activated == ("filter",)
        assert t2.deactivated == ("recover",)

    def test_reachable_edges_exclude_unreachable_sources(self):
        text = fault_recovery_text().replace(
            "t2: recovery -[monitor.done]-> nominal;",
            "t2: recovery -[monitor.done]-> nominal;\n"
            "    t3: maintenance -[monitor.done]-> nominal;",
        )
        automaton = _automaton(text)
        assert len(automaton.edges) == 4
        labels = {e.label for e in automaton.reachable_edges()}
        assert "maintenance -[monitor.done]-> nominal" not in labels

    def test_bad_trigger_is_a_violation(self):
        text = fault_recovery_text().replace("monitor.fault", "monitor.ghost")
        automaton = _automaton(text)
        assert any("ghost" in v for v in automaton.violations)


class TestUnionTaskSet:
    def test_disjoint_union_keeps_both_sides(self):
        old = [PeriodicTask("a", wcet=1, period=4)]
        new = [PeriodicTask("b", wcet=2, period=8)]
        union = union_task_set(old, new)
        assert {t.name for t in union} == {"a", "b"}

    def test_continued_task_contributes_once(self):
        task = PeriodicTask("a", wcet=1, period=4)
        union = union_task_set([task], [task])
        assert len(union) == 1

    def test_parameter_conflict_keeps_the_worst_case(self):
        old = [PeriodicTask("a", wcet=1, period=8, deadline=8)]
        new = [PeriodicTask("a", wcet=2, period=4, deadline=3)]
        merged = union_task_set(old, new)[0]
        assert merged.wcet == 2
        assert merged.period == 4
        assert merged.deadline == 3

    def test_empty_union_rejected(self):
        with pytest.raises(AnalysisError):
            union_task_set([], [])


class TestTransientUnionCheck:
    def test_schedulable_union_proves_the_transient(self):
        old = [PeriodicTask("a", wcet=1, period=4)]
        new = [PeriodicTask("b", wcet=2, period=8)]
        assert transient_union_check(old, new, ordering="rate") is True

    def test_overloaded_union_is_undecided_not_false(self):
        """A union over 100% utilization can still be transient-safe
        (the overload is never sustained), so the analytic test
        abstains rather than concluding unschedulability."""
        old = [PeriodicTask("a", wcet=3, period=4)]
        new = [PeriodicTask("b", wcet=3, period=4)]
        assert (
            transient_union_check(old, new, ordering="rate") is None
        )

    def test_no_analytic_test_abstains(self):
        old = [PeriodicTask("a", wcet=1, period=4)]
        assert transient_union_check(old, []) is None


class TestSimulateTransition:
    def test_carry_over_job_keeps_its_deadline(self):
        """An in-flight old-mode job completes under new-mode
        contention; here the new higher-rate task starves it past its
        deadline -- the case the unsound clean-restart shortcut would
        miss."""
        old = [PeriodicTask("slow", wcet=4, period=8)]
        new = [PeriodicTask("fast", wcet=3, period=4)]
        ok, detail = simulate_transition(
            old, new, switch=1, policy="rate", window=16
        )
        assert ok is False
        assert "slow" in detail

    def test_clean_switch_is_miss_free(self):
        old = [PeriodicTask("a", wcet=1, period=4)]
        new = [PeriodicTask("b", wcet=1, period=4)]
        ok, detail = simulate_transition(
            old, new, switch=4, policy="rate", window=16
        )
        assert ok is True
        assert detail is None


class TestCheckTransition:
    def test_empty_switch_is_trivially_safe(self):
        check = check_transition([], [])
        assert check.schedulable is True
        assert check.decided_by == "empty"

    def test_analytic_union_fast_path(self):
        old = [PeriodicTask("a", wcet=1, period=4)]
        new = [PeriodicTask("b", wcet=2, period=8)]
        check = check_transition(
            old, new, ordering="rate", policy="rate"
        )
        assert check.schedulable is True
        assert check.decided_by == "transient-union-rta"
        assert not check.escalated

    def test_escalation_decides_what_the_union_cannot(self):
        """Union U > 1 (analytic abstains) but every switch phasing is
        miss-free: the exhaustive simulation settles it."""
        old = [PeriodicTask("a", wcet=2, period=4)]
        new = [PeriodicTask("b", wcet=3, period=4)]
        check = check_transition(
            old, new, ordering="rate", policy="rate"
        )
        assert check.schedulable is True
        assert check.decided_by == "transient-simulation"
        assert check.escalated

    def test_transient_miss_is_found(self):
        old = [PeriodicTask("slow", wcet=4, period=8)]
        new = [PeriodicTask("fast", wcet=3, period=4)]
        check = check_transition(
            old, new, ordering="rate", policy="rate"
        )
        assert check.schedulable is False
        assert "misses" in check.detail

    def test_shrink_window_fault_hides_the_miss(self):
        """The registered defect drops carry-over and truncates the
        window -- exactly the bug the oracle campaign must catch."""
        old = [PeriodicTask("slow", wcet=4, period=8)]
        new = [PeriodicTask("fast", wcet=3, period=4)]
        honest = check_transition(
            old, new, ordering="rate", policy="rate"
        )
        faulty = check_transition(
            old, new, ordering="rate", policy="rate",
            fault="shrink-transient-window",
        )
        assert honest.schedulable is False
        assert faulty.schedulable is True

    def test_unknown_fault_rejected(self):
        with pytest.raises(AnalysisError):
            check_transition(
                [PeriodicTask("a", wcet=1, period=4)], [],
                policy="rate", fault="no-such-fault",
            )
        assert MODAL_FAULTS == ("shrink-transient-window",)

    def test_phasing_cap_yields_unknown(self):
        old = [PeriodicTask("a", wcet=4, period=7)]
        new = [PeriodicTask("b", wcet=6, period=8)]
        check = check_transition(
            old, new, ordering="rate", policy="rate", max_phasings=4
        )
        assert check.schedulable is None
        assert "phasing cap" in check.detail

    def test_window_cap_yields_unknown(self):
        old = [PeriodicTask("a", wcet=3, period=4)]
        new = [PeriodicTask("b", wcet=3, period=4)]
        check = check_transition(
            old, new, ordering="rate", policy="rate", max_window=2
        )
        assert check.schedulable is None
        assert "exceeds the cap" in check.detail

    def test_no_policy_abstains(self):
        old = [PeriodicTask("a", wcet=3, period=4)]
        new = [PeriodicTask("b", wcet=3, period=4)]
        check = check_transition(old, new)
        assert check.schedulable is None
        assert check.decided_by == "inapplicable"


class TestAnalyzeModal:
    def test_synchronous_gallery_verdict(self):
        model = parse_model(fault_recovery_text())
        result = analyze_modal(model, "Plant.impl")
        assert isinstance(result, ModalResult)
        assert result.verdict is Verdict.SCHEDULABLE
        assert len(result.transitions) == 3
        assert all(
            o.decided_by == "hyperperiod-boundary"
            for o in result.transitions
        )
        assert result.unreachable_modes == ("maintenance",)
        # maintenance (sweeper alone over-utilizes) must not count.
        assert "maintenance" not in result.steady.per_mode

    def test_asynchronous_gallery_escalates(self):
        model = parse_model(fault_recovery_text())
        result = analyze_modal(
            model, "Plant.impl", protocol="asynchronous"
        )
        assert result.verdict is Verdict.SCHEDULABLE
        counters = result.stats.counters
        assert counters["modal.transitions_checked"] == 3
        assert counters["modal.transient_escalations"] >= 1

    def test_transient_span_times_the_check(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.tracer import read_trace

        model = Path(__file__).parents[1] / "examples" / "fault_recovery.aadl"
        out = str(tmp_path / "trace.jsonl")
        argv = ["analyze", str(model), "--modal"]
        argv += ["--protocol", "asynchronous", "--trace", out]
        assert main(argv) == 0
        capsys.readouterr()
        transient = [
            record
            for record in read_trace(out)
            if record.get("name") == "modal.transient"
            and record["attrs"]["escalated"]
        ]
        assert transient
        for record in transient:
            assert record["elapsed"] > 0
            assert record["counters"]["sim.steps"] > 0

    def test_format_renders_the_transition_trail(self):
        model = parse_model(fault_recovery_text())
        text = analyze_modal(model, "Plant.impl").format()
        assert "protocol: synchronous" in text
        assert "nominal -[monitor.fault]-> error" in text
        assert "unreachable from the initial mode" in text

    def test_unknown_protocol_rejected(self):
        model = parse_model(fault_recovery_text())
        with pytest.raises(AnalysisError):
            analyze_modal(model, "Plant.impl", protocol="eventual")

    def test_modeless_root_rejected(self):
        from repro.aadl.gallery import cruise_control_text

        model = parse_model(cruise_control_text())
        with pytest.raises(AnalysisError):
            analyze_modal(model, "CruiseControl.impl")

    def test_illegal_mode_declarations_rejected(self):
        text = fault_recovery_text().replace(
            "monitor.fault", "monitor.ghost"
        )
        with pytest.raises(AadlLegalityError):
            analyze_modal(parse_model(text), "Plant.impl")

    def test_gallery_instance_starts_nominal(self):
        instance = fault_recovery()
        assert instance.active_modes == {"Plant": "nominal"}
        assert "sweeper" not in instance.children
