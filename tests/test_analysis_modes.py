"""Tests of per-mode analysis of multi-modal models."""

import pytest

from repro.errors import AnalysisError
from repro.aadl import parse_model, instantiate
from repro.analysis import Verdict, analyze_all_modes
from repro.analysis.modes import ModalAnalysisResult

MODAL = """
processor CPU
  properties
    Scheduling_Protocol => RMS;
end CPU;

thread Light
  properties
    Dispatch_Protocol => Periodic;
    Period => 8 ms;
    Compute_Execution_Time => 2 ms .. 2 ms;
    Compute_Deadline => 8 ms;
end Light;

thread Heavy
  properties
    Dispatch_Protocol => Periodic;
    Period => 4 ms;
    Compute_Execution_Time => 3 ms .. 3 ms;
    Compute_Deadline => 4 ms;
end Heavy;

system S end S;

system implementation S.impl
  subcomponents
    base: thread Light;
    extra_nominal: thread Light in modes (nominal);
    extra_recovery: thread Heavy in modes (recovery);
    cpu: processor CPU;
  modes
    nominal: initial mode;
    recovery: mode;
  properties
    Actual_Processor_Binding => reference(cpu) applies to base;
    Actual_Processor_Binding => reference(cpu) applies to extra_nominal;
    Actual_Processor_Binding => reference(cpu) applies to extra_recovery;
end S.impl;
"""


class TestModeOverrides:
    def test_default_is_initial_mode(self):
        inst = instantiate(parse_model(MODAL), "S.impl")
        assert set(inst.children) == {"base", "extra_nominal", "cpu"}
        assert inst.active_modes == {"S": "nominal"}

    def test_override_activates_other_mode(self):
        inst = instantiate(
            parse_model(MODAL), "S.impl",
            mode_overrides={"S.impl": "recovery"},
        )
        assert set(inst.children) == {"base", "extra_recovery", "cpu"}
        assert inst.active_modes == {"S": "recovery"}

    def test_unknown_mode_rejected(self):
        from repro.errors import AadlInstantiationError

        with pytest.raises(AadlInstantiationError):
            instantiate(
                parse_model(MODAL), "S.impl",
                mode_overrides={"S.impl": "ghost"},
            )

    def test_override_on_modeless_impl_rejected(self):
        from repro.errors import AadlInstantiationError
        from repro.aadl.gallery import cruise_control_text

        with pytest.raises(AadlInstantiationError):
            instantiate(
                parse_model(cruise_control_text()),
                "CruiseControl.impl",
                mode_overrides={"CruiseControl.impl": "nominal"},
            )


class TestAnalyzeAllModes:
    def test_per_mode_verdicts(self):
        model = parse_model(MODAL)
        result = analyze_all_modes(model, "S.impl")
        assert isinstance(result, ModalAnalysisResult)
        # nominal: two Light threads (U = 0.5): fine.
        assert result.per_mode["nominal"].verdict is Verdict.SCHEDULABLE
        # recovery: Light + Heavy (U = 0.25 + 0.75 = 1.0, harmonic): also
        # schedulable under RM.
        assert result.per_mode["recovery"].verdict is Verdict.SCHEDULABLE
        assert result.verdict is Verdict.SCHEDULABLE

    def test_failing_mode_detected(self):
        source = MODAL.replace(
            "Compute_Execution_Time => 3 ms .. 3 ms;",
            "Compute_Execution_Time => 4 ms .. 4 ms;",
        )
        model = parse_model(source)
        result = analyze_all_modes(model, "S.impl")
        assert result.per_mode["nominal"].verdict is Verdict.SCHEDULABLE
        assert result.per_mode["recovery"].verdict is Verdict.UNSCHEDULABLE
        assert result.verdict is Verdict.UNSCHEDULABLE
        assert result.failing_modes == ["recovery"]
        assert "recovery" in result.format()

    def test_modeless_root_rejected(self):
        from repro.aadl.gallery import cruise_control_text

        model = parse_model(cruise_control_text())
        with pytest.raises(AnalysisError):
            analyze_all_modes(model, "CruiseControl.impl")

    def test_unreachable_mode_is_skipped(self):
        """A mode no transition path reaches from the initial mode
        never occurs at runtime; its (unschedulable) workload must not
        turn the verdict."""
        from repro.aadl.gallery import fault_recovery_text

        model = parse_model(fault_recovery_text())
        result = analyze_all_modes(model, "Plant.impl")
        assert "maintenance" not in result.per_mode
        assert result.unreachable_modes == ("maintenance",)
        assert result.verdict is Verdict.SCHEDULABLE
        assert "unreachable from the initial mode" in result.format()

    def test_pooled_modes_cache_on_resubmission(self, tmp_path):
        model = parse_model(MODAL)
        cache = str(tmp_path / "cache")
        first = analyze_all_modes(
            model, "S.impl", workers=1, cache=cache
        )
        assert not any(o.cached for o in first.per_mode.values())
        second = analyze_all_modes(
            model, "S.impl", workers=1, cache=cache
        )
        assert all(o.cached for o in second.per_mode.values())
        assert second.verdict is first.verdict
        assert "[cached]" in second.format()

    def test_sub_microsecond_quantum_is_kept_by_every_worker_count(self):
        """Inline and pooled per-mode jobs carry the same picosecond
        quantum: none of them rounds 2 000 500 ns to whole microseconds."""
        from repro.aadl.gallery import fault_recovery_text
        from repro.aadl.properties import TimeValue

        model = parse_model(fault_recovery_text())
        outcomes = [
            {
                mode: (outcome.verdict, outcome.num_states)
                for mode, outcome in analyze_all_modes(
                    model,
                    "Plant.impl",
                    quantum=TimeValue(2_000_500, "ns"),
                    workers=workers,
                ).per_mode.items()
            }
            for workers in (None, 1, 2)
        ]
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert outcomes[0]["error"] == (Verdict.UNSCHEDULABLE, 17)


class TestVerdictDominance:
    """UNSCHEDULABLE > UNKNOWN > SCHEDULABLE across the per-mode map."""

    @staticmethod
    def _result(*verdicts):
        from repro.analysis.modes import ModeOutcome

        return ModalAnalysisResult(
            {
                f"m{i}": ModeOutcome(mode=f"m{i}", verdict=v)
                for i, v in enumerate(verdicts)
            }
        )

    def test_all_schedulable(self):
        result = self._result(Verdict.SCHEDULABLE, Verdict.SCHEDULABLE)
        assert result.verdict is Verdict.SCHEDULABLE

    def test_unknown_dominates_schedulable(self):
        result = self._result(Verdict.SCHEDULABLE, Verdict.UNKNOWN)
        assert result.verdict is Verdict.UNKNOWN

    def test_unschedulable_dominates_unknown(self):
        result = self._result(
            Verdict.UNKNOWN, Verdict.UNSCHEDULABLE, Verdict.SCHEDULABLE
        )
        assert result.verdict is Verdict.UNSCHEDULABLE
        assert result.failing_modes == ["m1"]

    def test_empty_map_rejected(self):
        with pytest.raises(AnalysisError):
            ModalAnalysisResult({})
