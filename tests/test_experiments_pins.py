"""Pins for the headline numbers recorded in EXPERIMENTS.md.

These are not behavioural requirements -- exact state counts depend on
the encoding -- but EXPERIMENTS.md quotes them, so a drift here means the
documentation needs regenerating (run ``pytest benchmarks/ -s``) and the
encoding change deserves a second look.  The quoted counts are those of
unreduced exploration, so every pin spells out ``reduction="none"``.
"""

import pytest

from repro.aadl.gallery import (
    cruise_control,
    priority_inversion_trio,
    two_periodic_threads,
)
from repro.analysis import Verdict, analyze_model
from repro.translate import TranslationOptions, translate
from repro.engine import Budget, explore


class TestFig1Pins:
    def test_nominal_state_count(self):
        result = analyze_model(
            cruise_control(), stop_at_first_deadlock=False, reduction="none"
        )
        assert result.verdict is Verdict.SCHEDULABLE
        assert result.num_states == 119

    def test_quantum_sweep_counts(self):
        from repro.aadl.properties import ms

        counts = {}
        for quantum in (10, 5, 2, 1):
            result = analyze_model(
                cruise_control(),
                quantum=ms(quantum),
                stop_at_first_deadlock=False,
                reduction="none",
            )
            counts[quantum] = result.num_states
        assert counts == {10: 119, 5: 111, 2: 141, 1: 191}


class TestAblationPins:
    def test_unprioritized_cruise_control(self):
        translation = translate(cruise_control())
        result = explore(
            translation.system,
            prioritized=False,
            budget=Budget(max_states=100_000),
        )
        assert result.num_states == 17_175
        assert result.num_transitions == 44_404


class TestScenarioPins:
    def test_two_thread_miss_depth(self):
        result = analyze_model(
            two_periodic_threads(schedulable=False), reduction="none"
        )
        assert result.scenario.duration == 8
        assert result.num_states == 16

    def test_inversion_states(self):
        plain = analyze_model(priority_inversion_trio(), reduction="none")
        assert plain.num_states == 30
        ceiling = analyze_model(
            priority_inversion_trio(),
            options=TranslationOptions(use_priority_ceiling=True),
            reduction="none",
        )
        assert ceiling.verdict is Verdict.SCHEDULABLE
