"""User-facing analysis front end.

``analyze_model`` runs the full pipeline of the paper's tool: validate
the bound AADL instance, translate it to ACSR (Algorithm 1), explore the
prioritized state space VERSA-style, and -- when a deadlock is found --
raise the counterexample trace back to AADL terms as a failing scenario
with a per-thread timeline.
"""

from repro.analysis.schedulability import (
    AnalysisResult,
    Verdict,
    analyze_model,
)
from repro.analysis.raising import AadlScenario, ScenarioEvent, raise_trace
from repro.analysis.timeline import render_timeline
from repro.analysis.latency import FlowSpec, check_latency
from repro.analysis.modes import ModalAnalysisResult, analyze_all_modes
from repro.analysis.report import ComparisonRow, compare_with_baselines
from repro.analysis.request import AnalysisRequest, analyze

__all__ = [
    "AadlScenario",
    "AnalysisRequest",
    "AnalysisResult",
    "ComparisonRow",
    "FlowSpec",
    "ModalAnalysisResult",
    "ScenarioEvent",
    "Verdict",
    "analyze",
    "analyze_all_modes",
    "analyze_model",
    "check_latency",
    "compare_with_baselines",
    "raise_trace",
    "render_timeline",
]
