"""Observability substrate: structured tracing for the whole pipeline.

``repro.obs`` makes the multi-stage workflow (AADL parse ->
instantiate -> translate -> engine exploration -> raise) observable
end-to-end: a lightweight span tracer with monotonic timing, nested
span ids and per-span counters (:mod:`repro.obs.tracer`), JSONL trace
artifacts under ``artifacts/traces/`` with a validated schema
(:mod:`repro.obs.schema`), in-process summary tables
(:mod:`repro.obs.summary`), and a bridge that turns engine Observer
events into span annotations without a second callback path
(:mod:`repro.obs.bridge`).

Surfaced through the CLI as ``--trace [PATH]`` / ``--profile`` on
``analyze``, ``acsr``, the ``oracle`` campaigns and ``batch run``, plus
``repro trace summary PATH``.  See ``docs/observability.md``.
"""

from repro.obs.bridge import SpanObserver
from repro.obs.schema import (
    COMPOSE_STAGES,
    PIPELINE_STAGES,
    PORTFOLIO_STAGES,
    REDUCTION_STAGES,
    SERVE_STAGES,
    TraceSchemaError,
    missing_pipeline_stages,
    validate_file,
    validate_records,
)
from repro.obs.sse import format_event, parse_stream
from repro.obs.summary import TraceSummary, summarize, summarize_file
from repro.obs.tracer import (
    DEFAULT_TRACES_DIR,
    NULL_SPAN,
    NULL_TRACER,
    SCHEMA_VERSION,
    NullTracer,
    Span,
    Tracer,
    activate,
    current_tracer,
    install_tracer,
    read_trace,
)

__all__ = [
    "DEFAULT_TRACES_DIR",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "COMPOSE_STAGES",
    "PIPELINE_STAGES",
    "PORTFOLIO_STAGES",
    "REDUCTION_STAGES",
    "SCHEMA_VERSION",
    "SERVE_STAGES",
    "Span",
    "SpanObserver",
    "TraceSchemaError",
    "TraceSummary",
    "Tracer",
    "activate",
    "current_tracer",
    "format_event",
    "install_tracer",
    "missing_pipeline_stages",
    "parse_stream",
    "read_trace",
    "summarize",
    "summarize_file",
    "validate_file",
    "validate_records",
]
