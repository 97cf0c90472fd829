"""Trace-schema validation: the contract of ``artifacts/traces/*.jsonl``.

A trace file is JSON Lines: the first record is a ``meta`` header
carrying the schema version, every following record is a ``span``.  The
CI smoke job and the tests validate emitted traces against this module,
so the schema cannot drift silently; external tooling can rely on it.

Span record layout (``type == "span"``)::

    span_id    str   unique within the file ("s1", "w123.s4", ...)
    parent_id  str?  enclosing span's id (None for roots)
    name       str   stage name, dot-namespaced ("aadl.parse", ...)
    start      float monotonic-clock start (seconds; same epoch only
                     within one process's records)
    elapsed    float duration in seconds (>= 0)
    status     str   "ok" or "error"
    worker     str?  worker id for spans recorded in a pool worker
    attrs      obj?  descriptive key/values
    counters   obj?  accumulated integer counters

Meta record layout (``type == "meta"``)::

    schema_version  int   == SCHEMA_VERSION
    clock           str   "monotonic"
    worker          str?  set in worker-process trace files
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from repro.errors import ReproError
from repro.obs.tracer import SCHEMA_VERSION, read_trace

#: The span names every single-model ``analyze`` pipeline run must
#: produce, one per stage -- the CI smoke gate asserts exactly this.
PIPELINE_STAGES = (
    "aadl.parse",
    "aadl.instantiate",
    "translate",
    "engine.explore",
)

#: The span names a compositional (``analyze --compose``) run adds on
#: top of :data:`PIPELINE_STAGES`: one ``compose.partition`` while the
#: coupling graph is built, one ``compose.island`` per analyzed island
#: (worker-side), and one ``compose.combine`` for verdict combination.
COMPOSE_STAGES = (
    "compose.partition",
    "compose.island",
    "compose.combine",
)

#: The span names a portfolio (``analyze --portfolio``) run may add:
#: one ``portfolio.tier.<name>`` per analytic tier consulted (the
#: suffix is the tier's name, e.g. ``portfolio.tier.rta``) and one
#: ``portfolio.escalate`` wrapping the exhaustive exploration when no
#: tier decides.  Prefixes, not exact names: the tier set is
#: configurable.
PORTFOLIO_STAGES = (
    "portfolio.tier.",
    "portfolio.escalate",
)

#: The span names a served analysis (:mod:`repro.serve`) adds: one
#: ``serve.job`` per executed request, recorded in the worker and
#: wrapping the ordinary :data:`PIPELINE_STAGES` spans; its records are
#: also what the SSE progress stream replays to the client.
SERVE_STAGES = ("serve.job",)

#: The span names a hierarchical (``analyze --hier``) run adds: one
#: ``hier.derive`` while the per-partition BDR interfaces are derived
#: from the virtual-processor server parameters, one ``hier.check`` per
#: partition checked analytically against its interface, and one
#: ``hier.flatten`` per partition that escalates to the supply-aware
#: flattened simulation.
HIER_STAGES = (
    "hier.derive",
    "hier.check",
    "hier.flatten",
)

#: The span names a transition-aware modal (``analyze --modal``) run
#: adds: one ``modal.automaton`` while the mode automaton is built and
#: checked (reachability, trigger legality, per-edge deltas), one
#: ``modal.steady`` per reachable mode analyzed as a steady system, one
#: ``modal.transition`` per reachable transition checked under the
#: mode-change protocol, and one ``modal.transient`` per processor of
#: an asynchronous transition, around its whole transient check (the
#: analytic union test, then any switch-phasing simulation).  Its
#: ``escalated`` attribute says whether the simulation ran, and the
#: kernel's ``sim.*`` counters land on it.
MODAL_STAGES = (
    "modal.automaton",
    "modal.steady",
    "modal.transition",
    "modal.transient",
)

#: The span names a reduced (``analyze --reduce``) run adds when the
#: corresponding pass actually fired: ``reduce.canonicalize`` under
#: symmetry (counters ``states_canonicalized`` / ``orbits_merged``) and
#: ``reduce.ample`` under partial-order reduction (counter
#: ``por_pruned``).  Emitted once per exploration, after the search,
#: from the engine's accumulated counters; absent when the pass never
#: changed anything, so their presence is itself a signal.
REDUCTION_STAGES = (
    "reduce.canonicalize",
    "reduce.ample",
)


class TraceSchemaError(ReproError):
    """A trace record violates the schema contract."""


def validate_record(record: Dict[str, Any], *, line: int = 0) -> None:
    """Validate one parsed JSONL record; raises :class:`TraceSchemaError`."""
    where = f"line {line}: " if line else ""
    if not isinstance(record, dict):
        raise TraceSchemaError(f"{where}record is not an object")
    kind = record.get("type")
    if kind == "meta":
        version = record.get("schema_version")
        if version != SCHEMA_VERSION:
            raise TraceSchemaError(
                f"{where}schema_version {version!r} != {SCHEMA_VERSION}"
            )
        return
    if kind != "span":
        raise TraceSchemaError(f"{where}unknown record type {kind!r}")
    for field, types in (
        ("span_id", str),
        ("name", str),
        ("start", (int, float)),
        ("elapsed", (int, float)),
        ("status", str),
    ):
        if not isinstance(record.get(field), types):
            raise TraceSchemaError(
                f"{where}span field {field!r} missing or mistyped "
                f"(got {record.get(field)!r})"
            )
    if record["elapsed"] < 0:
        raise TraceSchemaError(f"{where}negative elapsed {record['elapsed']}")
    if record["status"] not in ("ok", "error"):
        raise TraceSchemaError(f"{where}bad status {record['status']!r}")
    parent = record.get("parent_id")
    if parent is not None and not isinstance(parent, str):
        raise TraceSchemaError(f"{where}parent_id must be a string or null")
    for field in ("attrs", "counters"):
        value = record.get(field)
        if value is not None and not isinstance(value, dict):
            raise TraceSchemaError(f"{where}{field} must be an object")


def validate_records(records: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Validate a whole trace: per-record checks plus file-level
    invariants (exactly one leading meta, unique span ids, resolvable
    parents).  Returns the records for chaining."""
    records = list(records)
    if not records:
        raise TraceSchemaError("empty trace")
    for line, record in enumerate(records, start=1):
        validate_record(record, line=line)
    if records[0].get("type") != "meta":
        raise TraceSchemaError("first record must be the meta header")
    if sum(1 for r in records if r.get("type") == "meta") != 1:
        raise TraceSchemaError("expected exactly one meta record")
    seen: Dict[str, None] = {}
    for record in records:
        if record.get("type") != "span":
            continue
        span_id = record["span_id"]
        if span_id in seen:
            raise TraceSchemaError(f"duplicate span_id {span_id!r}")
        seen[span_id] = None
    for record in records:
        parent = record.get("parent_id")
        if record.get("type") == "span" and parent is not None:
            if parent not in seen:
                raise TraceSchemaError(
                    f"span {record['span_id']!r} references unknown "
                    f"parent {parent!r}"
                )
    return records


def validate_file(path: str) -> List[Dict[str, Any]]:
    """Read and validate a JSONL trace file; returns its records."""
    return validate_records(read_trace(path))


def missing_pipeline_stages(
    records: Iterable[Dict[str, Any]],
) -> List[str]:
    """Which of :data:`PIPELINE_STAGES` have no span in the trace
    (empty list == full stage coverage)."""
    present = {
        record["name"]
        for record in records
        if record.get("type") == "span"
    }
    return [stage for stage in PIPELINE_STAGES if stage not in present]
