"""Batch jobs: one self-contained, picklable analysis request each.

A job is the unit the :mod:`repro.batch` pool ships to a worker
process, so it must be (a) serializable as a plain dict of JSON types
-- no live AADL/ACSR objects cross the process boundary -- and (b)
deterministic: everything the analysis depends on (model text or task
list, budget, quantum, fault name, seeds) is embedded in the job, never
drawn from ambient state.  Three kinds exist:

* ``analysis`` -- an :class:`~repro.analysis.request.AnalysisRequest`
  (its canonical dict is the payload), executed by the
  :func:`repro.analysis.request.analyze` planner.  Every layer --
  portfolio, reduction, pinned or all modes, the modal analysis,
  islands, compose and hier -- is a field of the request, so per-mode
  and per-island fan-outs are ordinary ``analysis`` jobs.
* ``case`` -- a serialized :class:`~repro.oracle.case.OracleCase`;
  executed with :func:`repro.oracle.verdicts.evaluate_case` (pipeline
  + classical oracles + agreement classification).
* ``relation`` -- one seed of an oracle campaign (relation name, seed,
  parameters); executed with the relation's ``evaluate``, which is how
  :func:`repro.oracle.relations.run_relation` rides the pool.  Its
  parameters may name local directories (bundles, verdict cache), so
  :mod:`repro.serve` refuses the kind.

An ``analysis`` job may also hold the parsed model whose printed text
its source is (the ``model`` slot, in memory only, never serialized):
inline execution then uses it instead of re-parsing the source, and
the cache key reads the source as is instead of printing it again.

All kinds expose :meth:`AnalysisJob.canonical_model_text` and
:meth:`AnalysisJob.key_options`, the two halves of the persistent
verdict-cache key (see :mod:`repro.batch.cache`).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

from repro.analysis.request import AnalysisRequest, analyze
from repro.errors import BatchError, ReproError

JOB_KINDS = ("analysis", "case", "relation")

#: Crash-injection faults for harness self-tests -- the batch analogue
#: of :mod:`repro.oracle.faults` and ``REDUCTION_FAULTS``.  A job whose
#: options carry ``batch_fault`` triggers the named failure inside the
#: worker *before* any analysis runs, which is how the tests (and the
#: serve smoke) exercise the pool's crash paths deterministically:
#:
#: * ``raise`` -- throw a non-:class:`ReproError` (a worker bug);
#: * ``sigkill`` -- hard-kill the worker process mid-job (the pool must
#:   survive and report the job as lost);
#: * ``block:<path>`` -- park the worker until ``<path>`` exists (a
#:   deterministic "slow job" for backpressure/coalescing tests).
#:
#: Real workloads never set the option; it participates in the cache
#: key like any other option, so faulted runs cannot poison real ones.
BATCH_FAULTS = ("raise", "sigkill", "block")


def _apply_batch_fault(spec: str) -> None:
    import os
    import time

    if spec == "raise":
        raise RuntimeError("injected batch fault: unexpected worker exception")
    if spec == "sigkill":
        import signal

        os.kill(os.getpid(), signal.SIGKILL)
    if spec.startswith("block:"):
        path = spec[len("block:"):]
        deadline = time.monotonic() + 30.0
        while not os.path.exists(path):
            if time.monotonic() > deadline:
                raise BatchError(f"batch fault block:{path} timed out")
            time.sleep(0.01)
        return
    raise BatchError(
        f"unknown batch fault {spec!r}; choose from {list(BATCH_FAULTS)}"
    )


class AnalysisJob:
    """One analysis request.

    Attributes:
        job_id: caller-facing label (report rows, progress lines).
        kind: ``"analysis"``, ``"case"`` or ``"relation"``.
        payload: the canonical request dict (``analysis``), the
            serialized oracle case (``case``) or the relation name,
            seed and parameters (``relation``), JSON types only.
        options: further cache-key material (JSON types only): the
            ``batch_fault`` harness hook, and the budget and fault of a
            ``case`` job.
        request: the :class:`AnalysisRequest` of an ``analysis`` job.
        model: the parsed model whose :func:`~repro.aadl.format_model`
            text ``request.source`` is, when the caller has it (in
            memory only: never serialized, never shipped to a worker).
    """

    __slots__ = ("job_id", "kind", "payload", "options", "request", "model")

    def __init__(
        self,
        *,
        job_id: str,
        kind: str,
        payload: Dict[str, Any],
        options: Optional[Dict[str, Any]] = None,
        model=None,
    ) -> None:
        if kind not in JOB_KINDS:
            raise BatchError(
                f"unknown job kind {kind!r}; choose from {list(JOB_KINDS)}"
            )
        self.job_id = job_id
        self.kind = kind
        self.request = None
        if kind == "analysis":
            self.request = AnalysisRequest.from_dict(payload)
            payload = self.request.to_dict()
        self.payload = dict(payload)
        self.options = dict(options or {})
        self.model = model

    # -- construction ---------------------------------------------------

    @classmethod
    def from_request(
        cls,
        request: AnalysisRequest,
        *,
        job_id: Optional[str] = None,
        model=None,
    ) -> "AnalysisJob":
        """An ``analysis`` job; ``model`` is the parsed model whose
        printed text ``request.source`` is, if the caller has it (a
        fan-out's child)."""
        return cls(
            job_id=job_id or request.root or "aadl-model",
            kind="analysis",
            payload=request.to_dict(),
            model=model,
        )

    @classmethod
    def from_case(
        cls,
        case,
        *,
        job_id: Optional[str] = None,
        max_states: int = 300_000,
        fault: Optional[str] = None,
    ) -> "AnalysisJob":
        """A differential-oracle evaluation of an
        :class:`~repro.oracle.case.OracleCase` (or its dict form)."""
        data = case if isinstance(case, dict) else case.to_dict()
        return cls(
            job_id=job_id or data.get("case_id", "case"),
            kind="case",
            payload={"case": data},
            options={"max_states": max_states, "fault": fault},
        )

    @classmethod
    def from_relation(
        cls, name: str, seed: int, params: Dict[str, Any]
    ) -> "AnalysisJob":
        """One seed of the oracle relation ``name``."""
        return cls(
            job_id=f"{name} seed {seed}",
            kind="relation",
            payload={"relation": name, "seed": seed, "params": dict(params)},
        )

    @classmethod
    def from_file(cls, path: str, **fields: Any) -> "AnalysisJob":
        """Build a job from a file path.

        ``*.aadl`` becomes an ``analysis`` job over
        ``AnalysisRequest(source=<text>, **fields)``.  ``*.json`` is read
        as a serialized oracle case (the :meth:`OracleCase.to_dict`
        layout, also the ``case`` field of a repro bundle), run under
        ``fields["max_states"]`` when given, or a ``repro.serve`` result
        bundle, whose ``job`` field replays verbatim.
        """
        import json
        import os

        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        name = os.path.basename(path)
        if not path.endswith(".json"):
            return cls.from_request(
                AnalysisRequest(source=text, **fields), job_id=name
            )
        data = json.loads(text)
        if "job" in data and "kind" not in data:
            # A repro.serve bundle: replay the embedded job as-is.
            return cls.from_dict(data["job"])
        if "case" in data and "tasks" not in data:
            data = data["case"]  # accept a whole repro bundle
        budget = {}
        if "max_states" in fields:
            budget["max_states"] = fields["max_states"]
        return cls.from_case(data, job_id=name, **budget)

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "payload": dict(self.payload),
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AnalysisJob":
        missing = {"job_id", "kind", "payload"} - set(data)
        if missing:
            raise BatchError(f"batch job is missing fields: {sorted(missing)}")
        return cls(
            job_id=data["job_id"],
            kind=data["kind"],
            payload=data["payload"],
            options=data.get("options", {}),
        )

    # -- cache-key material ---------------------------------------------

    def canonical_model_text(self) -> str:
        """The canonical AADL text of the model under test.

        Printing the parsed source (``analysis`` jobs; a job holding
        the in-memory model has that text as its source already) or
        regenerating it from the task list (``case`` jobs) erases
        formatting, comments and provenance, so two inputs that denote
        the same model share a cache key and any semantic change breaks
        it.  The inferred root is resolved here, making the key
        independent of whether the caller spelled it out.
        """
        if self.kind == "relation":
            return ""  # the model is drawn from the seed inside the job
        if self.kind == "case":
            from repro.oracle.case import OracleCase

            return OracleCase.from_dict(self.payload["case"]).aadl_text()
        from repro.aadl import format_model, infer_root, parse_model

        model, text = self.model, self.request.source
        if model is None:
            model = parse_model(text)
            text = format_model(model)
        root = self.request.root or infer_root(model)
        return f"-- root: {root}\n" + text

    def key_options(self) -> Dict[str, Any]:
        """Everything but the model that can change the verdict: the
        canonical request minus its model half (source, root) and the
        island's display label, plus :attr:`options`."""
        if self.kind == "case":
            return dict(self.options)
        if self.kind == "relation":
            return dict(self.payload)
        key = {
            name: value
            for name, value in self.payload.items()
            if name not in ("source", "root")
        }
        if "island" in key:
            key["island"] = dict(key["island"], label=None)
        key.update(self.options)
        return key

    def __repr__(self) -> str:
        return f"AnalysisJob({self.job_id!r}, kind={self.kind})"


@dataclasses.dataclass
class JobResult:
    """Outcome of one executed (or cache-served) job.

    Plain JSON types throughout: this is both the pool's return channel
    and the verdict-cache storage format.  Two fields stay out of
    :meth:`to_dict`: ``deduped``, this batch's provenance mark, and
    ``analysis``, the layer's own result object of a job executed in
    this process (None after a pool, cache or dedupe round trip).
    """

    job_id: str
    kind: str
    verdict: str
    states: int = 0
    elapsed: float = 0.0
    limit_hit: Optional[str] = None
    stats: Optional[Dict[str, Any]] = None
    classification: Optional[Dict[str, Any]] = None
    oracles: Optional[list] = None
    rendered: Optional[str] = None
    error: Optional[str] = None
    cached: bool = False
    #: served from an identical job earlier in the same batch (the
    #: in-process analogue of a verdict-cache hit)
    deduped: bool = False
    analysis: Any = None

    @classmethod
    def failed(cls, job: AnalysisJob, error: str) -> "JobResult":
        """The ``error`` verdict of ``job``."""
        return cls(
            job_id=job.job_id, kind=job.kind, verdict="error", error=error
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            name: getattr(self, name) for name in _STORED_FIELDS
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobResult":
        stored = {name: data[name] for name in _STORED_FIELDS if name in data}
        return cls(**{"kind": "analysis", "verdict": "error", **stored})

    def __repr__(self) -> str:
        extra = " cached" if self.cached else ""
        return f"JobResult({self.job_id!r}, {self.verdict}{extra})"


_STORED_FIELDS = tuple(
    field.name
    for field in dataclasses.fields(JobResult)
    if field.name not in ("deduped", "analysis")
)


def execute_job(job: AnalysisJob) -> JobResult:
    """Run one job to completion in the current process.

    *Any* exception is captured as a ``verdict="error"`` result rather
    than raised, so neither a malformed model (:class:`ReproError`) nor
    an unexpected worker bug can abort a whole batch -- a crash
    propagating out of a pool worker would otherwise kill every sibling
    job.  Library errors keep their message; unexpected exceptions
    additionally preserve the full traceback string in ``error`` so the
    bug stays diagnosable from the report.  The report maps both to the
    usage-error exit code.
    """
    from repro.obs.tracer import current_tracer

    with current_tracer().span(
        "batch.job", job_id=job.job_id, kind=job.kind
    ) as span:
        try:
            fault = job.options.get("batch_fault")
            if fault:
                _apply_batch_fault(fault)
            if job.kind == "case":
                result = _execute_case(job)
            elif job.kind == "relation":
                result = _execute_relation(job)
            else:
                # Nested fan-outs (per mode, per island) run inline:
                # a job may already be running inside a pool worker.
                result = _job_result(
                    job, analyze(job.request, model=job.model, workers=1)
                )
        except ReproError as exc:
            span.set(verdict="error")
            return JobResult.failed(job, str(exc))
        except Exception as exc:
            import traceback

            span.set(verdict="error")
            return JobResult.failed(
                job,
                f"unexpected {type(exc).__name__}: {exc}\n"
                + traceback.format_exc(),
            )
        span.set(verdict=result.verdict)
        return result


def _job_result(job: AnalysisJob, analysis) -> JobResult:
    """The JobResult of any layer's result object (verdict, states,
    format and engine stats, plus elapsed time where the layer keeps
    it)."""
    stats = analysis.stats
    return JobResult(
        job_id=job.job_id,
        kind=job.kind,
        verdict=analysis.verdict.value,
        states=analysis.num_states,
        elapsed=getattr(analysis, "elapsed", 0.0),
        limit_hit=stats.limit_hit if stats is not None else None,
        stats=stats.as_dict() if stats is not None else None,
        rendered=analysis.format(),
        analysis=analysis,
    )


def _execute_case(job: AnalysisJob) -> JobResult:
    from repro.oracle.case import OracleCase
    from repro.oracle.faults import get_fault
    from repro.oracle.verdicts import evaluate_case

    case = OracleCase.from_dict(job.payload["case"])
    fault = job.options.get("fault")
    pipeline, oracles, classification = evaluate_case(
        case,
        max_states=job.options.get("max_states", 300_000),
        fault=get_fault(fault) if fault else None,
    )
    stats = pipeline.stats
    return JobResult(
        job_id=job.job_id,
        kind=job.kind,
        verdict=pipeline.verdict.value,
        states=pipeline.num_states,
        elapsed=pipeline.elapsed,
        limit_hit=pipeline.exploration.limit_hit,
        stats=stats.as_dict() if stats is not None else None,
        classification=classification.to_dict(),
        oracles=[oracle.to_dict() for oracle in oracles],
    )


def _execute_relation(job: AnalysisJob) -> JobResult:
    from repro.oracle.relations import RELATIONS

    payload = job.payload
    outcome = RELATIONS[payload["relation"]].evaluate(
        payload["seed"], **payload["params"]
    )
    return JobResult(
        job_id=job.job_id,
        kind=job.kind,
        verdict=outcome.status.value,
        classification=outcome.to_dict(),
    )
