"""One analysis request and the planner that runs it.

The paper asks one question -- is this AADL model schedulable? -- and
every layer built around the pipeline (mode selection, island slices,
compositional and hierarchical decomposition, the verdict portfolio,
state-space reduction) only changes *how* it is answered.
:class:`AnalysisRequest` names every such choice in one frozen record,
and :func:`analyze` runs it through the layers in one fixed order:

1. **parse** the source, unless the caller hands in the parsed model;
2. **root inference** -- the request's root, else the model's only
   system implementation;
3. **mode selection** -- ``modes="modal"`` hands the model to
   :func:`repro.modal.analyze_modal` (steady modes plus transitions),
   ``modes="all"`` to :func:`repro.analysis.modes.analyze_all_modes`,
   which fans ``replace(request, modes=None, mode=m)`` per reachable
   mode back through this planner; ``mode`` pins one steady mode.
   Everything past this step is :func:`analyze_configuration`, on the
   system instantiated once (in the pinned mode, if any);
4. **island slice** -- one processor island of a compositional run
   (:func:`repro.compose.runner.analyze_island`);
5. **decomposition** -- ``"compose"``
   (:func:`repro.compose.analyze_compositionally`, whose island jobs
   are ``replace(request, decomposition=None, tiers=None, island=...,
   quantum_ps=...)`` and whose monolithic fallback is step 6 on the
   same instance) or ``"hier"`` (:func:`repro.hier.analyze_hier`);
6. **portfolio and reduction** -- :func:`repro.portfolio.
   analyze_portfolio` when ``tiers`` is set (its escalation,
   :func:`repro.portfolio.escalate`, is the route an island takes
   too), else :func:`~repro.analysis.schedulability.analyze_model`;
   both apply the ``reduce`` passes to exploration.

Every layer returns its own result object, and so does :func:`analyze`.
The request is also the batch job (:meth:`repro.batch.AnalysisJob.
from_request`): its canonical :meth:`~AnalysisRequest.to_dict` is the
verdict-cache key material and the serve bundle layout.

This module imports neither :mod:`repro.batch` nor :mod:`repro.serve`
at load time.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, NamedTuple, Optional, Tuple

from repro.engine.reduce import (
    DEFAULT_REDUCTION,
    REDUCTION_FAULTS,
    reduction_token,
)
from repro.errors import RequestError

#: ``modes`` values: one configuration, every reachable steady mode, or
#: the transition-aware modal analysis.
MODES = (None, "all", "modal")

#: ``decomposition`` values.
DECOMPOSITIONS = (None, "compose", "hier")

#: The ``tiers`` token of the default portfolio chain.
DEFAULT_TIERS = "default"


class IslandSpec(NamedTuple):
    """One processor island: a display label and its qualified members."""

    label: str
    threads: Tuple[str, ...]
    processors: Tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class AnalysisRequest:
    """Everything that decides a verdict, and nothing else.

    ``source`` is AADL text and ``root`` the system implementation
    (inferred when None).  ``mode`` pins one steady operation mode;
    ``modes`` selects ``"all"`` reachable modes or the ``"modal"``
    analysis under ``protocol``.  ``quantum_ps`` pins the scheduling
    quantum in picoseconds (None: the natural GCD quantum) and
    ``max_states`` bounds exploration.  ``tiers`` turns the portfolio
    on with a chain token (:data:`DEFAULT_TIERS` or ``"+"``-joined tier
    names); ``reduce`` is a reduction-pass spec (``None`` or ``"none"``:
    unreduced).  ``max_window`` caps the hier flattened or modal
    transient window, ``max_phasings`` the modal switch phasings, and
    ``fault`` injects a hier or modal self-test fault -- or, with
    ``reduce`` and no decomposition, a registered reduction fault into
    every exploration the request runs.  ``island`` restricts the
    analysis to one processor island.

    Construction canonicalizes ``reduce`` (unreduced as ``"none"``) and
    ``island`` and raises :class:`~repro.errors.RequestError` for a
    combination no layer implements.
    """

    source: str
    root: Optional[str] = None
    mode: Optional[str] = None
    modes: Optional[str] = None
    protocol: str = "synchronous"
    quantum_ps: Optional[int] = None
    max_states: int = 1_000_000
    decomposition: Optional[str] = None
    tiers: Optional[str] = None
    reduce: Optional[str] = DEFAULT_REDUCTION
    max_window: Optional[int] = None
    max_phasings: Optional[int] = None
    fault: Optional[str] = None
    island: Optional[IslandSpec] = None

    def __post_init__(self) -> None:
        try:
            token = reduction_token(self.reduce)
        except TypeError:
            raise RequestError(
                f"reduce must be a pass spec, got {self.reduce!r}"
            ) from None
        object.__setattr__(self, "reduce", token or "none")
        if self.island is not None:
            island = self.island
            try:
                if isinstance(island, dict):
                    island = IslandSpec(**island)
                label, threads, processors = island
                island = IslandSpec(
                    label, tuple(sorted(threads)), tuple(sorted(processors))
                )
            except (TypeError, ValueError) as exc:
                raise RequestError(f"malformed island: {exc}") from None
            object.__setattr__(self, "island", island)
        problem = self._problem()
        if problem is not None:
            raise RequestError(problem)

    def _problem(self) -> Optional[str]:
        from repro.modal.transient import PROTOCOLS

        if not isinstance(self.source, str):
            return "source must be AADL text"
        for name in ("root", "mode", "tiers", "fault"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                return f"{name} must be a string, got {value!r}"
        counts = ("max_states", "quantum_ps", "max_window", "max_phasings")
        for name in counts:
            value = getattr(self, name)
            if (value is not None or name == "max_states") and (
                type(value) is not int or value < 1
            ):
                return f"{name} must be a positive int, got {value!r}"
        if self.modes not in MODES:
            return f"unknown modes {self.modes!r}; choose from {list(MODES)}"
        if self.decomposition not in DECOMPOSITIONS:
            return (
                f"unknown decomposition {self.decomposition!r}; choose "
                f"from {list(DECOMPOSITIONS)}"
            )
        if self.protocol not in PROTOCOLS:
            return (
                f"unknown mode-change protocol {self.protocol!r}; choose "
                f"from {list(PROTOCOLS)}"
            )
        modal = self.modes == "modal"
        hier = self.decomposition == "hier"
        if self.mode is not None and self.modes is not None:
            return "mode pins one steady mode; it cannot combine with modes"
        if modal and self.decomposition is not None:
            return (
                f"modes='modal' cannot combine with decomposition="
                f"{self.decomposition!r}: no layer checks mode transitions "
                f"per island or partition"
            )
        if self.island is not None and (
            self.modes or self.decomposition or self.tiers
        ):
            return (
                "an island is one steady slice of a compositional run; it "
                "takes no modes, decomposition or tiers"
            )
        if hier and (self.tiers or self.reduce != DEFAULT_REDUCTION):
            return (
                "decomposition='hier' decides by supply interfaces and "
                "flattened simulation; it takes no tiers or reduce"
            )
        if self.decomposition == "compose" and self.tiers not in (
            None,
            DEFAULT_TIERS,
        ):
            return (
                "decomposition='compose' screens islands with the default "
                "tiers only"
            )
        if self.protocol != "synchronous" and not modal:
            return "protocol applies to modes='modal' only"
        if self.max_phasings is not None and not modal:
            return "max_phasings applies to modes='modal' only"
        if modal or hier:
            return None
        if self.max_window:
            return (
                "max_window applies to modes='modal' or "
                "decomposition='hier' only"
            )
        if self.fault is None:
            return None
        if self.reduce == "none" or self.decomposition or self.island:
            return (
                "fault applies to modes='modal', decomposition='hier' or "
                "reduce without decomposition or island only"
            )
        if self.fault not in REDUCTION_FAULTS:
            return (
                f"unknown reduction fault {self.fault!r}; choose from "
                f"{sorted(REDUCTION_FAULTS)}"
            )
        return None

    @property
    def quantum(self):
        """``quantum_ps`` as a :class:`~repro.aadl.properties.TimeValue`
        (None: the natural quantum).  Reports print it as given: whole
        microseconds (the CLI's unit) as such; an island's, taken from
        the full model's quantizer, in picoseconds."""
        from repro.aadl.properties import TimeValue

        if self.quantum_ps is None:
            return None
        us, rest = divmod(self.quantum_ps, 1_000_000)
        if rest or self.island is not None:
            return TimeValue(self.quantum_ps, "ps")
        return TimeValue(us, "us")

    def to_dict(self) -> Dict[str, Any]:
        """The canonical JSON form: fields at their default are left out."""
        data: Dict[str, Any] = {"source": self.source}
        for field in dataclasses.fields(self)[1:]:
            value = getattr(self, field.name)
            if value != field.default:
                data[field.name] = value
        if self.island is not None:
            data["island"] = {
                "label": self.island.label,
                "threads": list(self.island.threads),
                "processors": list(self.island.processors),
            }
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AnalysisRequest":
        if not isinstance(data, dict):
            raise RequestError("an analysis request must be an object")
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise RequestError(
                f"unknown request fields {unknown}; choose from "
                f"{sorted(known)}"
            )
        if "source" not in data:
            raise RequestError("an analysis request needs a source")
        return cls(**data)


def analyze(
    request: AnalysisRequest,
    *,
    model=None,
    workers: Optional[int] = None,
    cache=None,
    progress=None,
):
    """Run ``request`` through the layers in the module's order.

    ``model`` is the parsed ``request.source`` when the caller already
    has it.  ``workers`` / ``cache`` / ``progress`` reach the layers
    that fan out through :func:`repro.batch.run_batch` (per-mode and
    per-island jobs); they never change the verdict.  A fan-out's
    children are ``dataclasses.replace`` copies of the request it is
    handed, which carries the printed model and the resolved root.
    """
    from repro.aadl import format_model, infer_root, instantiate, parse_model

    if model is None:
        model = parse_model(request.source)
    root = request.root or infer_root(model)
    fan_out = dict(workers=workers, cache=cache, progress=progress)
    if request.modes == "modal":
        from repro.modal import analyze_modal
        from repro.modal.transient import (
            DEFAULT_MAX_PHASINGS,
            DEFAULT_TRANSIENT_WINDOW,
        )

        return analyze_modal(
            model,
            root,
            protocol=request.protocol,
            quantum=request.quantum,
            max_states=request.max_states,
            portfolio=request.tiers is not None,
            tiers=request.tiers,
            reduction=request.reduce,
            max_phasings=request.max_phasings or DEFAULT_MAX_PHASINGS,
            max_window=request.max_window or DEFAULT_TRANSIENT_WINDOW,
            fault=request.fault,
            **fan_out,
        )
    if request.modes == "all" or request.decomposition == "compose":
        request = dataclasses.replace(
            request, source=format_model(model), root=root
        )
    if request.modes == "all":
        from repro.analysis.modes import analyze_all_modes

        return analyze_all_modes(model, request, **fan_out)
    if request.mode is None:
        return analyze_configuration(
            request, instantiate(model, root), **fan_out
        )
    from repro.obs.tracer import current_tracer

    with current_tracer().span("modal.steady", mode=request.mode) as span:
        instance = instantiate(
            model, root, mode_overrides={root: request.mode}
        )
        result = analyze_configuration(request, instance, **fan_out)
        span.set(verdict=result.verdict.value)
    return result


def analyze_configuration(request: AnalysisRequest, instance, **fan_out):
    """Steps 4-6 of the planner, for ``instance``: the request's system
    instantiated (in its pinned mode, if any).  ``fan_out`` is the
    ``workers`` / ``cache`` / ``progress`` of a compose run."""
    if request.island is not None:
        from repro.compose.runner import analyze_island

        return analyze_island(instance, request)
    if request.decomposition == "compose":
        from repro.compose import analyze_compositionally

        return analyze_compositionally(instance, request, **fan_out)
    quantum = request.quantum
    if request.decomposition == "hier":
        from repro.hier import DEFAULT_MAX_WINDOW, analyze_hier

        return analyze_hier(
            instance,
            quantum=quantum,
            max_window=request.max_window or DEFAULT_MAX_WINDOW,
            fault=request.fault,
        )
    if request.tiers is not None:
        from repro.portfolio import analyze_portfolio

        return analyze_portfolio(
            instance,
            tiers=request.tiers,
            quantum=quantum,
            max_states=request.max_states,
            reduction=request.reduce,
            reduction_fault=request.fault,
        )
    from repro.analysis.schedulability import analyze_model

    return analyze_model(
        instance,
        quantum=quantum,
        max_states=request.max_states,
        reduction=request.reduce,
        reduction_fault=request.fault,
    )
