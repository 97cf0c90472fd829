"""Tests for the analysis request, its planner and the ``analysis`` job.

The planner must be a pure re-routing: for every legal request shape
over the gallery and example models, :func:`repro.analysis.request.
analyze` answers exactly what the layer's own entry point answers
(same verdict, same state count, or the same error).  The request's
canonical form is the cache key, so spelling a default out, carrying
the parsed model in memory or round-tripping through JSON must not
split it.
"""

import glob
import os

import pytest

from repro.aadl import format_model, infer_root, instantiate, parse_model
from repro.aadl import gallery
from repro.aadl.properties import us
from repro.analysis import Verdict, analyze_all_modes, analyze_model
from repro.analysis.request import (
    DEFAULT_TIERS,
    AnalysisRequest,
    IslandSpec,
    analyze,
)
from repro.batch import JOB_KINDS, AnalysisJob, cache_key
from repro.compose import analyze_compositionally
from repro.engine.reduce import DEFAULT_REDUCTION
from repro.errors import BatchError, ReproError, RequestError
from repro.hier import analyze_hier
from repro.modal import analyze_modal
from repro.portfolio import analyze_portfolio

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")

GALLERY = (
    "cruise_control",
    "two_periodic_threads",
    "sporadic_consumer",
    "aperiodic_worker",
    "shared_bus_pair",
    "dual_island",
    "coupled_islands",
    "priority_inversion_trio",
    "arinc_partitions",
)


def _models():
    """``(name, source, parsed model)`` for every gallery and example
    model; builder-made gallery models are printed to get their source."""
    for name in GALLERY:
        model = getattr(gallery, name)().declarative
        yield name, format_model(model), model
    text = gallery.fault_recovery_text()
    yield "fault_recovery", text, parse_model(text)
    for path in sorted(glob.glob(os.path.join(EXAMPLES, "*.aadl"))):
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        yield os.path.basename(path), text, parse_model(text)


MODELS = list(_models())
IDS = [name for name, _, _ in MODELS]


class TestCanonicalForm:
    def test_spelled_out_defaults_share_the_key(self):
        source = gallery.cruise_control_text()
        terse = AnalysisRequest(source=source)
        spelled = AnalysisRequest(
            source=source,
            root="CruiseControl.impl",
            protocol="synchronous",
            max_states=1_000_000,
            reduce=DEFAULT_REDUCTION,
        )
        assert "protocol" not in spelled.to_dict()
        assert "max_states" not in spelled.to_dict()
        assert cache_key(AnalysisJob.from_request(terse)) == cache_key(
            AnalysisJob.from_request(spelled)
        )

    def test_non_default_fields_split_the_key(self):
        source = gallery.fault_recovery_text()
        keys = {
            cache_key(
                AnalysisJob.from_request(AnalysisRequest(source=source, **f))
            )
            for f in (
                {},
                {"tiers": DEFAULT_TIERS},
                {"quantum_ps": 500_000},
                {"modes": "all"},
                {"modes": "modal"},
                {"modes": "modal", "protocol": "asynchronous"},
                {"mode": "error"},
                {"reduce": "none"},
            )
        }
        assert len(keys) == 8

    def test_round_trip_is_identity(self):
        request = AnalysisRequest(
            source="system S\nend S;\n",
            mode="m",
            quantum_ps=2_000_500_000,
            reduce="por,sym",
            island=IslandSpec("i", ("S.b", "S.a"), ("S.cpu",)),
        )
        assert request.reduce == "sym,por"
        assert request.island.threads == ("S.a", "S.b")
        assert AnalysisRequest.from_dict(request.to_dict()) == request

    @pytest.mark.parametrize("name,source,model", MODELS, ids=IDS)
    def test_in_memory_model_keys_like_its_round_trip(
        self, name, source, model
    ):
        job = AnalysisJob.from_request(
            AnalysisRequest(source=source), model=model
        )
        clone = AnalysisJob.from_dict(job.to_dict())
        assert clone.model is None
        assert "model" not in job.to_dict()
        assert cache_key(job) == cache_key(clone)


class TestRejections:
    def test_unknown_request_fields(self):
        with pytest.raises(RequestError, match="quantum_us"):
            AnalysisRequest.from_dict({"source": "x", "quantum_us": 1})
        with pytest.raises(RequestError, match="portfolio"):
            AnalysisJob(
                job_id="x",
                kind="analysis",
                payload={"source": "x", "portfolio": True},
            )

    @pytest.mark.parametrize(
        "kind", ["aadl", "island", "portfolio", "hier", "modal"]
    )
    def test_legacy_kinds(self, kind):
        assert JOB_KINDS == ("analysis", "case", "relation")
        with pytest.raises(BatchError, match="'analysis', 'case', 'relation'"):
            AnalysisJob.from_dict(
                {"job_id": "x", "kind": kind, "payload": {"source": "x"}}
            )

    @pytest.mark.parametrize(
        "fields",
        [
            {"modes": "modal", "decomposition": "compose"},
            {"modes": "modal", "decomposition": "hier"},
            {"mode": "a", "modes": "all"},
            {"decomposition": "hier", "tiers": DEFAULT_TIERS},
            {"decomposition": "hier", "reduce": "sym"},
            {"decomposition": "compose", "tiers": "rta"},
            {"island": IslandSpec("i", (), ()), "modes": "all"},
            {"protocol": "asynchronous"},
            {"max_phasings": 4},
            {"fault": "inflate-alpha"},
            {"modes": "sometimes"},
            {"decomposition": "flat"},
            {"max_states": 0},
            {"quantum_ps": "5"},
            {"root": 3},
            {"reduce": "sym", "fault": "inflate-alpha"},
            {"reduce": "sym", "fault": "no-such"},
            {"reduce": "sym", "decomposition": "compose",
             "fault": "overeager-sym"},
            {"max_window": 8},
        ],
    )
    def test_combinations_no_layer_implements(self, fields):
        with pytest.raises(RequestError):
            AnalysisRequest(source="x", **fields)


class TestReductionFault:
    """With ``reduce`` set, ``fault`` names a reduction fault and
    reaches every exploration the request runs."""

    def test_unknown_name_is_refused_at_construction(self):
        with pytest.raises(RequestError, match="unknown reduction fault"):
            AnalysisRequest(source="x", reduce="sym", fault="no-such")

    def test_fault_reaches_exploration(self):
        from repro.oracle.request import FAMILIES

        # A jittered replicated draw: symmetry must not fire, and the
        # fault merges the replicas anyway.
        _, model = FAMILIES["replicated"][0](66)
        source = format_model(model)
        faulted = AnalysisRequest(
            source=source, reduce="sym", fault="overeager-sym"
        )
        direct = lambda: analyze_model(  # noqa: E731
            instantiate(model, infer_root(model)),
            reduction="sym",
            reduction_fault="overeager-sym",
        )
        # The merged replicas reach a deadlock the unreduced witness
        # search covers the whole space without finding: an error, not
        # an UNSCHEDULABLE verdict.
        assert _outcome(lambda: analyze(faulted, model=model)) == (
            "AnalysisError"
        )
        assert _outcome(direct) == "AnalysisError"
        honest = analyze(AnalysisRequest(source=source, reduce="sym"))
        assert honest.verdict is Verdict.SCHEDULABLE


def _shapes(model, root):
    """Every legal request shape for ``model``, each with the direct
    entry-point call it must agree with.  Past the default shape, the
    exploring ones run unreduced, so the state counts compared are
    those of the plain deadlock search."""
    instance = lambda: instantiate(model, root)  # noqa: E731
    printed = format_model(model)
    request = lambda **fields: AnalysisRequest(  # noqa: E731
        source=printed, root=root, reduce="none", **fields
    )
    none = {"reduce": "none"}
    shapes = [
        ({}, lambda: analyze_model(instance())),
        (none, lambda: analyze_model(instance(), reduction="none")),
        (
            {"tiers": DEFAULT_TIERS, **none},
            lambda: analyze_portfolio(instance(), reduction="none"),
        ),
        (
            {"reduce": "sym,por"},
            lambda: analyze_model(instance(), reduction="sym,por"),
        ),
        (
            {"quantum_ps": 500_000_000, **none},
            lambda: analyze_model(
                instance(), quantum=us(500), reduction="none"
            ),
        ),
        (
            {"decomposition": "compose", **none},
            lambda: analyze_compositionally(
                instance(), request(decomposition="compose"), workers=1
            ),
        ),
        ({"decomposition": "hier"}, lambda: analyze_hier(instance())),
        (
            {"modes": "all", **none},
            lambda: analyze_all_modes(model, request(modes="all")),
        ),
        (
            {"modes": "all", "tiers": DEFAULT_TIERS, **none},
            lambda: analyze_all_modes(
                model, request(modes="all", tiers=DEFAULT_TIERS)
            ),
        ),
    ]
    for protocol in ("synchronous", "asynchronous"):
        shapes.append((
            {"modes": "modal", "protocol": protocol, **none},
            lambda protocol=protocol: analyze_modal(
                model, root, protocol=protocol, reduction="none"
            ),
        ))
    for mode in model.implementation(root).modes.values():
        shapes.append((
            {"mode": mode.name, **none},
            lambda mode=mode: analyze_model(
                instantiate(model, root, mode_overrides={root: mode.name}),
                reduction="none",
            ),
        ))
    return shapes


def _outcome(call):
    try:
        result = call()
    except ReproError as exc:
        return type(exc).__name__
    return result.verdict, result.num_states


@pytest.mark.parametrize("name,source,model", MODELS, ids=IDS)
def test_planner_agrees_with_entry_points(name, source, model):
    root = infer_root(model)
    for fields, direct in _shapes(model, root):
        request = AnalysisRequest(source=source, **fields)
        planned = _outcome(lambda: analyze(request, workers=1))
        assert planned == _outcome(direct), (name, fields)
