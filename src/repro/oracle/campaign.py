"""The ``run`` relation: the pipeline against the classical analyses.

The paper's S5 theorem -- an AADL model is schedulable iff its ACSR
translation is deadlock-free -- as a seeded campaign.  Seed ``s`` draws
case ``draw_case(PROFILES[profile], s, s)`` (generator round-robin,
every parameter derived from the seed), runs it through the full AADL
-> ACSR -> engine pipeline *and* the classical oracles, and classifies
the agreement with :func:`repro.oracle.verdicts.classify`.  On
disagreement the case is shrunk to a minimal reproducer and persisted
as a replayable JSON bundle under ``artifacts/oracle/``.

Each case runs as a ``case`` job of :func:`repro.batch.run_batch`, so
the persistent verdict cache serves a case already proven under the
same budget and fault.  The campaign loop, its worker pool and its
report are :func:`repro.oracle.relations.run_relation`'s
(``repro oracle run``).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.errors import SchedError
from repro.oracle.bundle import DEFAULT_ARTIFACTS_DIR, ReproBundle
from repro.oracle.case import OracleCase
from repro.oracle.faults import FAULTS, Fault, get_fault
from repro.oracle.relations import (
    DISAGREED,
    Param,
    Relation,
    RelationOutcome,
)
from repro.oracle.shrink import shrink_case
from repro.oracle.verdicts import CaseClassification, evaluate_case


class CampaignProfile:
    """Parameter envelope of one campaign flavour."""

    __slots__ = (
        "name",
        "generators",
        "n_range",
        "utilization_range",
        "boundary_fraction",
        "max_states",
        "shrink_evaluations",
        "generator_params",
        "schedulings",
    )

    def __init__(
        self,
        name: str,
        *,
        generators: Tuple[str, ...],
        n_range: Tuple[int, int],
        utilization_range: Tuple[float, float],
        boundary_fraction: float,
        max_states: int,
        shrink_evaluations: int,
        generator_params: Optional[Dict[str, Dict[str, Any]]] = None,
        schedulings: Optional[Dict[str, Tuple[str, ...]]] = None,
    ) -> None:
        self.name = name
        self.generators = generators
        self.n_range = n_range
        self.utilization_range = utilization_range
        #: fraction of draws forced near the U = 1 boundary, where
        #: disagreements (quantization, off-by-one interference) cluster
        self.boundary_fraction = boundary_fraction
        self.max_states = max_states
        self.shrink_evaluations = shrink_evaluations
        self.generator_params = generator_params or {}
        #: scheduling protocols drawn per generator; constrained-deadline
        #: sets pair with DM (the optimal fixed-priority order there)
        self.schedulings = schedulings or {
            "uniform": ("RMS", "EDF"),
            "harmonic": ("RMS", "EDF"),
            "constrained": ("DMS", "EDF"),
            "offset": ("RMS", "EDF"),
        }


#: Small periods keep hyperperiods -- and ACSR state spaces -- tractable.
_SMALL_PERIODS = (4, 6, 8, 12)

PROFILES: Dict[str, CampaignProfile] = {
    "smoke": CampaignProfile(
        "smoke",
        generators=("uniform", "harmonic", "constrained", "offset"),
        n_range=(1, 4),
        utilization_range=(0.3, 1.15),
        boundary_fraction=0.25,
        max_states=150_000,
        shrink_evaluations=300,
        generator_params={
            "uniform": {"periods": _SMALL_PERIODS},
            "constrained": {"periods": _SMALL_PERIODS},
            "offset": {"periods": _SMALL_PERIODS},
        },
    ),
    "nightly": CampaignProfile(
        "nightly",
        generators=("uniform", "harmonic", "constrained", "offset"),
        n_range=(2, 6),
        utilization_range=(0.3, 1.2),
        boundary_fraction=0.3,
        max_states=600_000,
        shrink_evaluations=600,
    ),
}


def draw_case(
    profile: CampaignProfile, seed: int, index: int
) -> OracleCase:
    """Deterministically derive one case of a campaign.

    The generator cycles round-robin over ``index``; every numeric
    parameter comes from a generator seeded with ``seed``.  Campaigns
    pass the seed as the index, so the draw is reproducible from the
    ``(profile, seed)`` pair alone.
    """
    generator = profile.generators[index % len(profile.generators)]
    prng = np.random.default_rng([seed, 0x0FACE])
    lo, hi = profile.n_range
    n = int(prng.integers(lo, hi + 1))
    if prng.random() < profile.boundary_fraction:
        utilization = float(prng.uniform(0.85, 1.1))
    else:
        utilization = float(prng.uniform(*profile.utilization_range))
    choices = profile.schedulings.get(generator, ("RMS", "EDF"))
    scheduling = choices[int(prng.integers(len(choices)))]
    params = profile.generator_params.get(generator, {})
    return OracleCase.generate(
        generator,
        seed,
        n=n,
        utilization=round(utilization, 4),
        scheduling=scheduling,
        **params,
    )


def _tally(counts: Dict[str, int], stats: Optional[Dict[str, Any]]) -> None:
    """Add one pipeline run's exploration to the case counters."""
    stats = stats or {}
    counts["states"] += stats.get("states", 0)
    counts["transitions"] += stats.get("transitions", 0)
    counts["engine_cache_hits"] += stats.get("cache_hits", 0)
    counts["engine_cache_misses"] += stats.get("cache_misses", 0)
    counts["budget_capped"] += stats.get("limit_hit") is not None


def evaluate(
    seed: int,
    *,
    profile: str = "smoke",
    max_states: Optional[int] = None,
    fault: Optional[str] = None,
    artifacts: Optional[str] = None,
    cache: Any = None,
) -> RelationOutcome:
    """Draw case ``seed`` of ``profile`` and compare the pipeline with
    the classical oracles.

    ``max_states`` overrides the profile's budget; ``fault`` injects a
    translator defect into the pipeline side (:mod:`repro.oracle.faults`,
    the harness's self-test); ``cache`` is a verdict-cache spec.  Cached
    verdicts count no runs, states or transitions.  A DISAGREED case is
    shrunk and saved under ``artifacts``; its details end with the
    bundle's ``replay:`` line.
    """
    from repro.batch import AnalysisJob, run_batch

    envelope = PROFILES.get(profile)
    if envelope is None:
        raise SchedError(
            f"unknown campaign profile {profile!r}; "
            f"choose from {sorted(PROFILES)}"
        )
    injected = get_fault(fault) if fault else None
    budget = envelope.max_states if max_states is None else max_states
    case = draw_case(envelope, seed, seed)
    batch = run_batch(
        [
            AnalysisJob.from_case(
                case, job_id=case.case_id, max_states=budget, fault=fault
            )
        ],
        workers=1,
        cache=cache,
    )
    (result,) = batch.results
    if result.error is not None:
        raise SchedError(f"case {case.case_id}: {result.error}")
    classification = CaseClassification.from_dict(result.classification)
    counts = dict.fromkeys(
        (
            "runs", "shrink_runs", "states", "transitions",
            "engine_cache_hits", "engine_cache_misses", "budget_capped",
        ),
        0,
    )
    counts[f"generator.{case.generator}.{classification.status.value}"] = 1
    counts[f"verdict.{result.verdict}"] = 1
    if cache is not None:
        counts["verdict_cache_hits"] = batch.cache_hits
        counts["verdict_cache_misses"] = batch.cache_misses
    if not result.cached:
        counts["runs"] = 1
        _tally(counts, result.stats)
    details = []
    if classification.status is DISAGREED:
        details = [
            f"pipeline={result.verdict} "
            f"conflicts={classification.conflicts}",
            *_shrink_and_save(
                case, envelope, budget, injected, artifacts, counts
            ),
        ]
    return RelationOutcome(
        seed,
        classification.status,
        case.case_id,
        counts=counts,
        details=details,
    )


def _shrink_and_save(
    case: OracleCase,
    envelope: CampaignProfile,
    budget: int,
    injected: Optional[Fault],
    artifacts: Optional[str],
    counts: Dict[str, int],
) -> Tuple[str, str]:
    """Shrink a disagreeing case, save its bundle, and return the
    ``shrunk from`` and ``replay:`` detail lines.  Every probe is one
    more ``shrink_runs`` and adds its exploration to the counters."""

    def probe(candidate: OracleCase):
        pipeline, oracles, classification = evaluate_case(
            candidate, max_states=budget, fault=injected
        )
        stats = pipeline.stats
        counts["shrink_runs"] += 1
        _tally(counts, stats.as_dict() if stats is not None else None)
        return pipeline, oracles, classification

    shrink = shrink_case(
        case,
        lambda candidate: probe(candidate)[2].status is DISAGREED,
        max_evaluations=envelope.shrink_evaluations,
    )
    pipeline, oracles, classification = probe(shrink.case)
    bundle = ReproBundle.from_evaluation(
        kind="disagreement",
        case=shrink.case,
        pipeline=pipeline,
        oracles=oracles,
        classification=classification,
        max_states=budget,
        profile=envelope.name,
        fault=injected.name if injected is not None else None,
        original_case=case,
        shrink_evaluations=shrink.evaluations,
    )
    path = bundle.save(artifacts or DEFAULT_ARTIFACTS_DIR)
    return (
        f"shrunk from {len(case.tasks)} to {len(shrink.case.tasks)} "
        "task(s): "
        + "; ".join(
            f"{t['name']}(C={t['wcet']}, T={t['period']}, "
            f"D={t['deadline']}, O={t['offset']})"
            for t in shrink.case.tasks
        ),
        f"replay: repro oracle replay {path}",
    )


RELATION = Relation(
    name="run",
    help="seeded differential campaign: pipeline verdicts against the "
    "classical analyses, disagreements shrunk into replayable bundles",
    evaluate=evaluate,
    params=(
        Param(
            "profile",
            "smoke",
            f"campaign parameter envelope: {' or '.join(PROFILES)}",
        ),
        Param(
            "max_states",
            None,
            "override the profile's per-case exploration budget",
            type=int,
        ),
        Param(
            "fault",
            None,
            "inject a known translator fault into the pipeline side "
            "(harness self-test; see repro.oracle.faults)",
        ),
        Param(
            "artifacts",
            None,
            "directory for disagreement bundles "
            f"(default {DEFAULT_ARTIFACTS_DIR})",
        ),
    ),
    faults=tuple(FAULTS),
    header="profile={profile}",
    cached=True,
)
