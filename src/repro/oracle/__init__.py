"""Differential-testing oracle: the paper's S5 theorem as infrastructure.

An AADL model is schedulable iff its ACSR translation is deadlock-free,
so on the classical regime the full pipeline has exact external oracles:
response-time analysis, the EDF processor-demand criterion and a
simulated worst-case window must all agree with the exploration verdict.
This subpackage turns that cross-check into a first-class subsystem:

* :mod:`~repro.oracle.case` -- one case (task set + provenance);
* :mod:`~repro.oracle.verdicts` -- pipeline + classical verdicts and
  the explicit agreement classification (exact / sufficient / necessary
  relations, ``UNKNOWN`` and quantization caveats never silent);
* :mod:`~repro.oracle.shrink` -- delta-debugging disagreements to
  minimal reproducers;
* :mod:`~repro.oracle.bundle` -- replayable JSON repro bundles
  (``repro oracle replay <bundle>``);
* :mod:`~repro.oracle.campaign` -- the ``run`` relation: seeded cases
  over the :mod:`repro.workloads` generators, pipeline against the
  classical oracles (``repro oracle run``);
* :mod:`~repro.oracle.faults` -- injectable translator defects that
  prove the harness catches what it is supposed to catch;
* :mod:`~repro.oracle.request` -- the ``request`` relation: every
  combination of portfolio, reduction, compose and all-modes against
  plain exploration of the same source (``repro oracle request``);
* :mod:`~repro.oracle.relations` -- the one seeded campaign driver,
  pooled through :mod:`repro.batch`, for every relation: ``run``,
  ``request``, and the ``hier`` and ``modal`` relations against their
  exact simulations, each defined in its own module
  (``repro oracle <relation>``).

See ``docs/oracle.md`` for the agreement matrix and caveats.
"""

# relations first: it loads every relation module, and the relation
# modules import its types.
from repro.oracle.relations import (
    RELATIONS,
    Relation,
    RelationOutcome,
    RelationReport,
    run_relation,
)
from repro.oracle.bundle import (
    DEFAULT_ARTIFACTS_DIR,
    ReplayResult,
    ReproBundle,
    replay_bundle,
)
from repro.oracle.campaign import CampaignProfile, PROFILES, draw_case
from repro.oracle.case import OracleCase
from repro.oracle.faults import FAULTS, Fault, fault_names, get_fault
from repro.oracle.shrink import ShrinkResult, shrink_case
from repro.oracle.verdicts import (
    AgreementStatus,
    CaseClassification,
    OracleVerdict,
    classical_verdicts,
    classify,
    evaluate_case,
    run_pipeline,
)

__all__ = [
    "AgreementStatus",
    "CampaignProfile",
    "CaseClassification",
    "DEFAULT_ARTIFACTS_DIR",
    "FAULTS",
    "Fault",
    "OracleCase",
    "OracleVerdict",
    "PROFILES",
    "RELATIONS",
    "Relation",
    "RelationOutcome",
    "RelationReport",
    "ReplayResult",
    "ReproBundle",
    "ShrinkResult",
    "classical_verdicts",
    "classify",
    "draw_case",
    "evaluate_case",
    "fault_names",
    "get_fault",
    "replay_bundle",
    "run_pipeline",
    "run_relation",
    "shrink_case",
]
