"""Differential oracle for state-space reduction.

The relation under test: on any workload, the reduced exploration
(``--reduce sym,por``) and the unreduced one must reach the **same
verdict**.  Symmetry canonicalization and the partial-order ample
filter are both argued sound (``docs/reduction.md``); this campaign is
the empirical gate on that argument, end to end through the real
pipeline -- translation, reduction construction, exploration, trace
raising.

Each seeded case draws a replicated multiprocessor system from
:func:`repro.workloads.generators.replicated_system` (a fraction with
offset jitter, where symmetry must *not* fire), runs the monolithic
pipeline with and without reduction, and classifies them with
:func:`repro.oracle.relations.equal`:

* ``AGREED`` -- same decided verdict;
* ``UNKNOWN`` -- either side exhausted its budget (reduction changes
  which prefix of the space a truncated run covers, so a budget-bound
  demotion on one side only is not evidence of unsoundness);
* ``DISAGREED`` -- both sides decided and differ.  This is the bug
  signal; CI gates on it.

``fault=`` injects a registered reduction bug
(:data:`repro.engine.reduce.REDUCTION_FAULTS`) into the reduced side
only; the campaign must then disagree on some seed, which is the
oracle's own self-test.  When a disagreeing case is unschedulable on
the unreduced side, its failing scenario raises through the ordinary
trace-raising path -- under symmetry the witness is concrete up to
replica renaming (each step is a real transition of a symmetric image
of the state), so repro bundles built from the *unreduced* run stay
byte-for-byte replayable.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.schedulability import analyze_model
from repro.engine.reduce import REDUCTION_FAULTS
from repro.oracle.relations import (
    DISAGREED,
    MAX_STATES,
    MAX_STATES_PARAM,
    Param,
    Relation,
    RelationOutcome,
    equal,
)
from repro.workloads.generators import replicated_system

#: The passes under test: both, as the CLI's bare ``--reduce`` selects.
SPEC = "sym,por"

#: Fraction of draws given offset jitter, where symmetry must decline
#: to fire.
JITTER_FRACTION = 0.25


def evaluate(
    seed: int,
    *,
    max_states: int = MAX_STATES,
    fault: Optional[str] = None,
) -> RelationOutcome:
    """Draw one replicated system from ``seed`` and compare reduced vs
    unreduced exploration.  Every parameter (replica count, threads per
    replica, utilization, offset jitter) derives from the seed, so a
    failing seed reproduces byte-for-byte."""
    rng = np.random.default_rng(seed)
    n_replicas = int(rng.integers(2, 5))
    threads_per_replica = int(rng.integers(1, 3))
    utilization = float(rng.uniform(0.3, 1.15))
    jittered = bool(rng.random() < JITTER_FRACTION)
    instance = replicated_system(
        n_replicas,
        threads_per_replica,
        utilization_per_replica=utilization,
        offset_jitter=jittered,
        rng=rng,
    )
    unreduced = analyze_model(instance, max_states=max_states)
    reduced = analyze_model(
        instance,
        max_states=max_states,
        reduction=SPEC,
        reduction_fault=fault,
    )
    stats = reduced.exploration.stats
    counters = stats.counters if stats is not None else {}
    status = equal(unreduced.verdict, reduced.verdict)
    return RelationOutcome(
        seed,
        status,
        "jittered" if jittered else "symmetric",
        counts={
            "unreduced_states": unreduced.num_states,
            "reduced_states": reduced.num_states,
            "orbits_merged": counters.get("reduce.orbits_merged", 0),
            "por_pruned": counters.get("reduce.por_pruned", 0),
        },
        details=[
            f"unreduced {unreduced.verdict.value} vs reduced "
            f"{reduced.verdict.value}"
        ]
        if status is DISAGREED
        else [],
    )


RELATION = Relation(
    name="reduce",
    help="seeded campaign asserting reduced ≡ unreduced verdicts "
    "on replicated workloads (UNKNOWN-aware)",
    evaluate=evaluate,
    params=(
        MAX_STATES_PARAM,
        Param(
            "fault",
            None,
            "inject a known reduction bug into the reduced side "
            "(harness self-test; see repro.engine.reduce.REDUCTION_FAULTS)",
        ),
    ),
    faults=REDUCTION_FAULTS,
    header=f"[{SPEC}]",
)
