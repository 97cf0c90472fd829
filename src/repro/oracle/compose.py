"""Differential oracle for compositional analysis.

The relation under test: on any workload, ``analyze --compose`` and the
monolithic pipeline must reach the **same verdict**.  For decomposable
models that is the soundness claim of the island decomposition (a
deadlock in some island is a deadlock of the composition, and a
deadlock-free product of independent islands is deadlock-free); for
coupled models it is trivially true because compose falls back to the
monolithic pipeline -- the campaign still runs such cases to pin the
fallback path.

Each seeded case draws a multiprocessor system from
:func:`repro.workloads.generators.multiprocessor_system`
(``shared_bus=False`` gives an island per processor; a fraction keeps
the bus to exercise the fallback), runs both analyses, and classifies
them with :func:`repro.oracle.relations.equal`:

* ``AGREED`` -- same decided verdict;
* ``UNKNOWN`` -- either side exhausted its budget (a budget-bound
  demotion is not evidence of unsoundness: an island can decide what
  the larger monolithic space cannot);
* ``DISAGREED`` -- both sides decided and differ.  This is the bug
  signal; CI gates on it.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.schedulability import analyze_model
from repro.compose.runner import analyze_compositionally
from repro.oracle.relations import (
    DISAGREED,
    MAX_STATES,
    MAX_STATES_PARAM,
    Relation,
    RelationOutcome,
    equal,
)
from repro.workloads.generators import multiprocessor_system

#: Fraction of draws that keep the shared bus, so the monolithic
#: fallback runs in the same campaign.
COUPLED_FRACTION = 0.25


def evaluate(seed: int, *, max_states: int = MAX_STATES) -> RelationOutcome:
    """Draw one multiprocessor system from ``seed`` and compare the two
    analyses.  Every parameter (processor count, thread counts, target
    utilization, bus coupling) derives from the seed, so a failing seed
    reproduces byte-for-byte."""
    rng = np.random.default_rng(seed)
    n_processors = int(rng.integers(2, 4))
    threads_per_processor = int(rng.integers(1, 3))
    utilization = float(rng.uniform(0.3, 1.15))
    coupled = bool(rng.random() < COUPLED_FRACTION)
    instance = multiprocessor_system(
        n_processors,
        threads_per_processor,
        utilization_per_processor=utilization,
        shared_bus=coupled,
        rng=rng,
    )
    monolithic = analyze_model(instance, max_states=max_states)
    compositional = analyze_compositionally(
        instance, max_states=max_states, workers=1
    )
    status = equal(monolithic.verdict, compositional.verdict)
    decomposed = compositional.mode == "compositional"
    return RelationOutcome(
        seed,
        status,
        compositional.mode,
        counts={
            "decomposed": int(decomposed),
            "fallback": int(not decomposed),
            # State totals over decomposed cases only: a fallback
            # explores the same space twice.
            "monolithic_states": monolithic.num_states if decomposed else 0,
            "island_states": (
                compositional.total_states if decomposed else 0
            ),
        },
        details=[
            f"monolithic {monolithic.verdict.value} vs compositional "
            f"{compositional.verdict.value} "
            f"({len(compositional.partition.islands)} islands)"
        ]
        if status is DISAGREED
        else [],
    )


RELATION = Relation(
    name="compose",
    help="seeded campaign asserting compositional ≡ monolithic "
    "verdicts on multiprocessor workloads",
    evaluate=evaluate,
    params=(MAX_STATES_PARAM,),
)
