"""T-COMPOSE: monolithic product vs compositional sum of state spaces.

Grows a decomposable multiprocessor system one island at a time and
measures the explored state count both ways:

* monolithic -- one exploration of the full composition; its state
  space multiplies with every added (independent) processor;
* compositional -- one exploration per island; the total is the *sum*
  of island state spaces, so it grows linearly.

The acceptance claim of the compose subsystem is pinned here: on a
decomposable model the verdicts agree and the compositional total is
strictly below the monolithic count.  The gallery's 2-processor
``dual_island`` model is the smallest instance of the claim; the sweep
shows the gap widening with island count.
"""

import pytest

from repro.aadl.gallery import dual_island
from repro.analysis import analyze_model
from repro.compose import analyze_compositionally
from repro.workloads.generators import multiprocessor_system

from conftest import print_table

SEED = 5506  # SAE AS5506
MAX_STATES = 400_000
ISLAND_COUNTS = (1, 2, 3)


def _system(n_islands: int):
    import numpy as np

    return multiprocessor_system(
        n_islands,
        2,
        utilization_per_processor=0.5,
        shared_bus=False,
        periods=(4, 8),
        rng=np.random.default_rng(SEED),
    )


def test_gallery_dual_island_sum_beats_product(benchmark):
    """The ISSUE acceptance criterion on the 2-processor gallery model:
    same verdict, strictly fewer total states."""
    monolithic = analyze_model(dual_island(), max_states=MAX_STATES)

    def composed_run():
        return analyze_compositionally(
            dual_island(), workers=1, max_states=MAX_STATES
        )

    composed = benchmark.pedantic(composed_run, rounds=1, iterations=1)

    assert composed.compositional
    assert composed.verdict is monolithic.verdict
    assert composed.num_states < monolithic.num_states

    print_table(
        "dual_island (2 processors): monolithic vs compositional",
        ["run", "verdict", "states"],
        [
            ("monolithic", monolithic.verdict.value,
             monolithic.num_states),
            ("compositional (sum)", composed.verdict.value,
             composed.num_states),
        ]
        + [
            (f"  {o.island.label}", o.verdict.value, o.states)
            for o in composed.outcomes
        ],
    )


def test_island_count_sweep():
    """Monolithic growth is multiplicative in island count; the
    compositional sum stays linear."""
    rows = []
    gaps = []
    for n_islands in ISLAND_COUNTS:
        monolithic = analyze_model(_system(n_islands), max_states=MAX_STATES)
        composed = analyze_compositionally(
            _system(n_islands), workers=1, max_states=MAX_STATES
        )
        assert composed.compositional
        assert composed.verdict is monolithic.verdict
        # multiprocessor_system adds an unconnected sink processor, so
        # even n_islands=1 yields two islands and a real decomposition.
        assert len(composed.outcomes) == n_islands + 1
        assert composed.num_states < monolithic.num_states
        gaps.append(monolithic.num_states / max(composed.num_states, 1))
        rows.append(
            (
                n_islands + 1,
                monolithic.verdict.value,
                monolithic.num_states,
                composed.num_states,
                f"{gaps[-1]:.1f}x",
            )
        )
    # The multiplicative/linear gap must widen as islands are added.
    assert gaps == sorted(gaps)
    print_table(
        "island sweep: monolithic product vs compositional sum",
        ["islands", "verdict", "monolithic states", "island sum", "gap"],
        rows,
    )
