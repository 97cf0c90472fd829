"""T-REDUCE: state-space reduction vs replica count.

Grows a symmetric system one replica processor at a time and measures
the explored state count three ways: unreduced, symmetry-only, and
symmetry + partial-order.  Unreduced growth is multiplicative in the
replica count; the symmetry quotient collapses the n! interleavings of
identical replicas to one orbit representative each, and the ample
filter removes the remaining commuting event bursts.

The acceptance claim of the reduction subsystem is pinned here: on the
4-replica symmetric model the combined passes visit at least 5x fewer
states than the unreduced exploration, at the same verdict.  The
offset-jittered control row shows symmetry correctly declining to fire
when the replicas are distinguishable.
"""

import numpy as np

from repro.analysis import analyze_model

from conftest import print_table

from repro.workloads import replicated_system

SEED = 5506  # SAE AS5506
MAX_STATES = 400_000
REPLICA_COUNTS = (2, 3, 4)
TARGET_FACTOR = 5.0


def _system(n_replicas: int, jitter: bool = False):
    return replicated_system(
        n_replicas,
        2,
        utilization_per_replica=0.5,
        periods=(4, 8),
        offset_jitter=jitter,
        rng=np.random.default_rng(SEED),
    )


def test_replica_sweep_reduction_factor(benchmark):
    """The ISSUE acceptance criterion: >= 5x fewer states on the
    4-replica symmetric model, same verdict at every point."""
    rows = []
    factors = []
    for n_replicas in REPLICA_COUNTS:
        unreduced = analyze_model(
            _system(n_replicas), max_states=MAX_STATES, reduction="none"
        )
        sym = analyze_model(
            _system(n_replicas), max_states=MAX_STATES, reduction="sym"
        )
        both = analyze_model(
            _system(n_replicas),
            max_states=MAX_STATES,
            reduction="sym,por",
        )
        assert sym.verdict is unreduced.verdict
        assert both.verdict is unreduced.verdict
        assert both.num_states <= sym.num_states <= unreduced.num_states
        factors.append(unreduced.num_states / max(both.num_states, 1))
        rows.append(
            (
                n_replicas,
                unreduced.verdict.value,
                unreduced.num_states,
                sym.num_states,
                both.num_states,
                f"{factors[-1]:.1f}x",
            )
        )

    # The quotient gap must widen with every added replica...
    assert factors == sorted(factors)
    # ...and reach the pinned factor at four replicas.
    assert factors[-1] >= TARGET_FACTOR, (
        f"4-replica reduction factor {factors[-1]:.1f}x "
        f"< required {TARGET_FACTOR}x"
    )

    def reduced_run():
        return analyze_model(
            _system(REPLICA_COUNTS[-1]),
            max_states=MAX_STATES,
            reduction="sym,por",
        )

    benchmark.pedantic(reduced_run, rounds=1, iterations=1)

    print_table(
        "replica sweep: unreduced vs sym vs sym+por states",
        ["replicas", "verdict", "unreduced", "sym", "sym+por", "factor"],
        rows,
    )


def test_jittered_control_defeats_symmetry():
    """Offset jitter makes replicas distinguishable: symmetry must not
    fire, and the verdict must still match the unreduced run."""
    unreduced = analyze_model(
        _system(3, jitter=True), max_states=MAX_STATES, reduction="none"
    )
    reduced = analyze_model(
        _system(3, jitter=True), max_states=MAX_STATES, reduction="sym,por"
    )
    assert reduced.verdict is unreduced.verdict
    merged = reduced.exploration.stats.counters.get("reduce.orbits_merged", 0)
    assert merged == 0
    print_table(
        "jittered control (3 replicas, distinct offsets)",
        ["run", "verdict", "states", "orbits merged"],
        [
            ("unreduced", unreduced.verdict.value,
             unreduced.num_states, "-"),
            ("sym,por", reduced.verdict.value,
             reduced.num_states, merged),
        ],
    )
