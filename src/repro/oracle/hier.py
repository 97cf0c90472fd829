"""Differential oracle for the hierarchical (BDR-interface) analysis.

The relation under test: on any partition, a **pass** from the
sufficient interface check (:mod:`repro.hier.check`) implies the exact
supply-aware flattened simulation (:mod:`repro.hier.flatten`) also
passes.  The converse need not hold -- the BDR abstraction gives up
supply a concrete periodic server actually delivers, so an
interface-fail / simulation-pass split is legitimate conservatism, not
a bug -- which makes this a one-sided (soundness) relation rather than
an equivalence, classified per partition with
:func:`repro.oracle.relations.implies`:

* ``AGREED`` -- both sides pass, both fail, or only the (conservative)
  interface side fails;
* ``UNKNOWN`` -- the flattened window exceeded the cap on a partition
  the interface check passed, so the exact side abstained;
* ``DISAGREED`` -- the interface check passed a partition the exact
  simulation fails.  That is a soundness hole; CI gates on it.

``fault=`` injects a registered interface-derivation bug
(:data:`repro.hier.interface.HIER_FAULTS`) into the analytic side only
-- the flattened side always simulates the *true* server parameters --
and the campaign must then disagree on some seed: the oracle's own
self-test that it can catch an over-promising supply abstraction.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.hier.interface import HIER_FAULTS
from repro.oracle.relations import (
    DISAGREED,
    Param,
    Relation,
    RelationOutcome,
    implies,
    worst,
)
from repro.workloads.generators import partitioned_system

#: Flattened-simulation window cap for campaign cases; generator
#: periods are harmonic-ish, so real windows stay far below this.
DEFAULT_CAMPAIGN_WINDOW = 1 << 16


def evaluate(
    seed: int,
    *,
    max_window: int = DEFAULT_CAMPAIGN_WINDOW,
    fault: Optional[str] = None,
) -> RelationOutcome:
    """Draw one partitioned system from ``seed`` and compare the
    interface check against the flattened simulation on each partition.
    Every parameter (partition count, threads, utilization, supply
    factor, server period, scheduling mix) derives from the seed, so a
    failing seed reproduces byte-for-byte."""
    from repro.aadl.properties import SchedulingProtocol
    from repro.hier.check import check_partition
    from repro.hier.flatten import simulate_partition
    from repro.portfolio.context import build_context

    rng = np.random.default_rng(seed)
    n_partitions = int(rng.integers(1, 4))
    threads_per_partition = int(rng.integers(1, 4))
    utilization = float(rng.uniform(0.2, 0.8))
    instance = partitioned_system(
        n_partitions,
        threads_per_partition,
        utilization_per_partition=utilization,
        supply_factor=(0.6, 1.8),
        edf_fraction=0.3,
        rng=rng,
    )
    context = build_context(instance)
    if not context.applicable:  # pragma: no cover - generator guarantees
        raise RuntimeError(
            f"seed {seed}: generated model fell outside the analytic "
            f"fragment: {context.inapplicable}"
        )
    statuses = []
    details: List[str] = []
    interface_passes = sim_passes = conservative = 0
    partition_units = [u for u in context.units if u.interface is not None]
    for unit in partition_units:
        honest = unit.interface
        # ``fault`` corrupts the abstraction under test only.
        checked = honest.with_fault(fault)
        check = check_partition(
            unit.tasks,
            checked,
            ordering=unit.ordering,
            edf=(
                unit.protocol
                is SchedulingProtocol.EARLIEST_DEADLINE_FIRST
            ),
        )
        interface_ok = check is not None and check.ok
        # The flattened side always runs the *true* server parameters.
        run = simulate_partition(
            unit.tasks,
            honest.period,
            honest.budget,
            policy=unit.sim_policy or "rate",
            max_window=max_window,
        )
        status = implies(interface_ok, run.schedulable)
        statuses.append(status)
        interface_passes += interface_ok
        sim_passes += bool(run.schedulable)
        conservative += not interface_ok and bool(run.schedulable)
        if status is DISAGREED:
            details.append(
                f"{unit.processor} [{checked.token}]: interface passed "
                f"but flattened simulation misses "
                f"({run.misses[0][0]} at t={run.misses[0][1]})"
            )

    return RelationOutcome(
        seed,
        worst(statuses),
        f"{len(partition_units)} partition(s)",
        counts={
            "partitions": len(partition_units),
            "interface_passes": interface_passes,
            "simulation_passes": sim_passes,
            # interface-fail / simulation-pass splits: the abstraction's
            # cost, reported but never flagged
            "conservative": conservative,
        },
        details=details,
    )


RELATION = Relation(
    name="hier",
    help="seeded campaign asserting the BDR interface check never "
    "passes a partition the flattened simulation fails",
    evaluate=evaluate,
    params=(
        Param(
            "max_window",
            DEFAULT_CAMPAIGN_WINDOW,
            "flattened-simulation window cap per partition",
        ),
        Param(
            "fault",
            None,
            "inject a known interface-derivation bug into the analytic "
            "side (harness self-test; see repro.hier.interface.HIER_FAULTS)",
        ),
    ),
    faults=HIER_FAULTS,
)
