"""Differential oracle for the transition-aware modal analysis.

Two relations per seeded fault/recovery system
(:func:`repro.workloads.generators.faulty_modal_system`), both over the
asynchronous protocol (the one with actual transient machinery):

* **steady equivalence** -- every reachable mode's verdict inside
  :func:`repro.modal.analyze_modal` must equal an independent
  :func:`~repro.analysis.schedulability.analyze_model` run of the same
  mode instantiated on its own.  The modal steady half is plumbing over
  the same engine, so any drift is a routing bug.
* **transient soundness (one-sided)** -- a transition the modal checker
  calls SCHEDULABLE must be miss-free in the reference: the honest
  exhaustive simulation of the switch at *every* boundary phasing of
  the old mode's hyperperiod, full window, carry-over included
  (:func:`repro.modal.transient.simulate_transition` driven directly by
  the oracle).  The converse need not hold -- the modal side may return
  UNSCHEDULABLE or UNKNOWN conservatively -- so a modal-fail /
  reference-pass split is conservatism, not a bug; each transition is
  classified with :func:`repro.oracle.relations.implies`.

* ``AGREED`` -- steady halves match and no transition is passed
  unsoundly;
* ``UNKNOWN`` -- the reference exceeded its caps on some transition the
  modal side passed, so soundness could not be confirmed;
* ``DISAGREED`` -- a steady verdict mismatch, or a transition passed by
  the modal checker that the reference simulation misses.  CI gates on
  it.

``fault=`` injects a registered transient-checker defect
(:data:`repro.modal.transient.MODAL_FAULTS`) into the modal side only
-- the reference always simulates honestly -- and the campaign must
then disagree on some seed: the self-test that this oracle would catch
an unsound transient shortcut.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.modal.transient import MODAL_FAULTS
from repro.oracle.relations import (
    DISAGREED,
    Param,
    Relation,
    RelationOutcome,
    implies,
    worst,
)
from repro.workloads.generators import faulty_modal_system

#: Caps for campaign cases; generator periods are small powers of two,
#: so real phasing counts and windows stay far below these.
DEFAULT_CAMPAIGN_PHASINGS = 512
DEFAULT_CAMPAIGN_WINDOW = 1 << 15

_ROOT = "FaultyModal.impl"


def _reference_transition(
    edge,
    mode_units,
    *,
    max_phasings: int,
    max_window: int,
) -> Optional[bool]:
    """The honest reference: simulate the switch at every boundary
    phasing of the old mode's hyperperiod, carry-over included, full
    window -- no analytic shortcut, no fault.  None when a cap is hit
    or the task model is unavailable."""
    from repro.modal.transient import simulate_transition
    from repro.sched.simulation import exact_simulation_horizon
    from repro.sched.taskmodel import TaskSet

    old_units = mode_units.get(edge.source.lower())
    new_units = mode_units.get(edge.target.lower())
    if not isinstance(old_units, dict) or not isinstance(new_units, dict):
        return None
    for processor in sorted(set(old_units) | set(new_units)):
        old_unit = old_units.get(processor)
        new_unit = new_units.get(processor)
        unit = new_unit or old_unit
        policy = unit.sim_policy
        if policy is None:
            return None
        old_tasks = list(old_unit.tasks) if old_unit else []
        new_tasks = list(new_unit.tasks) if new_unit else []
        old_hyper = TaskSet(old_tasks).hyperperiod
        if old_hyper > max_phasings:
            return None
        new_set = TaskSet(new_tasks)
        max_old_deadline = max(
            (t.offset + t.deadline for t in old_tasks), default=0
        )
        for switch in range(old_hyper):
            window = exact_simulation_horizon(
                new_set, lead_in=switch + max_old_deadline
            )
            if window is None:
                return False  # the new mode alone outgrows the processor
            if window > max_window:
                return None
            ok, _ = simulate_transition(
                old_tasks,
                new_tasks,
                switch=switch,
                policy=policy,
                window=window,
            )
            if not ok:
                return False
    return True


def draw(seed: int):
    """The fault/recovery modal system of ``seed`` (root
    ``FaultyModal.impl``): every parameter -- mode count, threads,
    utilizations, orphan mode -- derives from the seed."""
    rng = np.random.default_rng(seed)
    n_modes = int(rng.integers(2, 4))
    threads_per_mode = int(rng.integers(1, 4))
    return faulty_modal_system(
        n_modes,
        threads_per_mode,
        include_orphan=bool(rng.random() < 0.25),
        rng=rng,
    )


def evaluate(
    seed: int,
    *,
    max_phasings: int = DEFAULT_CAMPAIGN_PHASINGS,
    max_window: int = DEFAULT_CAMPAIGN_WINDOW,
    fault: Optional[str] = None,
) -> RelationOutcome:
    """Draw one fault/recovery modal system from ``seed`` and compare
    the transition-aware analysis against the steady and transient
    references.  The draw (:func:`draw`) derives from the seed alone,
    so a failing seed reproduces byte-for-byte."""
    from repro.aadl.instance import instantiate
    from repro.analysis.schedulability import Verdict, analyze_model
    from repro.modal import analyze_modal
    from repro.modal.analysis import _steady_unit_map

    model = draw(seed)
    impl = model.implementation(_ROOT)
    modal = analyze_modal(
        model,
        _ROOT,
        protocol="asynchronous",
        max_phasings=max_phasings,
        max_window=max_window,
        fault=fault,
    )

    statuses = []
    details: List[str] = []
    steady_mismatches = 0
    for mode, outcome in modal.steady.per_mode.items():
        independent = analyze_model(
            instantiate(model, _ROOT, mode_overrides={impl.name: mode})
        )
        # Strict identity, not ``equal``: both sides run the same
        # engine at the same budget, so even an UNKNOWN on one side
        # only is a routing bug.
        if independent.verdict is not outcome.verdict:
            steady_mismatches += 1
            statuses.append(DISAGREED)
            details.append(
                f"mode {mode}: modal steady says {outcome.verdict.value}, "
                f"independent analysis says {independent.verdict.value}"
            )

    # The reference extracts task sets honestly, under the same
    # common-quantizer rule the modal side uses.
    mode_units = _steady_unit_map(
        model, impl, list(modal.steady.per_mode), None
    )
    modal_passes = reference_passes = conservative = 0
    for outcome in modal.transitions:
        modal_pass = outcome.verdict is Verdict.SCHEDULABLE
        reference_ok = _reference_transition(
            outcome.edge,
            mode_units,
            max_phasings=max_phasings,
            max_window=max_window,
        )
        status = implies(modal_pass, reference_ok)
        statuses.append(status)
        modal_passes += modal_pass
        reference_passes += bool(reference_ok)
        conservative += not modal_pass and bool(reference_ok)
        if status is DISAGREED:
            details.append(
                f"transition {outcome.edge.label}: modal checker passed "
                f"({outcome.decided_by}) but the exhaustive phasing "
                f"simulation misses"
            )

    return RelationOutcome(
        seed,
        worst(statuses),
        f"{len(modal.transitions)} transition(s)",
        counts={
            "transitions": len(modal.transitions),
            "modal_passes": modal_passes,
            "reference_passes": reference_passes,
            # modal-fail(/unknown) / reference-pass splits: conservatism
            "conservative": conservative,
            "steady_mismatches": steady_mismatches,
        },
        details=details,
    )


RELATION = Relation(
    name="modal",
    help="seeded campaign asserting the modal steady half matches "
    "independent per-mode analysis and the transient checker "
    "never passes a transition the exhaustive switch-phasing "
    "simulation fails",
    evaluate=evaluate,
    params=(
        Param(
            "max_phasings",
            DEFAULT_CAMPAIGN_PHASINGS,
            "switch-phasing cap per transition",
        ),
        Param(
            "max_window",
            DEFAULT_CAMPAIGN_WINDOW,
            "transient-simulation window cap per phasing",
        ),
        Param(
            "fault",
            None,
            "inject a known transient-checker bug into the modal side "
            "(harness self-test; see repro.modal.transient.MODAL_FAULTS)",
        ),
    ),
    faults=MODAL_FAULTS,
)
