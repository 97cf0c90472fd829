"""Compositional schedulability analysis: processor-island decomposition.

The monolithic pipeline explores the *product* of all per-processor
state spaces even when processors never interact (the paper's own
conclusion flags this explosion as the limit on model size).  This
package turns that product into a sum whenever the model allows it:

1. :mod:`~repro.compose.coupling` builds a **coupling graph** --
   processors as nodes, edges wherever two processors' timing is
   interdependent (cross-processor queued connections, shared buses,
   shared data) -- and partitions the model into **islands** (connected
   components);
2. :mod:`~repro.compose.slicer` cuts an analyzable
   :class:`~repro.aadl.SystemSlice` per island, and the islands fan out
   through the :mod:`repro.batch` pool with per-island verdict-cache
   keys (:func:`~repro.compose.runner.analyze_compositionally`);
3. :mod:`~repro.compose.combiner` folds the island verdicts: all
   SCHEDULABLE -> SCHEDULABLE, any UNSCHEDULABLE -> UNSCHEDULABLE with
   that island's counterexample, else UNKNOWN.

Whenever decomposition would be unsound (multi-modal model) or useless
(single processor, fully coupled graph) the driver falls back to the
monolithic analysis and records why.  The compositional ≡ monolithic
agreement is continuously cross-checked by the differential oracle
relation in :mod:`repro.oracle.request`.

See ``docs/compose.md``.
"""

from repro.compose.combiner import CompositionResult, combine_outcomes
from repro.compose.coupling import (
    CouplingEdge,
    CouplingGraph,
    Island,
    Partition,
    build_coupling_graph,
    partition_instance,
)
from repro.compose.runner import analyze_compositionally, plan
from repro.compose.slicer import island_slice, partition_slices

__all__ = [
    "CompositionResult",
    "CouplingEdge",
    "CouplingGraph",
    "Island",
    "Partition",
    "analyze_compositionally",
    "build_coupling_graph",
    "combine_outcomes",
    "island_slice",
    "partition_instance",
    "partition_slices",
    "plan",
]
