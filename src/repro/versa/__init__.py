"""VERSA-style analysis surface: state-space queries over ACSR systems.

The original VERSA tool (Clarke, Lee & Xie 1995) performs state-space
exploration and deadlock detection over the prioritized transition
relation of an ACSR model; the paper (S5) reduces schedulability to
exactly that question.  The exploration loop itself is
:func:`repro.engine.explore` (pluggable search strategies, explicit
transition cache, observer hooks); this subpackage is the
analysis-facing surface over it:

* :class:`~repro.versa.traces.Trace` -- counterexample traces (the
  "failing scenarios" of the paper);
* :mod:`~repro.versa.queries` -- deadlock-freedom, reachability and
  observer-style queries;
* :class:`~repro.versa.lts.LTS` -- an explicit labelled transition system
  for export (networkx) and minimization;
* :mod:`~repro.versa.minimize` -- strong-bisimulation quotient via
  partition refinement;
* :mod:`~repro.versa.walk` -- bounded random walks (the engine's
  random-walk strategy wearing its trace-producing API).
"""

from repro.versa.traces import Step, Trace
from repro.versa.lts import LTS
from repro.versa.queries import (
    deadlock_free,
    find_deadlock,
    find_reachable,
    reachable_states,
)
from repro.versa.minimize import bisimulation_quotient, minimized_lts
from repro.versa.weak import weak_bisimulation_quotient
from repro.versa.walk import (
    event_first_policy,
    multi_walk,
    random_walk,
    uniform_policy,
    walk_statistics,
)

__all__ = [
    "LTS",
    "Step",
    "Trace",
    "bisimulation_quotient",
    "deadlock_free",
    "event_first_policy",
    "minimized_lts",
    "multi_walk",
    "random_walk",
    "uniform_policy",
    "walk_statistics",
    "weak_bisimulation_quotient",
    "find_deadlock",
    "find_reachable",
    "reachable_states",
]
