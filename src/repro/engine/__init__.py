"""Unified exploration engine for the versa/analysis stack.

This package is the single exploration substrate of the repo: the
schedulability verdict (deadlock detection), LTS export, reachability
queries, response-time scans and random walks all drive the one generic
:func:`~repro.engine.core.explore` loop, composed from four pluggable
layers:

* :class:`~repro.engine.provider.SuccessorProvider` -- the transition
  relation, with explicit, stat-tracking
  :class:`~repro.engine.cache.TransitionCache` objects behind it;
* :class:`~repro.engine.strategies.SearchStrategy` -- frontier
  discipline (:class:`BreadthFirst`, :class:`DepthFirst`,
  :class:`RandomWalk`, or your own);
* :class:`~repro.engine.budget.Budget` -- state / transition / time
  bounds with uniform raise-vs-truncate semantics;
* :class:`~repro.engine.observers.Observer` -- instrumentation hooks
  over the exploration event stream, summarized per run in an
  :class:`~repro.engine.stats.EngineStats` snapshot;
* :class:`~repro.engine.reduce.Reduction` -- optional state-space
  reduction passes (symmetry canonicalization, partial-order ample
  filtering) applied between the provider and the visited set; see
  ``docs/reduction.md``.

See ``docs/engine.md`` for the architecture and how to add a custom
search strategy.
"""

from repro.engine.budget import (
    Budget,
    LIMIT_SECONDS,
    LIMIT_STATES,
    LIMIT_TRANSITIONS,
)
from repro.engine.cache import TransitionCache
from repro.engine.core import explore
from repro.engine.observers import (
    CompositeObserver,
    Observer,
    ProgressObserver,
    RecordingObserver,
)
from repro.engine.provider import SuccessorProvider
from repro.engine.reduce import (
    PartialOrderReduction,
    Reduction,
    ReductionPass,
    SymmetryReduction,
    build_reduction,
    detect_replica_classes,
    parse_reduction_spec,
    reduction_token,
)
from repro.engine.result import (
    ExplorationResult,
    IncompleteExplorationWarning,
)
from repro.engine.stats import EngineStats
from repro.engine.strategies import (
    BreadthFirst,
    DepthFirst,
    RandomWalk,
    SearchStrategy,
    make_strategy,
)

__all__ = [
    "Budget",
    "BreadthFirst",
    "CompositeObserver",
    "DepthFirst",
    "EngineStats",
    "ExplorationResult",
    "IncompleteExplorationWarning",
    "LIMIT_SECONDS",
    "LIMIT_STATES",
    "LIMIT_TRANSITIONS",
    "Observer",
    "PartialOrderReduction",
    "ProgressObserver",
    "RandomWalk",
    "RecordingObserver",
    "Reduction",
    "ReductionPass",
    "SearchStrategy",
    "SuccessorProvider",
    "SymmetryReduction",
    "TransitionCache",
    "build_reduction",
    "detect_replica_classes",
    "explore",
    "make_strategy",
    "parse_reduction_spec",
    "reduction_token",
]
