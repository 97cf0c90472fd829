"""The generic exploration loop.

One loop drives every search in the repo: deadlock detection for the
schedulability verdict, full-space enumeration for LTS export and
response-time scans, reachability queries, and bounded random walks.
The loop composes four seams:

* a :class:`~repro.engine.provider.SuccessorProvider` computing (and
  caching) the transition relation;
* a :class:`~repro.engine.strategies.SearchStrategy` owning the
  frontier discipline (BFS / DFS / random walk / future plug-ins);
* a :class:`~repro.engine.budget.Budget` bounding states, transitions
  and wall-clock time with uniform raise-vs-truncate semantics;
* :class:`~repro.engine.observers.Observer` hooks watching the event
  stream (progress, statistics, dumps).

States are hash-consed ACSR terms, so the visited/parent map is an
identity-keyed dict and dedup is pointer equality -- the single most
important performance property of the engine (state dedup dominates
exploration; see DESIGN.md).
"""

from __future__ import annotations

import sys
import time
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.engine.budget import (
    Budget,
    LIMIT_SECONDS,
    LIMIT_STATES,
    LIMIT_TRANSITIONS,
)
from repro.engine.observers import Observer, combine
from repro.engine.provider import SuccessorProvider
from repro.engine.result import ExplorationResult
from repro.engine.stats import EngineStats
from repro.engine.strategies import SearchStrategy, make_strategy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.acsr.definitions import ClosedSystem
    from repro.acsr.terms import Term
    from repro.engine.reduce import Reduction


def explore(
    system: "ClosedSystem",
    *,
    strategy: Union[SearchStrategy, str, None] = None,
    prioritized: bool = True,
    budget: Optional[Budget] = None,
    store_transitions: bool = False,
    stop_at_first_deadlock: bool = False,
    target: Optional[Callable[["Term"], bool]] = None,
    stop_at_target: bool = False,
    observers: Union[Observer, Iterable[Observer], None] = None,
    provider: Optional[SuccessorProvider] = None,
    reduction: Optional["Reduction"] = None,
) -> ExplorationResult:
    """Explore the state space of ``system`` from its root.

    Args:
        system: the closed ACSR system to explore.
        strategy: a :class:`SearchStrategy` instance or one of
            ``"bfs"`` (default), ``"dfs"``, ``"random-walk"``.
        prioritized: explore the prioritized transition relation (the
            paper's semantics) or, for ablation, the unprioritized one.
            Ignored when an explicit ``provider`` is given.
        budget: state/transition/time bounds; defaults to
            ``Budget()`` (1M states, raise on exhaustion).
        store_transitions: keep the full transition table (needed for
            LTS export and minimization; costs memory).
        stop_at_first_deadlock: return as soon as a deadlock is found;
            under BFS this yields a shortest counterexample.
        target: optional predicate on states; matches are collected in
            ``target_states``.
        stop_at_target: stop as soon as the predicate matches.
        observers: an observer or sequence of observers to notify.
        reduction: optional :class:`~repro.engine.reduce.Reduction`
            pipeline.  States are canonicalized to orbit representatives
            before the visited-set check and step sets pass through the
            ample filter; a nonempty step set never becomes empty, so
            deadlock detection and UNKNOWN-on-truncation semantics are
            preserved exactly.

    Returns:
        An :class:`~repro.engine.result.ExplorationResult` whose
        ``stats`` attribute carries the run's :class:`EngineStats`.

    When a recording tracer is installed (:mod:`repro.obs`), the run is
    wrapped in an ``engine.explore`` span whose annotations come from
    the observer event stream itself -- one
    :class:`~repro.obs.bridge.SpanObserver` joins the observer list, so
    tracing adds no second callback path and the disabled tracer costs
    one attribute read per call.
    """
    from repro.obs.tracer import current_tracer

    tracer = current_tracer()
    if tracer.enabled:
        from repro.obs.bridge import SpanObserver

        with tracer.span("engine.explore") as span:
            result = _explore(
                system,
                strategy=strategy,
                prioritized=prioritized,
                budget=budget,
                store_transitions=store_transitions,
                stop_at_first_deadlock=stop_at_first_deadlock,
                target=target,
                stop_at_target=stop_at_target,
                observers=[combine(observers), SpanObserver(span)],
                provider=provider,
                reduction=reduction,
            )
            if reduction is not None:
                _trace_reduction(tracer, result.stats)
            return result
    return _explore(
        system,
        strategy=strategy,
        prioritized=prioritized,
        budget=budget,
        store_transitions=store_transitions,
        stop_at_first_deadlock=stop_at_first_deadlock,
        target=target,
        stop_at_target=stop_at_target,
        observers=observers,
        provider=provider,
        reduction=reduction,
    )


def _trace_reduction(tracer, stats: EngineStats) -> None:
    """Emit per-pass reduction spans summarizing this run's counters."""
    count = stats.counters.get
    canonicalized = count("reduce.states_canonicalized", 0)
    merged = count("reduce.orbits_merged", 0)
    if canonicalized or merged:
        with tracer.span("reduce.canonicalize") as span:
            span.incr("states_canonicalized", canonicalized)
            span.incr("orbits_merged", merged)
    pruned = count("reduce.por_pruned", 0)
    if pruned:
        with tracer.span("reduce.ample") as span:
            span.incr("por_pruned", pruned)


def _explore(
    system: "ClosedSystem",
    *,
    strategy: Union[SearchStrategy, str, None],
    prioritized: bool,
    budget: Optional[Budget],
    store_transitions: bool,
    stop_at_first_deadlock: bool,
    target: Optional[Callable[["Term"], bool]],
    stop_at_target: bool,
    observers: Union[Observer, Iterable[Observer], None],
    provider: Optional[SuccessorProvider],
    reduction: Optional["Reduction"] = None,
) -> ExplorationResult:
    search = make_strategy(strategy)
    if provider is None:
        provider = SuccessorProvider(system, prioritized=prioritized)
    if budget is None:
        budget = Budget()
    observer = combine(observers)

    start = time.perf_counter()
    hits0, misses0, evictions0 = provider.cache_counters()
    reduction0 = reduction.counters() if reduction is not None else {}

    initial = provider.root
    if reduction is not None:
        initial = reduction.canonicalize(initial)
    parent: Dict["Term", Tuple[Optional["Term"], Optional[object]]] = {
        initial: (None, None)
    }
    transitions: Optional[
        Dict["Term", Tuple[Tuple[object, "Term"], ...]]
    ] = ({} if store_transitions else None)
    deadlocks: List["Term"] = []
    deadlock_seen: Dict["Term", None] = {}
    targets: List["Term"] = []
    num_transitions = 0
    expanded = 0
    frontier_peak = 1
    stopped_early = False
    limit_hit: Optional[str] = None

    search.reset(initial)
    if observer is not None:
        observer.on_start(initial)
    if target is not None and target(initial):
        targets.append(initial)
        if observer is not None:
            observer.on_target(initial)
        if stop_at_target:
            search.clear()
            stopped_early = True

    while len(search):
        if budget.max_seconds is not None and (
            time.perf_counter() - start > budget.max_seconds
        ):
            if observer is not None:
                observer.on_limit(LIMIT_SECONDS, len(parent))
            if budget.raises:
                raise budget.limit_error(
                    f"time budget {budget.max_seconds}s exhausted after "
                    f"{len(parent)} states",
                    states_explored=len(parent),
                )
            limit_hit = LIMIT_SECONDS
            stopped_early = True
            break

        state = search.pop()
        steps = provider.successors(state)
        if reduction is not None and steps:
            # Ample filter first (it inspects the genuine labels), then
            # map each successor to its orbit representative so the
            # visited map stores one state per equivalence class.  A
            # nonempty step set stays nonempty, so the deadlock check
            # below still sees exactly the states with no transitions.
            steps = reduction.filter(state, steps)
            steps = tuple(
                (label, reduction.canonicalize(successor))
                for label, successor in steps
            )
        expanded += 1
        if observer is not None:
            observer.on_state(state, len(parent))
        if transitions is not None:
            transitions[state] = steps

        if not steps:
            if state not in deadlock_seen:
                deadlock_seen[state] = None
                deadlocks.append(state)
            if observer is not None:
                observer.on_deadlock(state)
            if stop_at_first_deadlock:
                stopped_early = True
                break
            continue

        num_transitions += len(steps)
        if (
            budget.max_transitions is not None
            and num_transitions > budget.max_transitions
        ):
            if observer is not None:
                observer.on_limit(LIMIT_TRANSITIONS, len(parent))
            if budget.raises:
                raise budget.limit_error(
                    f"transition budget {budget.max_transitions} exhausted "
                    f"after {len(parent)} states",
                    states_explored=len(parent),
                )
            limit_hit = LIMIT_TRANSITIONS
            stopped_early = True
            break

        new_flags: List[bool] = []
        halt = False
        for label, successor in steps:
            is_new = successor not in parent
            if is_new:
                if (
                    budget.max_states is not None
                    and len(parent) >= budget.max_states
                ):
                    if observer is not None:
                        observer.on_limit(LIMIT_STATES, len(parent))
                    if budget.raises:
                        raise budget.limit_error(
                            f"state budget {budget.max_states} exhausted",
                            states_explored=len(parent),
                        )
                    limit_hit = LIMIT_STATES
                    stopped_early = True
                    halt = True
                    break
                parent[successor] = (state, label)
                if target is not None and target(successor):
                    targets.append(successor)
                    if observer is not None:
                        observer.on_target(successor)
                    if stop_at_target:
                        stopped_early = True
                        halt = True
            new_flags.append(is_new)
            if observer is not None:
                observer.on_transition(state, label, successor, is_new)
            if halt:
                break
        if halt:
            search.clear()
            break
        search.extend(state, steps, new_flags)
        frontier = len(search)
        if frontier > frontier_peak:
            frontier_peak = frontier

    elapsed = time.perf_counter() - start
    hits1, misses1, evictions1 = provider.cache_counters()
    reduction1 = reduction.counters() if reduction is not None else {}
    stats = EngineStats(
        strategy=search.name,
        states=len(parent),
        transitions=num_transitions,
        expanded=expanded,
        elapsed=elapsed,
        wall_elapsed=elapsed,
        frontier_peak=frontier_peak,
        parent_map_bytes=sys.getsizeof(parent),
        cache_hits=hits1 - hits0,
        cache_misses=misses1 - misses0,
        cache_evictions=evictions1 - evictions0,
        counters={
            f"reduce.{name}": count - reduction0.get(name, 0)
            for name, count in reduction1.items()
        },
        limit_hit=limit_hit,
    )
    result = ExplorationResult(
        initial,
        num_states=len(parent),
        num_transitions=num_transitions,
        deadlock_states=deadlocks,
        target_states=targets,
        completed=search.exhaustive and not stopped_early and not len(search),
        elapsed=elapsed,
        parent=parent,
        transitions=transitions,
        stats=stats,
        limit_hit=limit_hit,
    )
    if observer is not None:
        observer.on_finish(result)
    return result
