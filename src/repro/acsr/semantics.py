"""Unprioritized operational semantics of ACSR.

``transitions(term, env)`` computes the outgoing steps of a *closed* term:
a tuple of ``(label, successor)`` pairs where ``label`` is either a ground
:class:`~repro.acsr.resources.Action` (timed step, one quantum) or a ground
:class:`~repro.acsr.events.EventLabel` (instantaneous step).

Rules implemented (paper S3; Lee, Bremond-Gregoire & Gerber 1994):

* prefixes contribute their single step;
* choice is the union of the summands' steps;
* parallel composition interleaves event steps, synchronizes matching
  send/receive pairs into ``tau@name`` steps with summed priority, and --
  rule (Par3) -- lets *all* components perform timed steps simultaneously
  provided their resource sets are pairwise disjoint (time progress is
  global: a component with no timed step blocks time for the whole
  composition);
* restriction deletes unsynchronized steps on restricted names;
* resource closure extends timed steps with priority-0 claims;
* temporal scopes route exception/timeout/interrupt exits;
* process references unfold through the definition environment (with
  detection of unguarded recursion).

The function is pure; memoization lives in the environment's caches
(``trans_cache`` and the per-component ``table_cache``) and in
:class:`repro.acsr.definitions.ClosedSystem`.

``product_steps(term, env)`` is the explorer's compiled product step:
the *prioritized* steps of a parallel composition, bare or under a
restriction, equal to ``prioritized(transitions(term, env))`` order
included.  It computes every candidate's label first and builds
successors only for the steps the priority filter keeps.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import AcsrDefinitionError, AcsrSemanticsError
from repro.acsr.events import IN, OUT, EventLabel
from repro.acsr.priority import unpreempted
from repro.acsr.resources import Action
from repro.acsr.terms import (
    ActionPrefix,
    Choice,
    Close,
    EventPrefix,
    Guard,
    Hide,
    Nil,
    Parallel,
    ProcRef,
    Restrict,
    Scope,
    Term,
    by_rank,
    parallel,
    scope,
)

Transition = Tuple[object, Term]  # (Action | EventLabel, successor)

_COMPLEMENT = {IN: OUT, OUT: IN}


def transitions(term: Term, env) -> Tuple[Transition, ...]:
    """All unprioritized transitions of a closed term."""
    return _trans(term, env, frozenset())


def _trans(
    term: Term, env, active: FrozenSet[ProcRef]
) -> Tuple[Transition, ...]:
    # Subterm memoization: during exploration the same component terms
    # recur under thousands of parent states, and recomputing their
    # steps dominated the profile (see DESIGN.md / EXPERIMENTS.md).  A
    # *completed* computation is independent of the cycle-guard set
    # ``active`` (the guard only detects unguarded recursion, which
    # raises instead of returning), so caching finished results by term
    # is sound.  Terms are interned, making the dict lookup an identity
    # hash.  The cache is the environment's explicit
    # :class:`~repro.engine.cache.TransitionCache` (``env.trans_cache``),
    # created in ``ProcessEnv.__init__`` -- observable and clearable,
    # not a monkey-patched attribute.
    cache = env.trans_cache
    cached = cache.get(term)
    if cached is not None:
        return cached
    result = _trans_uncached(term, env, active)
    cache.put(term, result)
    return result


def _trans_uncached(
    term: Term, env, active: FrozenSet[ProcRef]
) -> Tuple[Transition, ...]:
    if isinstance(term, Nil):
        return ()
    if isinstance(term, ActionPrefix):
        if not term.action.is_ground:
            raise AcsrSemanticsError(
                f"open action in closed-term semantics: {term.action!r}"
            )
        return ((term.action, term.continuation),)
    if isinstance(term, EventPrefix):
        if not term.label.is_ground:
            raise AcsrSemanticsError(
                f"open event priority in closed-term semantics: {term.label!r}"
            )
        return ((term.label, term.continuation),)
    if isinstance(term, Choice):
        return _trans_choice(term, env, active)
    if isinstance(term, Parallel):
        return _trans_parallel(term, env, active)
    if isinstance(term, Restrict):
        return _trans_restrict(term, env, active)
    if isinstance(term, Close):
        return _trans_close(term, env, active)
    if isinstance(term, Hide):
        return _trans_hide(term, env, active)
    if isinstance(term, Scope):
        return _trans_scope(term, env, active)
    if isinstance(term, ProcRef):
        if term in active:
            raise AcsrDefinitionError(
                f"unguarded recursion through {term.name}"
                + (f"{term.args}" if term.args else "")
            )
        body = env.unfold(term)
        return _trans(body, env, active | {term})
    if isinstance(term, Guard):
        raise AcsrSemanticsError(
            "guard survived instantiation; semantics requires closed terms"
        )
    raise AcsrSemanticsError(f"unknown term kind {type(term).__name__}")


def _dedup(pairs: List[Transition]) -> Tuple[Transition, ...]:
    seen: Dict[Tuple[object, Term], None] = {}
    for pair in pairs:
        seen.setdefault(pair, None)
    return tuple(seen)


def _trans_choice(
    term: Choice, env, active: FrozenSet[ProcRef]
) -> Tuple[Transition, ...]:
    result: List[Transition] = []
    for child in term.children:
        result.extend(_trans(child, env, active))
    return _dedup(result)


def _with_children(
    children: Tuple[Term, ...], replaced: Tuple[Tuple[int, Term], ...]
) -> Term:
    """Parallel composition with the children at the given (ascending)
    indices replaced by successors.

    Fast path for the dominant case (profiling: successor construction
    was the second-largest cost): the untouched children are already in
    canonical order, so non-Parallel successors only need a binary-
    search insertion instead of the generic flatten-and-sort.
    """
    rest = list(children)
    if any(isinstance(successor, Parallel) for _, successor in replaced):
        for index, successor in replaced:
            rest[index] = successor
        return parallel(*rest)
    for index, _ in reversed(replaced):
        del rest[index]
    for _, successor in replaced:
        insort(rest, successor, key=by_rank)
    if len(rest) == 1:
        return rest[0]
    return Parallel(tuple(rest))


class _Component:
    """A parallel component's steps, split once for the parallel rule.

    ``events`` holds the event steps in step order, ``timed`` the timed
    steps, ``sync`` the non-tau event steps indexed by
    ``(name, direction)``, and ``wants`` pairs each of those keys'
    complement with its steps.  :meth:`free_events` remembers, per
    enclosing restriction, the event steps it lets through.  Two entries
    are equal when their steps are; the rest derives from them.
    """

    __slots__ = ("events", "timed", "sync", "wants", "_free")

    def __init__(self, steps: Tuple[Transition, ...]) -> None:
        events: List[Transition] = []
        timed: List[Transition] = []
        sync: Dict[Tuple[str, str], List[Transition]] = {}
        for label, succ in steps:
            if isinstance(label, Action):
                timed.append((label, succ))
                continue
            events.append((label, succ))
            if not label.is_tau:
                sync.setdefault((label.name, label.direction), []).append(
                    (label, succ)
                )
        self.events = tuple(events)
        self.timed = tuple(timed)
        self.sync = sync
        self.wants = tuple(
            ((name, _COMPLEMENT[direction]), senders)
            for (name, direction), senders in sync.items()
        )
        self._free: Dict[FrozenSet[str], Tuple[Transition, ...]] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Component):
            return NotImplemented
        return (self.events, self.timed, self.sync) == (
            other.events,
            other.timed,
            other.sync,
        )

    def free_events(
        self, restricted: FrozenSet[str]
    ) -> Tuple[Transition, ...]:
        """The event steps on names ``restricted`` does not cover (a
        restricted event can only synchronize)."""
        free = self._free.get(restricted)
        if free is None:
            free = self._free[restricted] = tuple(
                (label, succ)
                for label, succ in self.events
                if label.name not in restricted
            )
        return free


def _components(
    children: Tuple[Term, ...], env, active: FrozenSet[ProcRef]
) -> List[_Component]:
    """The component entries of ``children``, from the environment's
    ``table_cache`` -- not a global dict: terms are interned
    process-wide, but a ``ProcRef`` unfolds through its own
    environment's definitions."""
    tables = env.table_cache
    comps: List[_Component] = []
    for child in children:
        entry = tables.get(child)
        if entry is None:
            entry = _Component(_trans(child, env, active))
            tables.put(child, entry)
        comps.append(entry)
    return comps


def _event_moves(
    comps: List[_Component], restricted: FrozenSet[str]
) -> Tuple[List[object], List[tuple]]:
    """The event steps of a parallel composition, as labels and the
    moves that build their successors: ``((i, succ),)`` when component
    ``i`` moves alone, ``((i, succ_i), (j, succ_j))`` when ``i < j``
    synchronize.
    """
    labels: List[object] = []
    moves: List[tuple] = []

    # Event interleaving: one component moves, the rest stand still.
    # ``offered`` lists the components offering each (name, direction).
    offered: Dict[Tuple[str, str], List[int]] = {}
    for i, comp in enumerate(comps):
        for label, succ in comp.free_events(restricted):
            labels.append(label)
            moves.append(((i, succ),))
        for key in comp.sync:
            offered.setdefault(key, []).append(i)

    # CCS-style synchronization between components i < j, in (i, j)
    # order, visiting only the pairs that offer complementary events.
    pairs = set()
    for (name, direction), senders in offered.items():
        if direction == OUT:
            for j in offered.get((name, IN), ()):
                for i in senders:
                    if i < j:
                        pairs.add((i, j))
                    elif j < i:
                        pairs.add((j, i))
    for i, j in sorted(pairs):
        sync_j = comps[j].sync
        for key, steps_i in comps[i].wants:
            for label_i, succ_i in steps_i:
                for label_j, succ_j in sync_j.get(key, ()):
                    labels.append(label_i.synchronize(label_j))
                    moves.append(((i, succ_i), (j, succ_j)))
    return labels, moves


def _timed_moves(comps: List[_Component]) -> List[Tuple[Action, tuple]]:
    """(Par3): simultaneous timed steps with pairwise disjoint resources.

    Every component must take a timed step; a component with none blocks
    global time progress.  Returns ``(action, path)`` pairs, where the
    path links the components' successors (last first) as
    ``(succ, rest)`` cells.
    """
    combos: List[Tuple[Optional[Action], Optional[tuple]]] = [(None, None)]
    for comp in comps:
        options = comp.timed
        new_combos: List[Tuple[Optional[Action], Optional[tuple]]] = []
        for acc, path in combos:
            for label, succ in options:
                if acc is None:
                    merged: Optional[Action] = label
                elif acc.disjoint(label):
                    merged = acc.union(label)
                else:
                    continue
                new_combos.append((merged, (succ, path)))
        combos = new_combos
        if not combos:
            break
    return combos  # type: ignore[return-value]


def _path_successor(path: Optional[tuple]) -> Term:
    succs: List[Term] = []
    while path is not None:
        succ, path = path
        succs.append(succ)
    return parallel(*succs)


def _trans_parallel(
    term: Parallel,
    env,
    active: FrozenSet[ProcRef],
    restricted: FrozenSet[str] = frozenset(),
) -> Tuple[Transition, ...]:
    """Steps of a parallel composition; events named in ``restricted``
    (by an enclosing restriction) only synchronize."""
    children = term.children
    comps = _components(children, env, active)
    labels, moves = _event_moves(comps, restricted)
    result: List[Transition] = [
        (label, _with_children(children, move))
        for label, move in zip(labels, moves)
    ]
    if all(comp.timed for comp in comps):
        for merged, path in _timed_moves(comps):
            result.append((merged, _path_successor(path)))
    return _dedup(result)


def product_steps(term: Term, env) -> Tuple[Transition, ...]:
    """Prioritized steps of a parallel composition, bare or under a
    restriction: ``prioritized(transitions(term, env))``, computed
    without building what preemption removes.

    Labels come first and successors only for the steps that survive
    the priority filter.  An enabled ``(tau, n > 0)`` preempts every
    timed step, so then the (Par3) product is not enumerated at all.
    """
    if isinstance(term, Restrict):
        wrapper: Optional[Restrict] = term
        body = term.body
        restricted = term.names
    else:
        wrapper = None
        body = term
        restricted = frozenset()
    children = body.children
    comps = _components(children, env, frozenset())
    labels, moves = _event_moves(comps, restricted)
    n_events = len(labels)
    if all(comp.timed for comp in comps) and not any(
        label.is_tau and label.int_priority() > 0 for label in labels
    ):
        for merged, path in _timed_moves(comps):
            labels.append(merged)
            moves.append(path)
    seen: Dict[Transition, None] = {}
    for k in unpreempted(labels):
        if k < n_events:
            succ = _with_children(children, moves[k])
        else:
            succ = _path_successor(moves[k])
        if wrapper is not None:
            succ = wrapper.rewrap(succ)
        seen.setdefault((labels[k], succ), None)
    return tuple(seen)


def _trans_restrict(
    term: Restrict, env, active: FrozenSet[ProcRef]
) -> Tuple[Transition, ...]:
    names = term.names
    if isinstance(term.body, Parallel):
        # Restriction-aware interleaving: a restricted event of a
        # component can only synchronize, so its interleaving successor
        # is never built just to be deleted here.
        steps = _trans_parallel(term.body, env, active, names)
    else:
        steps = [
            (label, succ)
            for label, succ in _trans(term.body, env, active)
            if not (
                isinstance(label, EventLabel)
                and not label.is_tau
                and label.name in names
            )
        ]
    # The body's steps are already deduplicated and wrapping is
    # injective, so no second dedup pass is needed.
    return tuple((label, term.rewrap(succ)) for label, succ in steps)


def _trans_close(
    term: Close, env, active: FrozenSet[ProcRef]
) -> Tuple[Transition, ...]:
    result: List[Transition] = []
    for label, succ in _trans(term.body, env, active):
        wrapped = Close(succ, term.resources)
        if isinstance(label, Action):
            result.append((label.closed_over(term.resources), wrapped))
        else:
            result.append((label, wrapped))
    return _dedup(result)


def _trans_hide(
    term: Hide, env, active: FrozenSet[ProcRef]
) -> Tuple[Transition, ...]:
    result: List[Transition] = []
    for label, succ in _trans(term.body, env, active):
        wrapped = Hide(succ, term.resources)
        if isinstance(label, Action):
            kept = Action(
                tuple(
                    (res, pri)
                    for res, pri in label.pairs
                    if res not in term.resources
                )
            )
            result.append((kept, wrapped))
        else:
            result.append((label, wrapped))
    return _dedup(result)


def _trans_scope(
    term: Scope, env, active: FrozenSet[ProcRef]
) -> Tuple[Transition, ...]:
    result: List[Transition] = []
    for label, succ in _trans(term.body, env, active):
        if isinstance(label, Action):
            new_bound = None if term.bound is None else term.bound - 1
            result.append(
                (
                    label,
                    scope(
                        succ,
                        bound=new_bound,
                        exception=term.exception,
                        success=term.success,
                        timeout=term.timeout,
                        interrupt=term.interrupt,
                    ),
                )
            )
        else:
            if (
                term.exception is not None
                and label.is_output
                and label.name == term.exception
            ):
                # Voluntary exit: the exception event is observable and
                # control transfers to the success handler.
                result.append((label, term.success))
            else:
                result.append(
                    (
                        label,
                        scope(
                            succ,
                            bound=term.bound,
                            exception=term.exception,
                            success=term.success,
                            timeout=term.timeout,
                            interrupt=term.interrupt,
                        ),
                    )
                )
    # Involuntary exit: any initial step of the interrupt handler.
    result.extend(_trans(term.interrupt, env, active))
    return _dedup(result)
