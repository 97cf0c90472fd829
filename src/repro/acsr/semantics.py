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
"""

from __future__ import annotations

from bisect import insort
from operator import attrgetter
from typing import Dict, FrozenSet, List, Tuple

from repro.errors import AcsrDefinitionError, AcsrSemanticsError
from repro.acsr.events import IN, OUT, EventLabel
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
    parallel,
    scope,
)

Transition = Tuple[object, Term]  # (Action | EventLabel, successor)

_COMPLEMENT = {IN: OUT, OUT: IN}
_term_id = attrgetter("_id")


def transitions(
    term: Term, env, *, urgent: bool = False
) -> Tuple[Transition, ...]:
    """All unprioritized transitions of a closed term.

    ``urgent=True`` is for callers that prioritize the result next
    (``ClosedSystem.prioritized_steps``).  When ``term`` is a parallel
    composition, bare or under a restriction, and enables an internal
    step of positive priority, its (Par3) timed steps are left out:
    that step preempts every one of them (``A <. (tau, n)`` for
    ``n > 0``), so the prioritized relation is unchanged.  Such a
    result is not the term's full relation and is never cached.
    """
    if urgent:
        if isinstance(term, Parallel):
            return _trans_parallel(term, env, frozenset(), urgent=True)
        if isinstance(term, Restrict) and isinstance(term.body, Parallel):
            return _trans_restrict(term, env, frozenset(), urgent=True)
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
        insort(rest, successor, key=_term_id)
    if len(rest) == 1:
        return rest[0]
    return Parallel(tuple(rest))


def _component_table(term: Term, env, active: FrozenSet[ProcRef]) -> tuple:
    """A parallel component's steps, split once for the parallel rule.

    Returns ``(events, timed, sync)``: the event steps as
    ``(name, label, successor)`` triples in step order, the timed steps,
    and the non-tau event steps indexed by ``(name, direction)``.  The
    table lives in the environment's ``table_cache``, not in a global dict:
    terms are interned process-wide, but a ``ProcRef`` unfolds through
    its own environment's definitions.
    """
    tables = env.table_cache
    table = tables.get(term)
    if table is None:
        events: List[Tuple[str, EventLabel, Term]] = []
        timed: List[Transition] = []
        sync: Dict[Tuple[str, str], List[Transition]] = {}
        for label, succ in _trans(term, env, active):
            if isinstance(label, Action):
                timed.append((label, succ))
                continue
            events.append((label.name, label, succ))
            if not label.is_tau:
                sync.setdefault((label.name, label.direction), []).append(
                    (label, succ)
                )
        table = (tuple(events), tuple(timed), sync)
        tables.put(term, table)
    return table


def _trans_parallel(
    term: Parallel,
    env,
    active: FrozenSet[ProcRef],
    restricted: FrozenSet[str] = frozenset(),
    urgent: bool = False,
) -> Tuple[Transition, ...]:
    """Steps of a parallel composition; events named in ``restricted``
    (by an enclosing restriction) only synchronize, and ``urgent`` is
    as in :func:`transitions`."""
    children = term.children
    tables = [_component_table(child, env, active) for child in children]

    result: List[Transition] = []

    # Event interleaving: one component moves, the rest stand still.
    # ``offered`` lists the components offering each (name, direction).
    offered: Dict[Tuple[str, str], List[int]] = {}
    syncing: List[Tuple[int, dict]] = []
    for i, (events, _, sync) in enumerate(tables):
        for name, label, succ in events:
            if name not in restricted:
                succ = _with_children(children, ((i, succ),))
                result.append((label, succ))
        if sync:
            syncing.append((i, sync))
            for key in sync:
                offered.setdefault(key, []).append(i)

    # CCS-style synchronization between components i < j, visiting only
    # the partners that offer a complementary event.
    for i, sync_i in syncing:
        wants = [
            ((name, _COMPLEMENT[direction]), senders)
            for (name, direction), senders in sync_i.items()
        ]
        partners = {j for key, _ in wants for j in offered.get(key, ())}
        for j in sorted(j for j in partners if j > i):
            sync_j = tables[j][2]
            for key, senders in wants:
                for label_i, succ_i in senders:
                    for label_j, succ_j in sync_j.get(key, ()):
                        pair = ((i, succ_i), (j, succ_j))
                        succ = _with_children(children, pair)
                        result.append((label_i.synchronize(label_j), succ))

    # (Par3): simultaneous timed steps with pairwise disjoint resources.
    # Every component must take a timed step; a component with none blocks
    # global time progress.  Under ``urgent``, an enabled (tau, n > 0)
    # preempts every such step, so the product is not built.
    timed_steps = [table[1] for table in tables]
    if all(timed_steps) and not (
        urgent
        and any(
            label.is_tau and label.int_priority() > 0 for label, _ in result
        )
    ):
        combos: List[Tuple[Action, List[Term]]] = [(None, [])]  # type: ignore[list-item]
        for options in timed_steps:
            new_combos: List[Tuple[Action, List[Term]]] = []
            for acc_action, acc_succs in combos:
                for label, succ in options:
                    if acc_action is None:
                        merged = label
                    elif acc_action.disjoint(label):
                        merged = acc_action.union(label)
                    else:
                        continue
                    new_combos.append((merged, acc_succs + [succ]))
            combos = new_combos
            if not combos:
                break
        for merged, succs in combos:
            result.append((merged, parallel(*succs)))

    return _dedup(result)


def _trans_restrict(
    term: Restrict,
    env,
    active: FrozenSet[ProcRef],
    urgent: bool = False,
) -> Tuple[Transition, ...]:
    names = term.names
    if isinstance(term.body, Parallel):
        # Restriction-aware interleaving: a restricted event of a
        # component can only synchronize, so its interleaving successor
        # is never built just to be deleted here.
        steps = _trans_parallel(term.body, env, active, names, urgent)
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
    return tuple((label, Restrict(succ, names)) for label, succ in steps)


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
