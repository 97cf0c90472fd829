"""The ACSR preemption relation and the prioritized transition relation.

The preemption relation ``<.`` (paper S3) compares two candidate steps of
the *same* state; the prioritized transition relation removes every step
that some coenabled step preempts.

Rules (with the convention that an action accesses every resource outside
its set at priority 0):

* **Action vs action** -- ``A1 <. A2`` iff every resource of ``A1`` also
  appears in ``A2`` with greater-or-equal priority and at least one
  resource of ``A2`` has strictly greater priority than in ``A1``.
  Consequently any action with a positive-priority resource preempts the
  idling step ``{}``.
* **Action vs internal event** -- ``A <. (tau, n)`` iff ``n > 0``: a
  pending internal synchronization with positive priority is urgent and
  forbids time progress.
* **Event vs event** -- steps with the *same* label (same name and
  direction; all ``tau`` labels count as one label regardless of ``via``)
  compare by priority: ``(a, p) <. (a, q)`` iff ``q > p``.

No other pairs are related; the relation is irreflexive and transitive on
each comparable family.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Sequence, Set, Tuple

from repro.acsr.events import TAU, EventLabel
from repro.acsr.resources import Action

Transition = Tuple[object, object]


def preempts(low: object, high: object) -> bool:
    """True when ``high`` preempts ``low`` (written ``low <. high``)."""
    low_is_action = isinstance(low, Action)
    high_is_action = isinstance(high, Action)

    if low_is_action and high_is_action:
        return _action_preempts(low, high)

    if low_is_action and isinstance(high, EventLabel):
        return high.is_tau and high.int_priority() > 0

    if isinstance(low, EventLabel) and isinstance(high, EventLabel):
        if low.is_tau and high.is_tau:
            return high.int_priority() > low.int_priority()
        if (
            not low.is_tau
            and not high.is_tau
            and low.name == high.name
            and low.direction == high.direction
        ):
            return high.int_priority() > low.int_priority()
        return False

    return False


def _action_preempts(low: Action, high: Action) -> bool:
    if not low.resources <= high.resources:
        return False
    strict = False
    for resource, high_pri in high.pairs:
        low_pri = low.priority_of(resource)
        if high_pri < low_pri:
            return False
        if high_pri > low_pri:
            strict = True
    # All shared resources checked via high's pairs because rho(low) is a
    # subset of rho(high); strictness may come from any resource of high.
    return strict


def prioritized(steps: Sequence[Transition]) -> Tuple[Transition, ...]:
    """Remove every step whose label is preempted by a coenabled step."""
    return tuple(steps[i] for i in unpreempted([label for label, _ in steps]))


def unpreempted(labels: Sequence[object]) -> List[int]:
    """Indices, in order, of the labels no other label preempts.

    Equal to testing :func:`preempts` on every pair, in linear time
    outside the actions.  An event survives when its priority is the
    highest of its family (all ``tau`` labels are one family, each
    non-tau ``(name, direction)`` another), any ``(tau, n > 0)`` drops
    every action, and only the distinct actions are compared pairwise.
    """
    top: Dict[object, int] = {}
    actions: Dict[Action, None] = {}
    priorities: List[int] = []
    for label in labels:
        if isinstance(label, EventLabel):
            family = label.family
            priority = label.int_priority()
            if top.get(family, -1) < priority:
                top[family] = priority
            priorities.append(priority)
        else:
            priorities.append(-1)
            if isinstance(label, Action):
                actions[label] = None
    if top.get(TAU, 0) > 0:
        dominated: Collection[Action] = actions
    else:
        dominated = _dominated_actions(actions)
    return [
        i
        for i, (label, priority) in enumerate(zip(labels, priorities))
        if (
            label not in dominated
            if priority < 0
            else priority == top[label.family]
        )
    ]


def _dominated_actions(actions: Collection[Action]) -> Set[Action]:
    """The actions some other action of ``actions`` preempts."""
    # rho(low) must be a subset of rho(high): a set test prunes most
    # pairs before the full comparison.
    distinct = [(action, action.resources) for action in actions]
    dominated: Set[Action] = set()
    for low, low_resources in distinct:
        for high, high_resources in distinct:
            if high is low or not low_resources <= high_resources:
                continue
            if _action_preempts(low, high):
                dominated.add(low)
                break
    return dominated


def prioritized_transitions(term, env) -> Tuple[Transition, ...]:
    """Prioritized steps of a closed term (convenience wrapper)."""
    from repro.acsr.semantics import transitions

    return prioritized(transitions(term, env))
