"""Exploration results: the verdict-bearing output of the engine.

:class:`ExplorationResult` is the one result type shared by every
search strategy and every driver (queries, LTS export, schedulability
analysis, CLI).  Besides states, transitions, deadlocks and traces it
carries the :class:`~repro.engine.stats.EngineStats` snapshot of the run
and an explicit ``limit_hit`` marker naming the exhausted budget, if
any.
"""

from __future__ import annotations

import warnings
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.acsr.terms import Term
    from repro.engine.stats import EngineStats
    from repro.versa.traces import Trace


class IncompleteExplorationWarning(UserWarning):
    """A truncated exploration is being read as if it were exhaustive.

    Emitted when ``deadlock_free`` is consulted on a result whose search
    stopped at a budget without finding a deadlock: absence of evidence
    from a partial search is not a deadlock-freedom proof.
    """


class ExplorationResult:
    """Outcome of a state-space exploration.

    Attributes:
        initial: the root state.
        num_states: states discovered (including the initial one).
        num_transitions: transitions traversed.
        deadlock_states: states with no outgoing (prioritized) transition.
        target_states: states satisfying the optional target predicate.
        completed: True when the full reachable space was explored (i.e.
            the search strategy is exhaustive and was not stopped early
            by a budget, a first-deadlock request, or a target hit).
        elapsed: wall-clock seconds.
        stats: the :class:`~repro.engine.stats.EngineStats` snapshot of
            the run (``None`` only for hand-built results).
        limit_hit: which budget stopped the run (``"states"``,
            ``"transitions"``, ``"seconds"``) or ``None``.
    """

    def __init__(
        self,
        initial: "Term",
        *,
        num_states: int,
        num_transitions: int,
        deadlock_states: List["Term"],
        target_states: List["Term"],
        completed: bool,
        elapsed: float,
        parent: Dict["Term", Tuple[Optional["Term"], Optional[object]]],
        transitions: Optional[
            Dict["Term", Tuple[Tuple[object, "Term"], ...]]
        ],
        stats: Optional["EngineStats"] = None,
        limit_hit: Optional[str] = None,
    ) -> None:
        self.initial = initial
        self.num_states = num_states
        self.num_transitions = num_transitions
        self.deadlock_states = deadlock_states
        self.target_states = target_states
        self.completed = completed
        self.elapsed = elapsed
        self.stats = stats
        self.limit_hit = limit_hit
        self._parent = parent
        self._transitions = transitions

    @property
    def deadlock_free(self) -> bool:
        """True when the *explored* space contains no deadlock.

        Deadlock-freedom of the full system is only established when
        :attr:`completed` is True.  Reading this property on a
        truncated, deadlock-less run emits
        :class:`~repro.errors.IncompleteExplorationWarning`, because a
        budget-capped search that found nothing proves nothing -- the
        schedulability driver maps that case to the UNKNOWN verdict
        instead.  (A truncated run that *did* find a deadlock is still
        a definitive counterexample, so no warning fires.)
        """
        if not self.deadlock_states and not self.completed:
            warnings.warn(
                "exploration was truncated before covering the reachable "
                "space (limit_hit={!r}); the absence of deadlocks is not "
                "a deadlock-freedom proof".format(self.limit_hit),
                IncompleteExplorationWarning,
                stacklevel=2,
            )
        return not self.deadlock_states

    def trace_to(self, state: "Term") -> "Trace":
        """Shortest trace (along the search tree) from the initial state."""
        from repro.versa.traces import Step, Trace

        if state not in self._parent:
            raise KeyError(f"state was not discovered: {state!r}")
        steps: List[Step] = []
        current: Optional["Term"] = state
        while current is not None:
            parent, label = self._parent[current]
            if parent is None:
                break
            steps.append(Step(label, current))
            current = parent
        steps.reverse()
        return Trace(self.initial, steps)

    def first_deadlock_trace(self) -> Optional["Trace"]:
        """Trace to the first deadlock found, if any (shortest under BFS)."""
        if not self.deadlock_states:
            return None
        return self.trace_to(self.deadlock_states[0])

    def transitions_of(
        self, state: "Term"
    ) -> Tuple[Tuple[object, "Term"], ...]:
        """Outgoing transitions of an explored state.

        Requires the exploration to have been run with
        ``store_transitions=True``; raises :class:`ValueError` otherwise.
        Raises :class:`KeyError` with a message distinguishing a state
        that was never discovered from one that was discovered but not
        expanded before the search stopped.
        """
        if self._transitions is None:
            raise ValueError(
                "exploration did not store transitions; "
                "pass store_transitions=True"
            )
        try:
            return self._transitions[state]
        except KeyError:
            pass
        if state not in self._parent:
            raise KeyError(
                f"state was never discovered by this exploration: {state!r}"
            )
        raise KeyError(
            f"state was discovered but not expanded before the search "
            f"stopped (completed={self.completed}, "
            f"limit_hit={self.limit_hit!r}); its transitions were not "
            f"stored: {state!r}"
        )

    @property
    def stored_transitions(
        self,
    ) -> Optional[Dict["Term", Tuple[Tuple[object, "Term"], ...]]]:
        return self._transitions

    def states(self) -> List["Term"]:
        """All discovered states, in discovery order."""
        return list(self._parent)

    def __repr__(self) -> str:
        return (
            f"ExplorationResult(states={self.num_states}, "
            f"transitions={self.num_transitions}, "
            f"deadlocks={len(self.deadlock_states)}, "
            f"completed={self.completed})"
        )
