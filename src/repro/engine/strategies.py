"""Pluggable search strategies for the exploration engine.

A :class:`SearchStrategy` owns the frontier discipline of the generic
:func:`~repro.engine.core.explore` loop: which discovered state is
expanded next, and which successors of an expansion enter the frontier.
Everything else -- dedup against the visited set, budgets, observers,
deadlock/target bookkeeping -- lives in the loop, so a new search order
(priority-guided, sharded, parallel) is a strategy plug-in rather than
a rewrite.

Built in:

* :class:`BreadthFirst` -- FIFO frontier; the first deadlock found lies
  on a *shortest* path, which keeps raised AADL counterexamples minimal
  and readable.  This is the paper's default.
* :class:`DepthFirst` -- LIFO frontier; same discovered set on a full
  exploration, much smaller frontier on deep spaces; counterexamples
  are not minimal.
* :class:`RandomWalk` -- a bounded single-path walk (folds the old
  ``versa.walk`` driver into the engine): at each expansion one enabled
  transition is chosen by a policy; visited states may be re-entered.
  One walk is *one* behaviour -- only exhaustive strategies prove
  deadlock-freedom, so ``exhaustive`` is False and results always read
  as incomplete.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import AnalysisError

#: A walk policy picks one transition index among the enabled ones.
Policy = Callable[[Sequence[Tuple[object, object]], object], int]


class SearchStrategy:
    """Frontier discipline of the generic explore loop.

    Subclasses implement :meth:`reset`, :meth:`pop`, :meth:`extend` and
    ``__len__``.  ``exhaustive`` declares whether draining the frontier
    means the full reachable space was covered (True for BFS/DFS, False
    for sampling strategies like the random walk); the engine uses it to
    compute ``ExplorationResult.completed``.
    """

    #: strategy name used in stats and CLI output
    name: str = "abstract"
    #: does an empty frontier imply full coverage?
    exhaustive: bool = True

    def reset(self, initial) -> None:
        """Start a fresh search from ``initial``."""
        raise NotImplementedError

    def __len__(self) -> int:
        """Current frontier size (0 ends the search)."""
        raise NotImplementedError

    def pop(self):
        """Remove and return the next state to expand."""
        raise NotImplementedError

    def extend(
        self,
        state,
        steps: Sequence[Tuple[object, object]],
        new_flags: Sequence[bool],
    ) -> None:
        """Admit successors of an expansion into the frontier.

        ``steps`` are the ``(label, successor)`` pairs of ``state``;
        ``new_flags[i]`` is True when ``steps[i]`` discovered its
        successor for the first time.
        """
        raise NotImplementedError

    def clear(self) -> None:
        """Drop the frontier (used when the engine stops a search early)."""
        raise NotImplementedError


class BreadthFirst(SearchStrategy):
    """FIFO frontier: level order, shortest counterexamples."""

    name = "bfs"
    exhaustive = True

    def __init__(self) -> None:
        self._queue: deque = deque()

    def reset(self, initial) -> None:
        self._queue = deque((initial,))

    def __len__(self) -> int:
        return len(self._queue)

    def pop(self):
        return self._queue.popleft()

    def extend(self, state, steps, new_flags) -> None:
        queue = self._queue
        for (label, successor), is_new in zip(steps, new_flags):
            if is_new:
                queue.append(successor)

    def clear(self) -> None:
        self._queue.clear()


class DepthFirst(SearchStrategy):
    """LIFO frontier: dives deep, small frontier, non-minimal traces."""

    name = "dfs"
    exhaustive = True

    def __init__(self) -> None:
        self._stack: List = []

    def reset(self, initial) -> None:
        self._stack = [initial]

    def __len__(self) -> int:
        return len(self._stack)

    def pop(self):
        return self._stack.pop()

    def extend(self, state, steps, new_flags) -> None:
        stack = self._stack
        for (label, successor), is_new in zip(steps, new_flags):
            if is_new:
                stack.append(successor)

    def clear(self) -> None:
        self._stack.clear()


def uniform_choice(steps, rng) -> int:
    """Default walk policy: choose uniformly among enabled transitions."""
    return int(rng.integers(len(steps)))


class RandomWalk(SearchStrategy):
    """Bounded single-path walk driven by a transition-choice policy.

    Args:
        max_steps: number of transitions to take (the walk also ends at
            a deadlock).
        seed: seed for the numpy generator handed to the policy (an
            int, a ``numpy.random.SeedSequence`` -- e.g. one spawned
            per child by ``versa.multi_walk`` -- or None).
        policy: ``policy(steps, rng) -> index`` choosing one enabled
            transition; defaults to uniform.

    After a run, :attr:`path` holds the ``(label, state)`` sequence
    actually taken -- including revisits, which the engine's parent map
    cannot represent.
    """

    name = "random-walk"
    exhaustive = False

    def __init__(
        self,
        *,
        max_steps: int = 100,
        seed: Optional[object] = None,
        policy: Optional[Policy] = None,
    ) -> None:
        if max_steps < 0:
            raise AnalysisError("max_steps must be non-negative")
        import numpy as np

        self.max_steps = max_steps
        self.policy = policy or uniform_choice
        self._rng = np.random.default_rng(seed)
        self._slot: List = []
        self.remaining = max_steps
        #: the (label, state) steps actually taken, in order
        self.path: List[Tuple[object, object]] = []

    def reset(self, initial) -> None:
        self._slot = [initial]
        self.remaining = self.max_steps
        self.path = []

    def __len__(self) -> int:
        return len(self._slot)

    def pop(self):
        return self._slot.pop()

    def extend(self, state, steps, new_flags) -> None:
        if self.remaining <= 0 or not steps:
            return
        index = self.policy(steps, self._rng)
        if not (0 <= index < len(steps)):
            raise AnalysisError(
                f"walk policy returned out-of-range index {index}"
            )
        label, successor = steps[index]
        self.path.append((label, successor))
        self.remaining -= 1
        self._slot = [successor]

    def clear(self) -> None:
        self._slot.clear()


_STRATEGY_FACTORIES = {
    "bfs": BreadthFirst,
    "dfs": DepthFirst,
    "random-walk": RandomWalk,
}


def make_strategy(spec) -> SearchStrategy:
    """Resolve a strategy spec: an instance, a name, or None (BFS)."""
    if spec is None:
        return BreadthFirst()
    if isinstance(spec, SearchStrategy):
        return spec
    if isinstance(spec, str):
        try:
            return _STRATEGY_FACTORIES[spec]()
        except KeyError:
            raise ValueError(
                f"unknown search strategy {spec!r}; "
                f"choose from {sorted(_STRATEGY_FACTORIES)}"
            ) from None
    raise TypeError(f"not a search strategy: {spec!r}")
