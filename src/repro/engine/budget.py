"""Exploration budgets with uniform raise-vs-truncate semantics.

Every driver of the exploration core (schedulability verdicts, LTS
export, response-time scans, the CLI) bounds its search somehow; before
the engine existed each caller re-implemented its own mix of
``max_states`` / ``max_seconds`` checks with subtly different behaviour
at the boundary.  :class:`Budget` centralizes the three limits (states,
transitions, wall-clock seconds) and the single policy switch:

* ``on_limit="raise"`` -- exceeding any limit raises
  :class:`~repro.errors.ExplorationLimitError` (the default,
  right for tests and scripted pipelines);
* ``on_limit="truncate"`` -- the search stops and returns a result with
  ``completed=False`` and ``limit_hit`` naming the exhausted budget
  (right for interactive use and the UNKNOWN verdict).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ExplorationLimitError

RAISE = "raise"
TRUNCATE = "truncate"

#: Budget dimensions, used as ``ExplorationResult.limit_hit`` values and
#: passed to ``Observer.on_limit``.
LIMIT_STATES = "states"
LIMIT_TRANSITIONS = "transitions"
LIMIT_SECONDS = "seconds"


class Budget:
    """Bounds for one exploration run.

    Args:
        max_states: maximum number of *discovered* states (including the
            initial one); ``None`` for unlimited.
        max_transitions: maximum number of transitions enumerated;
            ``None`` for unlimited.
        max_seconds: wall-clock bound; ``None`` for unlimited.
        on_limit: ``"raise"`` or ``"truncate"`` (see module docstring).
    """

    __slots__ = ("max_states", "max_transitions", "max_seconds", "on_limit")

    def __init__(
        self,
        *,
        max_states: Optional[int] = 1_000_000,
        max_transitions: Optional[int] = None,
        max_seconds: Optional[float] = None,
        on_limit: str = RAISE,
    ) -> None:
        if on_limit not in (RAISE, TRUNCATE):
            raise ValueError("on_limit must be 'raise' or 'truncate'")
        if max_states is not None and max_states < 1:
            raise ValueError(f"max_states must be positive: {max_states}")
        if max_transitions is not None and max_transitions < 0:
            raise ValueError(
                f"max_transitions must be non-negative: {max_transitions}"
            )
        self.max_states = max_states
        self.max_transitions = max_transitions
        self.max_seconds = max_seconds
        self.on_limit = on_limit

    @property
    def raises(self) -> bool:
        return self.on_limit == RAISE

    def limit_error(
        self, message: str, *, states_explored: int
    ) -> ExplorationLimitError:
        """The error raised when a limit is hit under the raise policy."""
        return ExplorationLimitError(message, states_explored=states_explored)

    def __repr__(self) -> str:
        parts = []
        if self.max_states is not None:
            parts.append(f"states={self.max_states}")
        if self.max_transitions is not None:
            parts.append(f"transitions={self.max_transitions}")
        if self.max_seconds is not None:
            parts.append(f"seconds={self.max_seconds}")
        parts.append(self.on_limit)
        return f"Budget({', '.join(parts)})"
