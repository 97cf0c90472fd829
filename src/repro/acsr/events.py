"""Instantaneous event labels.

Communication steps (paper S3) send or receive an *ACSR event*
instantaneously.  A label is a triple ``(name, direction, priority)``:

* ``(e, IN, p)``  -- receive ``e?`` at priority ``p``;
* ``(e, OUT, p)`` -- send ``e!`` at priority ``p``;
* ``(TAU, via, p)`` -- the internal step produced when a matching send and
  receive synchronize; ``via`` records which event name generated it so
  traces can be raised back to the source model (the paper writes this as
  ``tau@name``).

Synchronization follows CCS: ``(e?, p)`` and ``(e!, q)`` combine into
``tau@e`` with priority ``p + q`` (the ACSR convention -- summing keeps
both endpoint priorities relevant to preemption).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple, Union

from repro.errors import AcsrSemanticsError
from repro.acsr.expressions import Expr

IN = "?"
OUT = "!"
TAU = "tau"

Priority = Union[int, Expr]

_LABEL_INTERN: Dict[Tuple[str, str, object, Optional[str]], "EventLabel"] = {}


class EventLabel:
    """An interned event label: name, direction and priority.

    For internal steps ``name`` is :data:`TAU`, ``direction`` is the empty
    string and ``via`` names the synchronized event (or ``None`` for a
    plain internal step).
    """

    __slots__ = (
        "_name", "_direction", "_priority", "_via", "_hash", "_family"
    )

    def __new__(
        cls,
        name: str,
        direction: str,
        priority: Priority,
        via: Optional[str] = None,
    ) -> "EventLabel":
        if name == TAU:
            if direction != "":
                raise AcsrSemanticsError("tau labels carry no direction")
        else:
            if direction not in (IN, OUT):
                raise AcsrSemanticsError(
                    f"direction must be {IN!r} or {OUT!r}, got {direction!r}"
                )
            if via is not None:
                raise AcsrSemanticsError("only tau labels carry a via name")
        if not isinstance(name, str) or not name:
            raise AcsrSemanticsError(f"invalid event name {name!r}")
        if isinstance(priority, bool) or (
            isinstance(priority, int) and priority < 0
        ):
            raise AcsrSemanticsError(
                f"event priority must be a non-negative int or expression, "
                f"got {priority!r}"
            )
        if not isinstance(priority, (int, Expr)):
            raise AcsrSemanticsError(
                f"event priority must be int or Expr, got {type(priority).__name__}"
            )
        # Open (expression-priority) labels intern by the expression's
        # structural key so independently built but structurally equal
        # labels are identical (required by symmetry detection).
        key = (
            name,
            direction,
            priority if isinstance(priority, int) else priority.key(),
            via,
        )
        cached = _LABEL_INTERN.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self._name = name
        self._direction = direction
        self._priority = priority
        self._via = via
        self._hash = hash(key)
        self._family = TAU if name == TAU else (name, direction)
        _LABEL_INTERN[key] = self
        return self

    # -- accessors ----------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def direction(self) -> str:
        return self._direction

    @property
    def priority(self) -> Priority:
        return self._priority

    @property
    def via(self) -> Optional[str]:
        """For tau labels, the event name that produced the internal step."""
        return self._via

    @property
    def family(self) -> object:
        """What preemption compares within: :data:`TAU` for every
        internal label, ``(name, direction)`` for the rest."""
        return self._family

    @property
    def is_tau(self) -> bool:
        return self._name == TAU

    @property
    def is_input(self) -> bool:
        return self._direction == IN

    @property
    def is_output(self) -> bool:
        return self._direction == OUT

    @property
    def is_ground(self) -> bool:
        return isinstance(self._priority, int)

    def int_priority(self) -> int:
        if not isinstance(self._priority, int):
            raise AcsrSemanticsError(
                f"label {self} has symbolic priority {self._priority!r}"
            )
        return self._priority

    # -- operations ----------------------------------------------------

    def complement(self) -> "EventLabel":
        """The matching label with the opposite direction (same priority)."""
        if self.is_tau:
            raise AcsrSemanticsError("tau has no complement")
        direction = IN if self._direction == OUT else OUT
        return EventLabel(self._name, direction, self._priority)

    def matches(self, other: "EventLabel") -> bool:
        """True when ``self`` and ``other`` can synchronize (CCS-style)."""
        return (
            not self.is_tau
            and not other.is_tau
            and self._name == other._name
            and self._direction != other._direction
        )

    def synchronize(self, other: "EventLabel") -> "EventLabel":
        """The tau label produced by synchronizing two matching labels."""
        if not self.matches(other):
            raise AcsrSemanticsError(f"{self} cannot synchronize with {other}")
        return EventLabel(
            TAU, "", self.int_priority() + other.int_priority(), via=self._name
        )

    def instantiate(self, env: Mapping[str, int]) -> "EventLabel":
        """Evaluate a symbolic priority, producing a ground label."""
        if isinstance(self._priority, int):
            return self
        value = self._priority.evaluate(env)
        if value < 0:
            raise AcsrSemanticsError(
                f"event priority expression evaluated to negative {value}"
            )
        return EventLabel(self._name, self._direction, value, self._via)

    def free_params(self) -> frozenset:
        if isinstance(self._priority, Expr):
            return self._priority.free_params()
        return frozenset()

    # -- protocol -------------------------------------------------------

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, EventLabel)
            and self._name == other._name
            and self._direction == other._direction
            and self._priority == other._priority
            and self._via == other._via
        )

    def __repr__(self) -> str:
        if self.is_tau:
            via = f", via={self._via!r}" if self._via else ""
            return f"EventLabel(tau, {self._priority!r}{via})"
        return (
            f"EventLabel({self._name!r}, {self._direction!r}, "
            f"{self._priority!r})"
        )

    def __str__(self) -> str:
        if self.is_tau:
            if self._via:
                return f"(tau@{self._via},{self._priority})"
            return f"(tau,{self._priority})"
        return f"({self._name}{self._direction},{self._priority})"


def event_label(name: str, direction: str, priority: Priority) -> EventLabel:
    """Build a send/receive label."""
    return EventLabel(name, direction, priority)


def tau_label(priority: Priority, via: Optional[str] = None) -> EventLabel:
    """Build an internal-step label."""
    return EventLabel(TAU, "", priority, via)
