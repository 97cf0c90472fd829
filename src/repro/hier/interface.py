"""Bounded-delay resource (BDR) interfaces for hierarchical scheduling.

An ARINC-653 style partition does not own its processor: a server with
budget ``Q`` and replenishment period ``P`` doles out supply.  Mok, Feng
& Chen's bounded-delay resource model abstracts any such server by two
numbers: an availability factor ``alpha`` (the long-run fraction of the
processor the partition gets) and a partition delay ``delta`` (the
longest interval during which the partition may receive *no* supply at
all).  A periodic server ``(P, Q)`` honours the BDR interface

    alpha = Q / P        delta = 2 * (P - Q)

because the worst supply gap -- budget at the very start of one period
followed by budget at the very end of the next -- spans ``2 (P - Q)``
time units.  The corresponding supply bound function

    sbf(t) = 0                     if t <= delta
             alpha * (t - delta)   otherwise

lower-bounds the supply of *every* phasing of the server, which is what
makes interface-based verdicts sound: demand met under ``sbf`` is met
under the real server, whatever its phase.

``alpha`` is an exact :class:`~fractions.Fraction` of the integer quanta
``Q`` and ``P``, so interface comparisons (and the ``sbf``/``dbf``
inequality) never suffer float rounding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from repro.errors import HierError

#: Deliberately-unsound interface derivations for oracle self-tests --
#: the hier analogue of ``REDUCTION_FAULTS`` and ``BATCH_FAULTS``.
#:
#: * ``inflate-alpha`` -- overstate the availability factor by 25%
#:   (capped at full supply).  The interface then promises supply the
#:   server never delivers, so some seed of the ``oracle hier``
#:   campaign must see interface-pass / simulation-fail (DISAGREED).
HIER_FAULTS = ("inflate-alpha",)


class BdrInterface:
    """One partition's bounded-delay resource abstraction ``(alpha, delta)``.

    ``period`` and ``budget`` are the originating server parameters in
    integer quanta; ``alpha``/``delta`` are derived from them unless a
    fault deliberately skews the derivation.
    """

    __slots__ = ("name", "period", "budget", "alpha", "delta")

    def __init__(
        self,
        name: str,
        period: int,
        budget: int,
        *,
        alpha: Optional[Fraction] = None,
        delta: Optional[int] = None,
    ) -> None:
        if period < 1:
            raise HierError(
                f"partition {name}: server period must be >= 1 quantum, "
                f"got {period}"
            )
        if not (1 <= budget <= period):
            raise HierError(
                f"partition {name}: server budget {budget} out of range "
                f"[1, {period}]"
            )
        self.name = name
        self.period = period
        self.budget = budget
        self.alpha = Fraction(budget, period) if alpha is None else alpha
        self.delta = 2 * (period - budget) if delta is None else delta
        if not (0 < self.alpha <= 1):
            raise HierError(
                f"partition {name}: availability factor {self.alpha} out "
                f"of range (0, 1]"
            )
        if self.delta < 0:
            raise HierError(
                f"partition {name}: partition delay {self.delta} < 0"
            )

    @classmethod
    def from_server(
        cls,
        name: str,
        period: int,
        budget: int,
        *,
        fault: Optional[str] = None,
    ) -> "BdrInterface":
        """The BDR interface of a periodic server ``(period, budget)``,
        derived under ``fault`` (see :meth:`with_fault`)."""
        return cls(name, period, budget).with_fault(fault)

    def with_fault(self, fault: Optional[str]) -> "BdrInterface":
        """This interface's server re-derived with a registered
        :data:`HIER_FAULTS` entry injected (self-test hook for the hier
        oracle campaign); the interface itself when ``fault`` is None.
        """
        if fault is None:
            return self
        if fault == "inflate-alpha":
            honest = Fraction(self.budget, self.period)
            inflated = min(Fraction(1), honest * Fraction(5, 4))
            return BdrInterface(
                self.name, self.period, self.budget, alpha=inflated
            )
        raise HierError(
            f"unknown hier fault {fault!r}; choose from {list(HIER_FAULTS)}"
        )

    def sbf(self, t: int) -> Fraction:
        """Least supply guaranteed in any interval of length ``t``."""
        if t <= self.delta:
            return Fraction(0)
        return self.alpha * (t - self.delta)

    @property
    def token(self) -> str:
        """Stable text form, for cache keys and trail lines."""
        return (
            f"{self.name}:a{self.alpha.numerator}/{self.alpha.denominator}"
            f":d{self.delta}"
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BdrInterface)
            and self.name == other.name
            and self.period == other.period
            and self.budget == other.budget
            and self.alpha == other.alpha
            and self.delta == other.delta
        )

    def __repr__(self) -> str:
        return (
            f"BdrInterface({self.name!r}, P={self.period}, Q={self.budget}, "
            f"alpha={self.alpha}, delta={self.delta})"
        )
