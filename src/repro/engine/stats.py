"""Engine statistics: the observable health of an exploration run.

Mature model-checking backends expose state-space statistics (states per
second, frontier depth, cache effectiveness) because they are the only
way to reason about why an analysis is slow or large.  The engine
captures them in one :class:`EngineStats` snapshot attached to every
:class:`~repro.engine.result.ExplorationResult` and rendered by the CLI
``--stats`` flag and the scaling benchmark.

The layers around the engine (portfolio, reduction, hier, modal, batch)
record what they did in one namespaced ``counters`` map whose dotted
names follow the span vocabulary (``portfolio.attempts.rta``,
``reduce.orbits_merged``, ``hier.interface_hits``...); ``docs/engine.md``
lists every name and the layer that writes it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

#: Core fields that add up when snapshots are aggregated.
_SUMMED = (
    "states",
    "transitions",
    "expanded",
    "elapsed",
    "parent_map_bytes",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
)

#: Every stored core field, in :meth:`EngineStats.as_dict` order.
_CORE = ("strategy",) + _SUMMED + (
    "wall_elapsed",
    "frontier_peak",
    "limit_hit",
)


class EngineStats:
    """Snapshot of one exploration run.

    Attributes:
        strategy: name of the search strategy used (``"aggregate"`` for
            a merged multi-run snapshot, see :meth:`aggregate`).
        states: distinct states discovered (including the initial one).
        transitions: transitions enumerated.
        expanded: states whose successor set was computed (a random walk
            may expand fewer -- or, revisiting, more -- than it
            discovers).
        elapsed: engine-loop seconds.  Additive under :meth:`aggregate`,
            which makes it a *CPU-time sum* for a parallel batch, not a
            wall-clock reading -- see ``wall_elapsed``.
        wall_elapsed: honest wall-clock seconds.  Equals ``elapsed`` for
            a single run; for an aggregate the pool sets it from a real
            wall-clock measurement (summing per-worker ``elapsed``
            across parallel workers would overstate the wall time by up
            to the worker count).
        states_per_second: discovery throughput, computed from
            ``wall_elapsed`` (0.0 for instant runs).
        frontier_peak: largest frontier size observed.
        parent_map_bytes: memory footprint of the parent (BFS-tree) map
            itself, excluding the interned terms it references.
        cache_hits / cache_misses / cache_evictions: aggregated over the
            provider's step, prioritization and semantics caches for
            the duration of this run only.
        limit_hit: which budget stopped the run (``"states"``,
            ``"transitions"``, ``"seconds"``) or ``None``.
        counters: feature counters of the layers around the engine,
            keyed by dotted name; a missing name counts as zero.

    The counts default to zero, so a layer that decides without
    exploring passes only what it measured.
    """

    __slots__ = _CORE + ("counters",)

    def __init__(
        self,
        *,
        strategy: str,
        states: int = 0,
        transitions: int = 0,
        expanded: int = 0,
        elapsed: float = 0.0,
        wall_elapsed: Optional[float] = None,
        frontier_peak: int = 0,
        parent_map_bytes: int = 0,
        cache_hits: int = 0,
        cache_misses: int = 0,
        cache_evictions: int = 0,
        limit_hit: Optional[str] = None,
        counters: Optional[Dict[str, int]] = None,
    ) -> None:
        self.strategy = strategy
        self.states = states
        self.transitions = transitions
        self.expanded = expanded
        self.elapsed = elapsed
        #: None is only a constructor convenience: a single run's wall
        #: clock IS its loop time.
        self.wall_elapsed = elapsed if wall_elapsed is None else wall_elapsed
        self.frontier_peak = frontier_peak
        self.parent_map_bytes = parent_map_bytes
        self.cache_hits = cache_hits
        self.cache_misses = cache_misses
        self.cache_evictions = cache_evictions
        self.limit_hit = limit_hit
        self.counters = dict(counters or {})

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name`` (created at zero)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    @property
    def states_per_second(self) -> float:
        """Throughput over the honest denominator: wall clock, never the
        per-worker CPU sum (which would understate a parallel batch)."""
        return (
            self.states / self.wall_elapsed if self.wall_elapsed > 0 else 0.0
        )

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        data = {name: getattr(self, name) for name in _CORE}
        data["states_per_second"] = self.states_per_second
        data["cache_hit_rate"] = self.cache_hit_rate
        data["counters"] = dict(self.counters)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EngineStats":
        """Rebuild a snapshot serialized with :meth:`as_dict` (derived
        rate fields are recomputed, unknown keys ignored)."""
        fields = {name: data[name] for name in _CORE if name in data}
        fields.setdefault("strategy", "unknown")
        return cls(counters=data.get("counters"), **fields)

    @classmethod
    def aggregate(
        cls,
        snapshots: Iterable["EngineStats"],
        *,
        strategy: str = "aggregate",
        wall_elapsed: Optional[float] = None,
    ) -> "EngineStats":
        """Merge several run snapshots into one additive aggregate.

        Counts and counters sum; ``frontier_peak`` takes the maximum;
        ``limit_hit`` is dropped (per-run budgets do not compose into
        one).  This is how :mod:`repro.batch` folds per-worker
        statistics into one campaign-level snapshot.

        ``elapsed`` stays the additive CPU-time sum.  ``wall_elapsed``
        must come from a real wall-clock measurement when the runs
        overlapped in time -- the pool passes its own ``perf_counter``
        delta here (or assigns the attribute afterwards); without one,
        the sum is used, which is only honest for sequential runs.
        Summing per-worker loop times and calling it wall clock is
        exactly the bug this field exists to fix: after ``batch run
        --jobs N`` it inflated ``elapsed:`` and deflated
        ``states_per_second`` by up to a factor of N.
        """
        total = cls(strategy=strategy)
        for snap in snapshots:
            if snap is None:
                continue
            for name in _SUMMED:
                value = getattr(total, name) + getattr(snap, name)
                setattr(total, name, value)
            total.frontier_peak = max(total.frontier_peak, snap.frontier_peak)
            for name, count in snap.counters.items():
                total.incr(name, count)
        total.wall_elapsed = (
            wall_elapsed if wall_elapsed is not None else total.elapsed
        )
        return total

    def format(self) -> str:
        """Multi-line rendering for the CLI; counter lines appear only
        for the layers that wrote them, portfolio tiers in name order."""
        if self.wall_elapsed != self.elapsed:
            elapsed_line = (
                f"elapsed: {self.elapsed:.3f}s cpu, "
                f"{self.wall_elapsed:.3f}s wall  "
                f"({self.states_per_second:,.0f} states/s)"
            )
        else:
            elapsed_line = (
                f"elapsed: {self.elapsed:.3f}s  "
                f"({self.states_per_second:,.0f} states/s)"
            )
        lines = [
            f"strategy: {self.strategy}",
            f"states: {self.states}  transitions: {self.transitions}  "
            f"expanded: {self.expanded}",
            elapsed_line,
            f"frontier peak: {self.frontier_peak}  "
            f"parent map: {self.parent_map_bytes / 1024:.1f} KiB",
            f"cache: {self.cache_hits} hits / {self.cache_misses} misses "
            f"({self.cache_hit_rate:.1%} hit rate, "
            f"{self.cache_evictions} evictions)",
        ]
        count = self.counters.get
        hits = count("batch.verdict_cache_hits", 0)
        misses = count("batch.verdict_cache_misses", 0)
        if hits or misses:
            lines.append(
                f"verdict cache: {hits} hits / {misses} misses "
                f"({hits / (hits + misses):.1%} hit rate)"
            )
        prefix = "portfolio.attempts."
        tiers = sorted(
            name[len(prefix):] for name in self.counters
            if name.startswith(prefix)
        )
        escalations = count("portfolio.escalations", 0)
        if tiers or escalations:
            lines.append("portfolio tiers:")
            for tier in tiers:
                lines.append(
                    f"  {tier}: {count(prefix + tier)} attempt(s), "
                    f"{count(f'portfolio.hits.{tier}', 0)} hit(s)"
                )
            lines.append(f"  escalated to exploration: {escalations}")
        partitions = count("hier.partitions_checked", 0)
        if partitions:
            lines.append(
                f"hier: {partitions} partition(s) checked, "
                f"{count('hier.interface_hits', 0)} settled by the "
                f"interface, {count('hier.sim_escalations', 0)} escalated "
                f"to flattened simulation"
            )
        transitions = count("modal.transitions_checked", 0)
        if transitions:
            lines.append(
                f"modal: {transitions} transition(s) checked, "
                f"{count('modal.transient_escalations', 0)} escalated "
                f"to transient simulation"
            )
        canonicalized = count("reduce.states_canonicalized", 0)
        merged = count("reduce.orbits_merged", 0)
        pruned = count("reduce.por_pruned", 0)
        if canonicalized or merged or pruned:
            lines.append(
                f"reduction: {canonicalized} states canonicalized, "
                f"{merged} orbits merged, {pruned} transitions pruned"
            )
        if self.limit_hit is not None:
            lines.append(f"budget exhausted: {self.limit_hit}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"EngineStats(strategy={self.strategy!r}, states={self.states}, "
            f"transitions={self.transitions}, "
            f"states_per_second={self.states_per_second:.0f}, "
            f"cache_hit_rate={self.cache_hit_rate:.3f})"
        )
