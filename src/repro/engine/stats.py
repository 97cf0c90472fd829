"""Engine statistics: the observable health of an exploration run.

Mature model-checking backends expose state-space statistics (states per
second, frontier depth, cache effectiveness) because they are the only
way to reason about why an analysis is slow or large.  The engine
captures them in one :class:`EngineStats` snapshot attached to every
:class:`~repro.engine.result.ExplorationResult` and rendered by the CLI
``--stats`` flag and the scaling benchmark.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional


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
        verdict_cache_hits / verdict_cache_misses: persistent
            verdict-cache lookups (:mod:`repro.batch`); a hit means a
            whole analysis was skipped, so ``states``/``elapsed`` only
            account for the misses.  Zero outside batch runs.
        tier_attempts / tier_hits: portfolio-tier counters
            (:mod:`repro.portfolio`): how often each analytic tier was
            consulted and how often it decided the verdict, keyed by
            tier name.  A hit means the state space was never touched.
            Empty outside portfolio runs.
        tier_escalations: verdicts that fell through every analytic
            tier into exhaustive exploration.
        states_canonicalized: distinct states mapped to their orbit
            representative by symmetry reduction
            (:mod:`repro.engine.reduce`).  Zero outside reduced runs.
        orbits_merged: canonicalizations that actually changed the
            state -- each one is a visited-set entry saved by merging
            an orbit.
        por_pruned: transitions dropped by the partial-order (ample)
            filter.
        hier_partitions_checked: virtual-processor partitions checked
            against their BDR interface (:mod:`repro.hier`).  Zero
            outside hierarchical runs.
        hier_interface_hits: partitions the analytic demand-vs-supply
            check settled (no flattened simulation needed).
        hier_sim_escalations: partitions that fell through to the
            supply-aware flattened simulation (one over its server
            share is decided there without a run).
        modal_transitions_checked: mode transitions whose transient was
            analyzed (:mod:`repro.modal`).  Zero outside modal runs.
        modal_transient_escalations: transitions the analytic union
            test could not settle, escalated to switch-phasing
            transient simulation.
        limit_hit: which budget stopped the run (``"states"``,
            ``"transitions"``, ``"seconds"``) or ``None``.
    """

    __slots__ = (
        "strategy",
        "states",
        "transitions",
        "expanded",
        "elapsed",
        "wall_elapsed",
        "frontier_peak",
        "parent_map_bytes",
        "cache_hits",
        "cache_misses",
        "cache_evictions",
        "verdict_cache_hits",
        "verdict_cache_misses",
        "tier_attempts",
        "tier_hits",
        "tier_escalations",
        "states_canonicalized",
        "orbits_merged",
        "por_pruned",
        "hier_partitions_checked",
        "hier_interface_hits",
        "hier_sim_escalations",
        "modal_transitions_checked",
        "modal_transient_escalations",
        "limit_hit",
    )

    def __init__(
        self,
        *,
        strategy: str,
        states: int,
        transitions: int,
        expanded: int,
        elapsed: float,
        frontier_peak: int,
        parent_map_bytes: int,
        cache_hits: int,
        cache_misses: int,
        cache_evictions: int,
        limit_hit: Optional[str],
        verdict_cache_hits: int = 0,
        verdict_cache_misses: int = 0,
        wall_elapsed: Optional[float] = None,
        tier_attempts: Optional[Dict[str, int]] = None,
        tier_hits: Optional[Dict[str, int]] = None,
        tier_escalations: int = 0,
        states_canonicalized: int = 0,
        orbits_merged: int = 0,
        por_pruned: int = 0,
        hier_partitions_checked: int = 0,
        hier_interface_hits: int = 0,
        hier_sim_escalations: int = 0,
        modal_transitions_checked: int = 0,
        modal_transient_escalations: int = 0,
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
        self.verdict_cache_hits = verdict_cache_hits
        self.verdict_cache_misses = verdict_cache_misses
        self.tier_attempts = dict(tier_attempts or {})
        self.tier_hits = dict(tier_hits or {})
        self.tier_escalations = tier_escalations
        self.states_canonicalized = states_canonicalized
        self.orbits_merged = orbits_merged
        self.por_pruned = por_pruned
        self.hier_partitions_checked = hier_partitions_checked
        self.hier_interface_hits = hier_interface_hits
        self.hier_sim_escalations = hier_sim_escalations
        self.modal_transitions_checked = modal_transitions_checked
        self.modal_transient_escalations = modal_transient_escalations
        self.limit_hit = limit_hit

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

    @property
    def verdict_cache_hit_rate(self) -> float:
        total = self.verdict_cache_hits + self.verdict_cache_misses
        return self.verdict_cache_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "strategy": self.strategy,
            "states": self.states,
            "transitions": self.transitions,
            "expanded": self.expanded,
            "elapsed": self.elapsed,
            "wall_elapsed": self.wall_elapsed,
            "states_per_second": self.states_per_second,
            "frontier_peak": self.frontier_peak,
            "parent_map_bytes": self.parent_map_bytes,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_hit_rate": self.cache_hit_rate,
            "verdict_cache_hits": self.verdict_cache_hits,
            "verdict_cache_misses": self.verdict_cache_misses,
            "tier_attempts": dict(self.tier_attempts),
            "tier_hits": dict(self.tier_hits),
            "tier_escalations": self.tier_escalations,
            "states_canonicalized": self.states_canonicalized,
            "orbits_merged": self.orbits_merged,
            "por_pruned": self.por_pruned,
            "hier_partitions_checked": self.hier_partitions_checked,
            "hier_interface_hits": self.hier_interface_hits,
            "hier_sim_escalations": self.hier_sim_escalations,
            "modal_transitions_checked": self.modal_transitions_checked,
            "modal_transient_escalations": self.modal_transient_escalations,
            "limit_hit": self.limit_hit,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EngineStats":
        """Rebuild a snapshot serialized with :meth:`as_dict` (derived
        rate fields are recomputed, unknown keys ignored)."""
        return cls(
            strategy=data.get("strategy", "unknown"),
            states=data.get("states", 0),
            transitions=data.get("transitions", 0),
            expanded=data.get("expanded", 0),
            elapsed=data.get("elapsed", 0.0),
            wall_elapsed=data.get("wall_elapsed"),
            frontier_peak=data.get("frontier_peak", 0),
            parent_map_bytes=data.get("parent_map_bytes", 0),
            cache_hits=data.get("cache_hits", 0),
            cache_misses=data.get("cache_misses", 0),
            cache_evictions=data.get("cache_evictions", 0),
            verdict_cache_hits=data.get("verdict_cache_hits", 0),
            verdict_cache_misses=data.get("verdict_cache_misses", 0),
            tier_attempts=data.get("tier_attempts"),
            tier_hits=data.get("tier_hits"),
            tier_escalations=data.get("tier_escalations", 0),
            states_canonicalized=data.get("states_canonicalized", 0),
            orbits_merged=data.get("orbits_merged", 0),
            por_pruned=data.get("por_pruned", 0),
            hier_partitions_checked=data.get("hier_partitions_checked", 0),
            hier_interface_hits=data.get("hier_interface_hits", 0),
            hier_sim_escalations=data.get("hier_sim_escalations", 0),
            modal_transitions_checked=data.get(
                "modal_transitions_checked", 0
            ),
            modal_transient_escalations=data.get(
                "modal_transient_escalations", 0
            ),
            limit_hit=data.get("limit_hit"),
        )

    @classmethod
    def aggregate(
        cls,
        snapshots: Iterable["EngineStats"],
        *,
        strategy: str = "aggregate",
        wall_elapsed: Optional[float] = None,
    ) -> "EngineStats":
        """Merge several run snapshots into one additive aggregate.

        Counters sum; ``frontier_peak`` takes the maximum; ``limit_hit``
        is dropped (per-run budgets do not compose into one).  This is
        how :mod:`repro.batch` folds per-worker statistics into one
        campaign-level snapshot.

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
        total = cls(
            strategy=strategy,
            states=0,
            transitions=0,
            expanded=0,
            elapsed=0.0,
            wall_elapsed=0.0,
            frontier_peak=0,
            parent_map_bytes=0,
            cache_hits=0,
            cache_misses=0,
            cache_evictions=0,
            limit_hit=None,
        )
        for snap in snapshots:
            if snap is None:
                continue
            total.states += snap.states
            total.transitions += snap.transitions
            total.expanded += snap.expanded
            total.elapsed += snap.elapsed
            total.frontier_peak = max(total.frontier_peak, snap.frontier_peak)
            total.parent_map_bytes += snap.parent_map_bytes
            total.cache_hits += snap.cache_hits
            total.cache_misses += snap.cache_misses
            total.cache_evictions += snap.cache_evictions
            total.verdict_cache_hits += snap.verdict_cache_hits
            total.verdict_cache_misses += snap.verdict_cache_misses
            for name, count in snap.tier_attempts.items():
                total.tier_attempts[name] = (
                    total.tier_attempts.get(name, 0) + count
                )
            for name, count in snap.tier_hits.items():
                total.tier_hits[name] = total.tier_hits.get(name, 0) + count
            total.tier_escalations += snap.tier_escalations
            total.states_canonicalized += snap.states_canonicalized
            total.orbits_merged += snap.orbits_merged
            total.por_pruned += snap.por_pruned
            total.hier_partitions_checked += snap.hier_partitions_checked
            total.hier_interface_hits += snap.hier_interface_hits
            total.hier_sim_escalations += snap.hier_sim_escalations
            total.modal_transitions_checked += snap.modal_transitions_checked
            total.modal_transient_escalations += (
                snap.modal_transient_escalations
            )
        total.wall_elapsed = (
            wall_elapsed if wall_elapsed is not None else total.elapsed
        )
        return total

    def format(self) -> str:
        """Multi-line rendering for the CLI."""
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
        if self.verdict_cache_hits or self.verdict_cache_misses:
            lines.append(
                f"verdict cache: {self.verdict_cache_hits} hits / "
                f"{self.verdict_cache_misses} misses "
                f"({self.verdict_cache_hit_rate:.1%} hit rate)"
            )
        if self.tier_attempts or self.tier_escalations:
            lines.append("portfolio tiers:")
            for name in self.tier_attempts:
                hits = self.tier_hits.get(name, 0)
                lines.append(
                    f"  {name}: {self.tier_attempts[name]} attempt(s), "
                    f"{hits} hit(s)"
                )
            lines.append(
                f"  escalated to exploration: {self.tier_escalations}"
            )
        if self.hier_partitions_checked:
            lines.append(
                f"hier: {self.hier_partitions_checked} partition(s) "
                f"checked, {self.hier_interface_hits} settled by the "
                f"interface, {self.hier_sim_escalations} escalated to "
                f"flattened simulation"
            )
        if self.modal_transitions_checked:
            lines.append(
                f"modal: {self.modal_transitions_checked} transition(s) "
                f"checked, {self.modal_transient_escalations} escalated "
                f"to transient simulation"
            )
        if self.states_canonicalized or self.orbits_merged or self.por_pruned:
            lines.append(
                f"reduction: {self.states_canonicalized} states "
                f"canonicalized, {self.orbits_merged} orbits merged, "
                f"{self.por_pruned} transitions pruned"
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
