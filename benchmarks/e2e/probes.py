"""Per-layer timing measured from outside the program.

A :class:`Probe` wraps the public functions of each layer (the
``TARGETS`` table) and every ``Tier.decide`` override with a timing
wrapper, then rebinds every ``repro.*`` module global that still holds
the original function object -- ``from X import f`` copies the binding
into the importing module, so patching ``X.f`` alone would miss those
callers.  Nothing inside ``src/`` changes and the in-program tracer
stays the :class:`~repro.obs.tracer.NullTracer`.

Each wrapped call records its inclusive time and its *self* time: the
inclusive time minus the time of wrapped calls nested inside it.
Counts come from return values and arguments (states explored, cache
hits, simulated quanta, ...) so that rates are measured where the work
happens.  What this cannot see: a function object stashed somewhere
other than a module global or class attribute (a dict value, a default
argument) keeps calling the original.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


def _count_parse(rec, args, kwargs, result) -> None:
    rec.add("chars", len(args[0] if args else kwargs["text"]))


def _count_explore(rec, args, kwargs, result) -> None:
    rec.add("states", result.num_states)
    rec.add("transitions", result.num_transitions)
    if result.stats is not None:
        rec.add("cache_hits", result.stats.cache_hits)
        rec.add("cache_misses", result.stats.cache_misses)


def _count_portfolio(rec, args, kwargs, result) -> None:
    escalated = any(
        step.startswith("escalated") for step in result.tier_trail
    )
    rec.add("analytic", 0 if escalated else 1)


def _count_check_partition(rec, args, kwargs, result) -> None:
    rec.add("interface_ok", int(result is not None and result.ok))


def _count_simulate_partition(rec, args, kwargs, result) -> None:
    if result.schedulable is not None:  # None: window over the cap
        rec.add("quanta", result.horizon)


def _count_check_transition(rec, args, kwargs, result) -> None:
    rec.add("escalated", int(result.escalated))


def _count_simulate_transition(rec, args, kwargs, result) -> None:
    rec.add("quanta", kwargs["window"])


#: ``(metric name, defining module, function, counter)``: the public
#: functions of each layer, named ``<layer>.<function>``.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("aadl.parse_model", "repro.aadl.parser", "parse_model", _count_parse),
    ("aadl.instantiate", "repro.aadl.instance", "instantiate", None),
    ("translate.translate", "repro.translate.translator", "translate", None),
    ("engine.explore", "repro.engine.core", "explore", _count_explore),
    ("analysis.raise_trace", "repro.analysis.raising", "raise_trace", None),
    (
        "analysis.analyze_model",
        "repro.analysis.schedulability",
        "analyze_model",
        None,
    ),
    (
        "analysis.analyze_all_modes",
        "repro.analysis.modes",
        "analyze_all_modes",
        None,
    ),
    (
        "portfolio.analyze_portfolio",
        "repro.portfolio.analyzer",
        "analyze_portfolio",
        _count_portfolio,
    ),
    (
        "portfolio.build_context",
        "repro.portfolio.context",
        "build_context",
        None,
    ),
    ("hier.analyze_hier", "repro.hier.analysis", "analyze_hier", None),
    (
        "hier.check_partition",
        "repro.hier.check",
        "check_partition",
        _count_check_partition,
    ),
    (
        "hier.simulate_partition",
        "repro.hier.flatten",
        "simulate_partition",
        _count_simulate_partition,
    ),
    ("modal.analyze_modal", "repro.modal.analysis", "analyze_modal", None),
    (
        "modal.check_transition",
        "repro.modal.transient",
        "check_transition",
        _count_check_transition,
    ),
    (
        "modal.simulate_transition",
        "repro.modal.transient",
        "simulate_transition",
        _count_simulate_transition,
    ),
    ("batch.run_batch", "repro.batch.pool", "run_batch", None),
    ("batch.execute_job", "repro.batch.jobs", "execute_job", None),
    ("sched.simulate", "repro.sched.simulation", "simulate", None),
)

#: The portfolio tiers whose ``decide`` is reported, by class name.
TIERS: Tuple[str, ...] = (
    "UtilizationCapTier",
    "UtilizationBoundTier",
    "RtaTier",
    "EdfDemandTier",
    "SimulationTier",
    "HierTier",
)


def function_names() -> List[str]:
    """Every wrapped function's metric prefix, in report order."""
    return [name for name, _, _, _ in TARGETS] + [
        f"portfolio.{tier}.decide" for tier in TIERS
    ]


class Record:
    """Accumulated calls, times and counts of one wrapped function."""

    __slots__ = ("calls", "self_s", "total_s", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.counts: Dict[str, int] = {}

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def as_dict(self) -> Dict[str, Any]:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "counts": dict(self.counts),
        }


class Probe:
    """Timing wrappers around the layers, installed and removed as one."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.records: Dict[str, Record] = {}
        #: child-time accumulators of the wrapped calls now running
        self._stack: List[float] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(
        self, name: str, fn: Callable, counter: Optional[Callable] = None
    ) -> Callable:
        """``fn`` wrapped to record under ``name``."""
        record = self.records.setdefault(name, Record())
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                nested = stack.pop()
                record.calls += 1
                record.total_s += elapsed
                record.self_s += elapsed - nested
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                counter(record, args, kwargs, result)
            return result

        return timed

    def install(self) -> None:
        """Wrap every target and rebind every ``repro.*`` global (and
        class attribute, for tiers) that holds an original."""
        import importlib

        replacements: Dict[int, Callable] = {}
        for name, module_name, attr, counter in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            replacements[id(original)] = self.wrap(name, original, counter)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._set(module, key, wrapper)

        from repro.portfolio import tiers

        for tier in TIERS:
            cls = getattr(tiers, tier)
            self._set(
                cls,
                "decide",
                self.wrap(f"portfolio.{tier}.decide", cls.__dict__["decide"]),
            )

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {name: rec.as_dict() for name, rec in self.records.items()}


def layer_metrics(
    layers: Dict[str, Dict[str, Any]], inputs: int
) -> Dict[str, float]:
    """Per-layer metric values from summed :meth:`Probe.snapshot` data
    over ``inputs`` measured inputs (0 for a layer that never ran)."""

    def rec(name: str) -> Dict[str, Any]:
        return layers.get(name) or Record().as_dict()

    def count(name: str, counter: str) -> int:
        return rec(name)["counts"].get(counter, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: Dict[str, float] = {}
    for name in function_names():
        metrics[f"{name}.calls_per_input"] = rec(name)["calls"] / inputs
        metrics[f"{name}.self_ms"] = rec(name)["self_s"] * 1000 / inputs

    explore = rec("engine.explore")
    hits = count("engine.explore", "cache_hits")
    metrics["engine.states_per_s"] = ratio(
        count("engine.explore", "states"), explore["total_s"]
    )
    metrics["engine.states_per_input"] = (
        count("engine.explore", "states") / inputs
    )
    metrics["engine.cache_hit_rate"] = ratio(
        hits, hits + count("engine.explore", "cache_misses")
    )
    metrics["aadl.parse_chars_per_ms"] = ratio(
        count("aadl.parse_model", "chars"),
        rec("aadl.parse_model")["total_s"] * 1000,
    )
    metrics["portfolio.decided_share"] = ratio(
        count("portfolio.analyze_portfolio", "analytic"),
        rec("portfolio.analyze_portfolio")["calls"],
    )
    metrics["hier.interface_hit_ratio"] = ratio(
        count("hier.check_partition", "interface_ok"),
        rec("hier.check_partition")["calls"],
    )
    for name in ("hier.simulate_partition", "modal.simulate_transition"):
        metrics[f"{name}.quanta_per_ms"] = ratio(
            count(name, "quanta"), rec(name)["total_s"] * 1000
        )
    metrics["modal.escalation_ratio"] = ratio(
        count("modal.check_transition", "escalated"),
        rec("modal.check_transition")["calls"],
    )
    return metrics



def merge(
    snapshots: List[Dict[str, Dict[str, Any]]]
) -> Dict[str, Dict[str, Any]]:
    """The sum of several :meth:`Probe.snapshot` results."""
    total: Dict[str, Dict[str, Any]] = {}
    for snapshot in snapshots:
        for name, data in snapshot.items():
            into = total.setdefault(name, Record().as_dict())
            into["calls"] += data["calls"]
            into["self_s"] += data["self_s"]
            into["total_s"] += data["total_s"]
            for counter, amount in data["counts"].items():
                into["counts"][counter] = (
                    into["counts"].get(counter, 0) + amount
                )
    return total
