"""The four benchmark workloads: seeded AADL text in, verdict out.

Each workload turns ``(seed, index)`` into one AADL model *as text*
(input ``index`` of a seed never depends on how many inputs are drawn,
so a prefix of the list is the same models whatever its length) and
analyzes it the way the CLI does: ``parse_model`` -> ``instantiate`` ->
the workload's public entry point.  The harness calls every layer
through its module attribute (``repro.aadl.parser.parse_model``, not a
``from`` import), so the outside-in wrappers of :mod:`probes` time the
harness's own calls too.

``reference`` gives an expected verdict that does not come from the
entry point under test, or None where no cheap independent answer
exists: the classical oracle (RTA, EDF demand, exact simulation) for
the one-processor screen, and the utilization cap -- a processor or
mode loaded past 100% can never be schedulable -- everywhere else.
Seeds with an answer file are checked against it instead.

This module imports ``repro`` lazily: :func:`load` must run first, in
the process that analyzes (see ``one_round.py``).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Optional

#: Verdict strings, as ``repro.analysis.Verdict.value`` spells them.
SCHEDULABLE = "schedulable"
UNSCHEDULABLE = "unschedulable"
UNKNOWN = "unknown"

_SCREEN_GENERATORS = ("uniform", "harmonic", "constrained", "offset")
#: (processors, threads per processor) of the explore workload
_EXPLORE_SHAPES = ((2, 3), (3, 2))


class Item:
    """One generated input: its AADL text and what the checks need."""

    __slots__ = ("text", "sha256", "root", "overloaded", "case")

    def __init__(self, text: str, root: str, *, overloaded=False, case=None):
        self.text = text
        self.sha256 = hashlib.sha256(text.encode("utf-8")).hexdigest()
        self.root = root
        #: some processor or mode is loaded past 100%: the verdict must
        #: be unschedulable whatever the analysis does
        self.overloaded = overloaded
        #: the screen workload's task set as an oracle case
        self.case = case


class Workload:
    """How to draw, analyze and independently check one workload."""

    def __init__(
        self,
        name: str,
        tag: int,
        size: int,
        rss_after: int,
        draw: Callable[..., Item],
        analyze: Callable[[Item], str],
    ) -> None:
        self.name = name
        #: mixed into every input's seed so workloads never share draws
        self.tag = tag
        #: inputs per seed; a round that gets through them all wraps around
        self.size = size
        #: peak RSS is read after this many measured inputs -- a fixed
        #: amount of work, so a faster program is not charged for the
        #: extra inputs it gets through
        self.rss_after = rss_after
        self._draw = draw
        self.analyze = analyze

    def draw(self, seed: int, index: int) -> Item:
        """Input ``index`` of ``seed``, independent of every other input."""
        import numpy as np

        rng = np.random.default_rng([seed, self.tag, index])
        return self._draw(rng, index)

    def reference(self, item: Item) -> Optional[str]:
        if item.case is not None:
            return _classical_reference(item.case)
        return UNSCHEDULABLE if item.overloaded else None


def load() -> None:
    """Import every module the workloads call into (timed as set-up)."""
    import repro.aadl.instance  # noqa: F401
    import repro.aadl.parser  # noqa: F401
    import repro.analysis.schedulability  # noqa: F401
    import repro.hier.analysis  # noqa: F401
    import repro.modal.analysis  # noqa: F401


# -- analysis: text -> verdict ------------------------------------------


def _instance(item: Item):
    import repro.aadl.instance
    import repro.aadl.parser

    model = repro.aadl.parser.parse_model(item.text)
    return repro.aadl.instance.instantiate(model, item.root)


def _analyze_explore(item: Item) -> str:
    import repro.analysis.schedulability as schedulability

    return schedulability.analyze_model(_instance(item)).verdict.value


def _analyze_screen(item: Item) -> str:
    import repro.analysis.schedulability as schedulability

    return schedulability.analyze_model(
        _instance(item), portfolio=True
    ).verdict.value


def _analyze_hier(item: Item) -> str:
    import repro.hier.analysis

    return repro.hier.analysis.analyze_hier(_instance(item)).verdict.value


def _analyze_modal(item: Item) -> str:
    import repro.aadl.parser
    import repro.modal.analysis

    model = repro.aadl.parser.parse_model(item.text)
    return repro.modal.analysis.analyze_modal(
        model,
        item.root,
        protocol="asynchronous",
        portfolio=True,
        workers=1,
    ).verdict.value


# -- drawing: rng -> AADL text -------------------------------------------


def _text(model) -> str:
    from repro.aadl.printer import format_model

    return format_model(model)


def _overloaded(instance) -> bool:
    """Some processor, virtual or not, is asked for more than 100%:
    the threads bound to it plus, on a host, its partitions' servers."""
    from repro.aadl.properties import (
        COMPUTE_EXECUTION_TIME,
        EXECUTION_TIME,
        PERIOD,
    )

    load: Dict[str, float] = {}

    def add(processor, busy, period) -> None:
        key = processor.qualified_name
        load[key] = load.get(key, 0.0) + busy.picoseconds / period.picoseconds

    for thread in instance.threads():
        add(
            thread.bound_processor,
            thread.property_time_range(COMPUTE_EXECUTION_TIME).high,
            thread.property_time(PERIOD),
        )
    for vproc in instance.virtual_processors():
        add(
            vproc.bound_processor,
            vproc.property_time(EXECUTION_TIME),
            vproc.property_time(PERIOD),
        )
    return any(share > 1.0 + 1e-9 for share in load.values())


def _draw_explore(rng, index) -> Item:
    from repro.workloads import multiprocessor_system

    # The shape cycles with the index, so every stretch of inputs holds
    # both shapes equally and the mix never varies with the seed.
    processors, threads = _EXPLORE_SHAPES[index % len(_EXPLORE_SHAPES)]
    instance = multiprocessor_system(
        processors,
        threads,
        utilization_per_processor=float(rng.uniform(0.4, 0.95)),
        shared_bus=True,
        rng=rng,
    )
    return Item(
        _text(instance.declarative),
        "Multi.impl",
        overloaded=_overloaded(instance),
    )


def _draw_screen(rng, index) -> Item:
    from repro.oracle.case import OracleCase

    generator = _SCREEN_GENERATORS[index % len(_SCREEN_GENERATORS)]
    case = OracleCase.generate(
        generator,
        int(rng.integers(2**31)),
        n=int(rng.integers(3, 9)),
        utilization=round(float(rng.uniform(0.5, 0.98)), 4),
        # Deadline-monotonic is the optimal fixed-priority order once
        # deadlines are constrained; rate-monotonic everywhere else.
        scheduling="DMS" if generator == "constrained" else "RMS",
    )
    return Item(case.aadl_text(), "Synthetic.impl", case=case)


def _draw_hier(rng, index) -> Item:
    from repro.workloads import partitioned_system

    instance = partitioned_system(
        3,
        3,
        utilization_per_partition=0.2,
        supply_factor=(0.9, 1.5),
        periods=(40, 60, 90, 120),
        server_periods=(7, 11, 13),
        rng=rng,
    )
    return Item(
        _text(instance.declarative),
        "Partitioned.impl",
        overloaded=_overloaded(instance),
    )


def _draw_modal(rng, index) -> Item:
    from repro.aadl.instance import instantiate
    from repro.workloads import faulty_modal_system

    model = faulty_modal_system(
        3,
        2,
        utilization=(0.3, 0.6),
        shared_utilization=(0.05, 0.15),
        periods=(20, 40),
        rng=rng,
    )
    impl = model.implementation("FaultyModal.impl")
    # The generator's mode cycle makes every declared mode reachable.
    overloaded = any(
        _overloaded(
            instantiate(model, impl.name, mode_overrides={impl.name: mode})
        )
        for mode in impl.modes
    )
    return Item(_text(model), impl.name, overloaded=overloaded)


def _classical_reference(case) -> Optional[str]:
    """The verdict the classical oracle forces, or None when no oracle
    that applies is decisive (exact, passing-sufficient or
    failing-necessary)."""
    from repro.oracle.verdicts import classical_verdicts

    for oracle in classical_verdicts(case):
        if oracle.verdict is None:
            continue
        if oracle.relation == "exact" or (
            (oracle.relation == "sufficient") == oracle.verdict
        ):
            return SCHEDULABLE if oracle.verdict else UNSCHEDULABLE
    return None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "explore-multiproc", 1, 600, 100, _draw_explore, _analyze_explore
        ),
        Workload(
            "screen-uniproc", 2, 3000, 2000, _draw_screen, _analyze_screen
        ),
        Workload("hier-partitions", 3, 1400, 200, _draw_hier, _analyze_hier),
        Workload("modal-async", 4, 400, 60, _draw_modal, _analyze_modal),
    )
}
