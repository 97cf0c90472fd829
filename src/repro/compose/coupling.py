"""Coupling graph: which processors' timing can influence each other.

Nodes are the processors of a bound instance model; an edge means the
two processors' schedules are interdependent, so they must be analyzed
in the same state space.  Three edge kinds are derived directly from
what the translation (Algorithm 1) would generate:

* ``event`` -- a semantic connection that the translator would give a
  queue process (event / event-data connection into an event-dispatched
  thread) crosses processors, or an environment device feeds queued
  connections into more than one processor.  The queue synchronizes
  send and dispatch, so arrival times on one processor depend on
  completion times on the other.
* ``bus`` -- connections bound to the same bus have source threads on
  different processors (they contend for the bus resource), or a
  bus-bound connection itself crosses processors (cutting it would
  drop the bus resource from the source skeleton).
* ``data`` -- threads on different processors require access to the
  same shared data resource, using exactly the resource identity the
  translator uses (resolved access target, else classifier fallback).

Pure data-port connections with no bus binding into periodic threads
produce *no* ACSR (the destination samples a value the timing model
never sees), so they are deliberately not edges: cutting them is what
makes decomposition profitable.

Connected components of this graph are the **islands**.  Situations the
graph cannot soundly express (multi-modal models, where a mode switch
anywhere can reshape every processor's workload) are reported as a
global *fallback reason* instead of edges.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.aadl.components import ComponentCategory
from repro.aadl.features import AccessFeature, AccessKind, AccessCategory
from repro.aadl.instance import ComponentInstance, SystemInstance
from repro.translate.translator import (
    _needs_queue,
    group_threads_by_host,
)

EDGE_KINDS = ("event", "bus", "data")


class CouplingEdge:
    """One reason two processors cannot be analyzed apart."""

    __slots__ = ("a", "b", "kind", "detail")

    def __init__(
        self,
        a: ComponentInstance,
        b: ComponentInstance,
        kind: str,
        detail: str,
    ) -> None:
        # Normalize the endpoint order so edge identity is symmetric.
        if b.qualified_name < a.qualified_name:
            a, b = b, a
        self.a = a
        self.b = b
        self.kind = kind
        self.detail = detail

    @property
    def key(self) -> Tuple[str, str, str, str]:
        return (self.a.qualified_name, self.b.qualified_name,
                self.kind, self.detail)

    def format(self) -> str:
        return (
            f"{self.a.qualified_name} -- {self.b.qualified_name} "
            f"[{self.kind}] {self.detail}"
        )

    def __repr__(self) -> str:
        return f"CouplingEdge({self.format()!r})"


class Island:
    """A connected component of the coupling graph: processors that must
    share one state space, plus the threads bound to them."""

    __slots__ = ("index", "processors", "threads")

    def __init__(
        self,
        index: int,
        processors: Sequence[ComponentInstance],
        threads: Sequence[ComponentInstance],
    ) -> None:
        self.index = index
        self.processors = sorted(processors, key=lambda p: p.qualified_name)
        self.threads = sorted(threads, key=lambda t: t.qualified_name)

    @property
    def label(self) -> str:
        names = "+".join(p.name for p in self.processors)
        return f"island-{self.index}-{names}"

    def format(self) -> str:
        lines = [f"{self.label}:"]
        for processor in self.processors:
            bound = [
                t.qualified_name
                for t in self.threads
                if t.host_processor is processor
            ]
            lines.append(f"  {processor.qualified_name}: " + ", ".join(bound))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Island({self.label!r}, processors={len(self.processors)}, "
            f"threads={len(self.threads)})"
        )


class CouplingGraph:
    """Processors plus coupling edges, with the component partition."""

    def __init__(
        self,
        processors: Sequence[ComponentInstance],
        edges: Sequence[CouplingEdge],
        by_processor: Dict[ComponentInstance, List[ComponentInstance]],
    ) -> None:
        self.processors = sorted(
            processors, key=lambda p: p.qualified_name
        )
        # Deterministic, de-duplicated edge list.
        seen = set()
        self.edges: List[CouplingEdge] = []
        for edge in sorted(edges, key=lambda e: e.key):
            if edge.key not in seen:
                seen.add(edge.key)
                self.edges.append(edge)
        self._by_processor = by_processor

    def islands(self) -> List[Island]:
        """Connected components, ordered by their lowest processor name."""
        parent: Dict[ComponentInstance, ComponentInstance] = {
            p: p for p in self.processors
        }

        def find(node: ComponentInstance) -> ComponentInstance:
            while parent[node] is not node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node

        for edge in self.edges:
            root_a, root_b = find(edge.a), find(edge.b)
            if root_a is not root_b:
                parent[root_b] = root_a

        groups: Dict[ComponentInstance, List[ComponentInstance]] = {}
        for processor in self.processors:
            groups.setdefault(find(processor), []).append(processor)
        ordered = sorted(
            groups.values(),
            key=lambda members: min(p.qualified_name for p in members),
        )
        islands = []
        for index, members in enumerate(ordered):
            threads: List[ComponentInstance] = []
            for processor in members:
                threads.extend(self._by_processor.get(processor, ()))
            islands.append(Island(index, members, threads))
        return islands


class Partition:
    """The decomposition decision for one instance model.

    Either ``islands`` holds two or more analyzable islands, or
    ``fallback_reason`` explains why the model must be analyzed
    monolithically (the two are mutually exclusive by construction:
    a usable partition clears the reason).
    """

    def __init__(
        self,
        instance: SystemInstance,
        graph: Optional[CouplingGraph],
        islands: Sequence[Island],
        fallback_reason: Optional[str],
    ) -> None:
        self.instance = instance
        self.graph = graph
        self.islands = list(islands)
        self.fallback_reason = fallback_reason

    @property
    def decomposable(self) -> bool:
        return self.fallback_reason is None

    def format(self) -> str:
        lines = [f"model: {self.instance.qualified_name}"]
        if self.graph is not None:
            lines.append(
                f"processors: {len(self.graph.processors)}, "
                f"coupling edges: {len(self.graph.edges)}"
            )
            for edge in self.graph.edges:
                lines.append(f"  {edge.format()}")
        if self.decomposable:
            lines.append(f"islands: {len(self.islands)}")
            for island in self.islands:
                for line in island.format().splitlines():
                    lines.append(f"  {line}")
        else:
            lines.append(f"fallback: monolithic ({self.fallback_reason})")
        return "\n".join(lines)

    def __repr__(self) -> str:
        if self.decomposable:
            return f"Partition(islands={len(self.islands)})"
        return f"Partition(fallback={self.fallback_reason!r})"


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------


def _processor_of(
    component: ComponentInstance,
) -> Optional[ComponentInstance]:
    # Partitioned threads couple through their *host*: a virtual
    # processor shares its physical processor's island.
    if component.category is ComponentCategory.THREAD:
        return component.host_processor
    return None


def _data_resource_ids(thread: ComponentInstance, instance) -> List[str]:
    """The shared-data resource identities of ``thread``, mirroring the
    translator's ``_access_resources`` (resolved target qualified name,
    else classifier, else a thread-private name that cannot collide)."""
    ids: List[str] = []
    resolved = set()
    for acc in instance.access_connections:
        if acc.feature.component is not thread:
            continue
        decl = acc.feature.feature
        if (
            isinstance(decl, AccessFeature)
            and decl.kind is AccessKind.REQUIRES
            and decl.category is AccessCategory.DATA
        ):
            resolved.add(acc.feature)
            ids.append(acc.target.qualified_name)
    for feature in thread.features.values():
        decl = feature.feature
        if not isinstance(decl, AccessFeature) or feature in resolved:
            continue
        if decl.kind is not AccessKind.REQUIRES:
            continue
        if decl.category is not AccessCategory.DATA:
            continue
        ids.append(decl.classifier or f"{thread.qualified_name}.{decl.name}")
    return ids


def build_coupling_graph(instance: SystemInstance) -> CouplingGraph:
    """Compute the coupling graph of a bound instance model.

    Raises :class:`~repro.errors.TranslationError` when threads are
    unbound (the same failure the translator itself would report).
    """
    by_processor = group_threads_by_host(instance)
    processors = list(by_processor)
    edges: List[CouplingEdge] = []

    # -- event edges: queued connections whose endpoints' processors
    #    differ, plus devices fanning queued connections into several
    #    processors (the device process is duplicated into each island,
    #    which is only sound if no island pair shares it).
    device_targets: Dict[ComponentInstance, List[Tuple]] = {}
    for conn in instance.connections:
        src = conn.source.component
        dst = conn.destination.component
        queued = _needs_queue(conn)
        src_proc = _processor_of(src)
        dst_proc = _processor_of(dst)
        if queued and src_proc is not None and dst_proc is not None:
            if src_proc is not dst_proc:
                edges.append(
                    CouplingEdge(
                        src_proc,
                        dst_proc,
                        "event",
                        f"queued connection {conn.qualified_name}",
                    )
                )
        if (
            queued
            and src.category is ComponentCategory.DEVICE
            and dst_proc is not None
        ):
            device_targets.setdefault(src, []).append((dst_proc, conn))
        # Bus-bound connections crossing processors couple them even
        # when unqueued: the bus resource lives in the source skeleton,
        # so slicing either side apart changes its resource demand.
        if conn.buses and src_proc is not None and dst_proc is not None:
            if src_proc is not dst_proc:
                for bus in conn.buses:
                    edges.append(
                        CouplingEdge(
                            src_proc,
                            dst_proc,
                            "bus",
                            f"{bus.qualified_name} carries "
                            f"{conn.qualified_name}",
                        )
                    )
    for device, targets in device_targets.items():
        procs = sorted(
            {proc for proc, _ in targets}, key=lambda p: p.qualified_name
        )
        for i, proc_a in enumerate(procs):
            for proc_b in procs[i + 1:]:
                edges.append(
                    CouplingEdge(
                        proc_a,
                        proc_b,
                        "event",
                        f"device {device.qualified_name} dispatches both",
                    )
                )

    # -- bus edges: source threads on different processors sending over
    #    the same bus contend for its resource.
    bus_senders: Dict[ComponentInstance, List[ComponentInstance]] = {}
    for conn in instance.connections:
        src_proc = _processor_of(conn.source.component)
        if src_proc is None:
            continue
        for bus in conn.buses:
            bus_senders.setdefault(bus, []).append(src_proc)
    for bus, procs in bus_senders.items():
        unique = sorted(set(procs), key=lambda p: p.qualified_name)
        for i, proc_a in enumerate(unique):
            for proc_b in unique[i + 1:]:
                edges.append(
                    CouplingEdge(
                        proc_a,
                        proc_b,
                        "bus",
                        f"shared bus {bus.qualified_name}",
                    )
                )

    # -- data edges: the same shared resource identity required from
    #    threads on different processors.
    holders: Dict[str, List[Tuple[ComponentInstance, ComponentInstance]]] = {}
    for processor, threads in by_processor.items():
        for thread in threads:
            for resource in _data_resource_ids(thread, instance):
                holders.setdefault(resource, []).append((processor, thread))
    for resource, entries in holders.items():
        procs = sorted(
            {proc for proc, _ in entries}, key=lambda p: p.qualified_name
        )
        for i, proc_a in enumerate(procs):
            for proc_b in procs[i + 1:]:
                edges.append(
                    CouplingEdge(
                        proc_a,
                        proc_b,
                        "data",
                        f"shared data {resource}",
                    )
                )

    return CouplingGraph(processors, edges, by_processor)


def partition_instance(instance: SystemInstance) -> Partition:
    """Decide how (whether) to decompose ``instance``.

    Returns a :class:`Partition`: islands when decomposition is sound
    and actually splits the model, otherwise a fallback reason --
    multi-modal models (mode switches couple every processor), fewer
    than two processors, or a coupling graph that is one connected
    component.  An instance pinned to one mode passes the multi-modal
    bar: its verdict is claimed for that steady mode only, so no switch
    can reshape the islands.
    """
    if instance.multi_modal():
        modal = ", ".join(sorted(instance.active_modes))
        return Partition(
            instance,
            None,
            [],
            f"multi-modal model (mode transitions can reshape every "
            f"processor's workload): {modal}",
        )
    graph = build_coupling_graph(instance)
    if len(graph.processors) < 2:
        return Partition(
            instance,
            graph,
            [],
            f"{len(graph.processors)} bound processor(s); nothing to split",
        )
    islands = graph.islands()
    if len(islands) < 2:
        kinds = sorted({edge.kind for edge in graph.edges})
        return Partition(
            instance,
            graph,
            [],
            "all processors coupled into one island "
            f"(edge kinds: {', '.join(kinds) if kinds else 'none'})",
        )
    return Partition(instance, graph, islands, None)
