"""Instantiation: declarative model -> component-instance tree.

Mirrors OSATE's instantiation step (paper S1: "an XML-based internal
representation ... and a library of model exploration routines"):

1. build the instance tree from a root system implementation, expanding
   subcomponents recursively (filtered to those active in the initial
   mode of each implementation);
2. resolve *semantic connections* (paper S2): starting from an ultimate
   source feature on a thread/device, follow syntactic connections up the
   containment hierarchy, across one sibling connection, and down to the
   ultimate destination thread/device;
3. resolve bindings: ``Actual_Processor_Binding`` for threads and
   ``Actual_Connection_Binding`` (buses) for connections, both via
   reference property values interpreted relative to the holder of the
   property association.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import (
    AadlInstantiationError,
    AadlNameError,
    AadlPropertyError,
)
from repro.aadl.components import (
    ComponentCategory,
    ComponentImplementation,
    ComponentType,
    DeclarativeModel,
    Subcomponent,
)
from repro.aadl.connections import Connection, ConnectionKind
from repro.aadl.features import Port, PortDirection, PortKind
from repro.aadl.properties import (
    ACTUAL_CONNECTION_BINDING,
    ACTUAL_PROCESSOR_BINDING,
    PropertyValue,
    ReferenceValue,
    TimeRange,
    TimeValue,
)


class FeatureInstance:
    """An instantiated feature of a component instance."""

    __slots__ = ("component", "feature")

    def __init__(self, component: "ComponentInstance", feature) -> None:
        self.component = component
        self.feature = feature

    @property
    def name(self) -> str:
        return self.feature.name

    @property
    def qualified_name(self) -> str:
        return f"{self.component.qualified_name}.{self.feature.name}"

    @property
    def is_port(self) -> bool:
        return isinstance(self.feature, Port)

    def __repr__(self) -> str:
        return f"FeatureInstance({self.qualified_name!r})"


class ComponentInstance:
    """A node of the instance tree."""

    def __init__(
        self,
        name: str,
        category: ComponentCategory,
        ctype: ComponentType,
        impl: Optional[ComponentImplementation],
        parent: Optional["ComponentInstance"],
        decl: Optional[Subcomponent],
    ) -> None:
        self.name = name
        self.category = category
        self.ctype = ctype
        self.impl = impl
        self.parent = parent
        self.decl = decl
        self.children: Dict[str, "ComponentInstance"] = {}
        self.features: Dict[str, FeatureInstance] = {}
        for feature in ctype.features.values():
            self.features[feature.name.lower()] = FeatureInstance(self, feature)
        # Filled in by binding resolution (threads only).
        self.bound_processor: Optional["ComponentInstance"] = None

    # -- tree navigation ----------------------------------------------------

    @property
    def path(self) -> Tuple[str, ...]:
        if self.parent is None:
            return (self.name,)
        return self.parent.path + (self.name,)

    @property
    def qualified_name(self) -> str:
        return ".".join(self.path)

    @property
    def root(self) -> "ComponentInstance":
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def child(self, name: str) -> "ComponentInstance":
        try:
            return self.children[name.lower()]
        except KeyError:
            raise AadlNameError(
                f"{self.qualified_name} has no subcomponent {name!r}"
            ) from None

    def feature(self, name: str) -> FeatureInstance:
        try:
            return self.features[name.lower()]
        except KeyError:
            raise AadlNameError(
                f"{self.qualified_name} has no feature {name!r}"
            ) from None

    def descendants(self) -> Iterator["ComponentInstance"]:
        """All instances below this one, depth-first, self excluded."""
        for child in self.children.values():
            yield child
            yield from child.descendants()

    def self_and_descendants(self) -> Iterator["ComponentInstance"]:
        yield self
        yield from self.descendants()

    def by_category(
        self, category: ComponentCategory
    ) -> List["ComponentInstance"]:
        return [
            inst
            for inst in self.self_and_descendants()
            if inst.category is category
        ]

    @property
    def host_processor(self) -> Optional["ComponentInstance"]:
        """The physical processor this component ultimately executes on.

        Follows one level of indirection: a thread bound to a virtual
        processor executes on the virtual processor's own bound
        processor.  None while unbound.
        """
        target = self.bound_processor
        if (
            target is not None
            and target.category is ComponentCategory.VIRTUAL_PROCESSOR
        ):
            return target.bound_processor
        return target

    def threads(self) -> List["ComponentInstance"]:
        return self.by_category(ComponentCategory.THREAD)

    def processors(self) -> List["ComponentInstance"]:
        return self.by_category(ComponentCategory.PROCESSOR)

    def virtual_processors(self) -> List["ComponentInstance"]:
        return self.by_category(ComponentCategory.VIRTUAL_PROCESSOR)

    def buses(self) -> List["ComponentInstance"]:
        return self.by_category(ComponentCategory.BUS)

    def devices(self) -> List["ComponentInstance"]:
        return self.by_category(ComponentCategory.DEVICE)

    def resolve_path(self, path: Sequence[str]) -> "ComponentInstance":
        """Resolve a dotted instance path relative to this instance."""
        node = self
        for part in path:
            node = node.child(part)
        return node

    # -- property lookup -----------------------------------------------------

    def property_with_holder(
        self, name: str
    ) -> Optional[Tuple[PropertyValue, "ComponentInstance"]]:
        """Value and holder of a property, honouring AADL precedence:
        contained associations on enclosing components override the
        subcomponent declaration, which overrides the implementation,
        which overrides the type."""
        # Contained associations: nearest enclosing holder wins.
        node = self.parent
        rel_path = [self.name]
        while node is not None:
            for holder in _holders_of(node):
                value = _contained_lookup(holder, name, tuple(rel_path))
                if value is not None:
                    return value, node
            rel_path.insert(0, node.name)
            node = node.parent
        if self.decl is not None:
            value = self.decl.own_property(name)
            if value is not None:
                parent = self.parent if self.parent is not None else self
                return value, parent
        if self.impl is not None:
            value = self.impl.own_property(name)
            if value is not None:
                return value, self
        value = self.ctype.own_property(name)
        if value is not None:
            return value, self
        return None

    def property(
        self, name: str, default: Optional[PropertyValue] = None
    ) -> Optional[PropertyValue]:
        found = self.property_with_holder(name)
        return found[0] if found is not None else default

    def property_time(self, name: str) -> Optional[TimeValue]:
        value = self.property(name)
        if value is None:
            return None
        if isinstance(value, TimeValue):
            return value
        raise AadlPropertyError(
            f"{self.qualified_name}: property {name} is not a time value: "
            f"{value!r}"
        )

    def property_time_range(self, name: str) -> Optional[TimeRange]:
        value = self.property(name)
        if value is None:
            return None
        if isinstance(value, TimeRange):
            return value
        if isinstance(value, TimeValue):
            return TimeRange(value, value)
        raise AadlPropertyError(
            f"{self.qualified_name}: property {name} is not a time range: "
            f"{value!r}"
        )

    def property_int(self, name: str) -> Optional[int]:
        value = self.property(name)
        if value is None:
            return None
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise AadlPropertyError(
            f"{self.qualified_name}: property {name} is not an integer: "
            f"{value!r}"
        )

    def __repr__(self) -> str:
        return (
            f"ComponentInstance({self.qualified_name!r}, "
            f"{self.category.value})"
        )


def _holders_of(instance: ComponentInstance):
    if instance.impl is not None:
        yield instance.impl
    yield instance.ctype
    if instance.decl is not None:
        yield instance.decl


def _contained_lookup(holder, name: str, rel_path: Tuple[str, ...]):
    result = None
    for assoc in holder.contained_properties(name):
        if tuple(p.lower() for p in assoc.applies_to) == tuple(
            p.lower() for p in rel_path
        ):
            result = assoc.value
    return result


class ConnectionInstance:
    """A semantic connection: ultimate source to ultimate destination.

    ``syntactic`` records the chain of (owner instance, connection)
    pairs; ``buses`` the execution-platform components the connection is
    bound to.
    """

    def __init__(
        self,
        source: FeatureInstance,
        destination: FeatureInstance,
        syntactic: Sequence[Tuple[ComponentInstance, Connection]],
    ) -> None:
        if not syntactic:
            raise AadlInstantiationError(
                "semantic connection needs at least one syntactic connection"
            )
        self.source = source
        self.destination = destination
        self.syntactic = list(syntactic)
        self.buses: List[ComponentInstance] = []

    @property
    def name(self) -> str:
        return "+".join(conn.name for _, conn in self.syntactic)

    @property
    def qualified_name(self) -> str:
        return (
            f"{self.source.qualified_name}->{self.destination.qualified_name}"
        )

    @property
    def kind(self) -> PortKind:
        """Connection kind, determined by the destination port."""
        return self.destination.feature.kind

    @property
    def dispatches_destination(self) -> bool:
        """True when arrival can dispatch a non-periodic destination thread."""
        return self.kind.can_dispatch

    def connection_property(self, name: str) -> Optional[PropertyValue]:
        """Last declared value of a property across the syntactic chain."""
        result = None
        for _, conn in self.syntactic:
            value = conn.own_property(name)
            if value is not None:
                result = value
        return result

    def destination_port_property(
        self, name: str
    ) -> Optional[PropertyValue]:
        """Property of the *last port* of the connection (paper S4.4 reads
        ``Queue_Size`` and ``Overflow_Handling_Protocol`` there)."""
        return self.destination.feature.own_property(name)

    def __repr__(self) -> str:
        return f"ConnectionInstance({self.qualified_name!r})"


class AccessConnectionInstance:
    """A resolved access connection: a thread's access feature bound to a
    shared data (or bus) component."""

    __slots__ = ("feature", "target", "syntactic")

    def __init__(
        self,
        feature: FeatureInstance,
        target: ComponentInstance,
        syntactic: Sequence[Tuple[ComponentInstance, Connection]],
    ) -> None:
        self.feature = feature
        self.target = target
        self.syntactic = list(syntactic)

    @property
    def qualified_name(self) -> str:
        return (
            f"{self.feature.qualified_name}<->{self.target.qualified_name}"
        )

    def __repr__(self) -> str:
        return f"AccessConnectionInstance({self.qualified_name!r})"


class SystemInstance(ComponentInstance):
    """The root of an instance tree, with resolved semantic connections."""

    def __init__(
        self,
        name: str,
        ctype: ComponentType,
        impl: ComponentImplementation,
        declarative: DeclarativeModel,
    ) -> None:
        super().__init__(
            name, ComponentCategory.SYSTEM, ctype, impl, None, None
        )
        self.declarative = declarative
        self.connections: List[ConnectionInstance] = []
        #: qualified name of each multi-modal component -> its active mode
        self.active_modes: Dict[str, Optional[str]] = {}
        self.access_connections: List[AccessConnectionInstance] = []

    def connections_to(
        self, instance: ComponentInstance
    ) -> List[ConnectionInstance]:
        """Semantic connections whose ultimate destination lies on
        ``instance`` (paper: E^in_t)."""
        return [
            conn
            for conn in self.connections
            if conn.destination.component is instance
        ]

    def connections_from(
        self, instance: ComponentInstance
    ) -> List[ConnectionInstance]:
        """Semantic connections whose ultimate source lies on ``instance``
        (paper: E^out_t)."""
        return [
            conn
            for conn in self.connections
            if conn.source.component is instance
        ]

    def partitioned(self) -> bool:
        """True when any thread executes inside a virtual-processor
        partition rather than directly on its host."""
        return any(
            thread.bound_processor is not None
            and thread.bound_processor is not thread.host_processor
            for thread in self.threads()
        )

    def shared_data_of(
        self, instance: ComponentInstance
    ) -> List[ComponentInstance]:
        """Data components ``instance`` requires access to (resolved
        access connections)."""
        return [
            acc.target
            for acc in self.access_connections
            if acc.feature.component is instance
        ]

    def __repr__(self) -> str:
        return (
            f"SystemInstance({self.qualified_name!r}, "
            f"threads={len(self.threads())}, "
            f"connections={len(self.connections)})"
        )


class SystemSlice(SystemInstance):
    """A filtered view of an instantiated system: the same component
    objects, restricted to a kept subset.

    The slice *shares* the underlying instance tree -- kept components
    are the original :class:`ComponentInstance` objects, so qualified
    names, bindings and property lookups (which climb the original
    parent chain) are byte-identical to the full model.  Only the
    enumeration surface is filtered: :meth:`descendants` (and therefore
    ``threads()``/``processors()``/...), ``connections`` and
    ``access_connections`` answer from the kept subset.

    Built by :func:`slice_instance`; consumed by the compositional
    analysis (:mod:`repro.compose`), which analyzes one processor
    island at a time.
    """

    def __init__(
        self,
        base: SystemInstance,
        keep: Iterable[ComponentInstance],
        *,
        label: Optional[str] = None,
    ) -> None:
        # Deliberately NOT calling super().__init__: the slice borrows
        # the base tree instead of building a new one, so every kept
        # node keeps its identity (and its qualified name).
        self.base = base
        self.label = label or base.name
        self.kept = frozenset(keep)
        self.name = base.name
        self.category = base.category
        self.ctype = base.ctype
        self.impl = base.impl
        self.parent = None
        self.decl = None
        self.children = base.children
        self.features = base.features
        self.bound_processor = None
        self.declarative = base.declarative
        self.active_modes = base.active_modes
        self.connections = [
            conn
            for conn in base.connections
            if conn.source.component in self.kept
            and conn.destination.component in self.kept
        ]
        self.access_connections = [
            acc
            for acc in base.access_connections
            if acc.feature.component in self.kept and acc.target in self.kept
        ]

    def descendants(self) -> Iterator[ComponentInstance]:
        for inst in self.base.descendants():
            if inst in self.kept:
                yield inst

    def __repr__(self) -> str:
        return (
            f"SystemSlice({self.label!r}, threads={len(self.threads())}, "
            f"connections={len(self.connections)})"
        )


def slice_instance(
    base: SystemInstance,
    components: Iterable[ComponentInstance],
    *,
    label: Optional[str] = None,
) -> SystemSlice:
    """Slice ``base`` down to ``components`` plus everything they imply.

    The keep-set is closed over:

    * the ancestors of every kept component (so containment navigation
      still reaches them);
    * the binding chain of every kept component (a thread's virtual
      processor and that virtual processor's host processor);
    * devices that are the ultimate source of a connection into a kept
      component (environment stubs belong with their consumer);
    * buses a kept connection is bound to;
    * shared data components a kept thread requires access to.

    Connections survive only when both endpoints are kept, which is
    what makes the slice analyzable on its own.
    """
    kept = set()
    for component in components:
        node: Optional[ComponentInstance] = component
        while node is not None and node is not base:
            kept.add(node)
            node = node.parent
    # Processor bindings come along: a kept thread keeps the virtual
    # processor it is bound to and that virtual processor's host, so a
    # partitioned island stays analyzable (and re-instantiable) alone.
    for component in list(kept):
        target = component.bound_processor
        while target is not None and target not in kept:
            node = target
            while node is not None and node is not base:
                kept.add(node)
                node = node.parent
            target = target.bound_processor
    # Devices feeding kept components come along.
    for conn in base.connections:
        source = conn.source.component
        if (
            source.category is ComponentCategory.DEVICE
            and conn.destination.component in kept
        ):
            node = source
            while node is not None and node is not base:
                kept.add(node)
                node = node.parent
    # Buses of surviving connections and shared data of kept threads.
    for conn in base.connections:
        if (
            conn.source.component in kept
            and conn.destination.component in kept
        ):
            kept.update(conn.buses)
    for acc in base.access_connections:
        if acc.feature.component in kept:
            kept.add(acc.target)
    return SystemSlice(base, kept, label=label)


# ---------------------------------------------------------------------------
# Instantiation
# ---------------------------------------------------------------------------


def infer_root(model: DeclarativeModel) -> str:
    """The unique root system implementation of ``model``.

    The root of the hierarchy is a system implementation that no other
    implementation instantiates as a subcomponent.  Raises
    :class:`~repro.errors.AadlInstantiationError` (listing the
    candidates) unless exactly one exists -- callers that accept an
    explicit root (the CLI, batch jobs) surface that message as the
    "--root is required" hint.
    """
    candidates = [
        impl.name
        for impl in model.implementations()
        if model.type(impl.type_name).category is ComponentCategory.SYSTEM
    ]
    used = {
        sub.classifier.lower()
        for impl in model.implementations()
        for sub in impl.subcomponents.values()
    }
    roots = [name for name in candidates if name.lower() not in used]
    if len(roots) != 1:
        raise AadlInstantiationError(
            "cannot infer a unique root; candidate system "
            "implementations: " + (", ".join(roots or candidates) or "<none>")
        )
    return roots[0]


def instantiate(
    model: DeclarativeModel,
    root_impl: str,
    *,
    root_name: Optional[str] = None,
    mode_overrides: Optional[Dict[str, str]] = None,
) -> SystemInstance:
    """Instantiate ``root_impl`` (e.g. ``"CruiseControl.impl"``).

    The returned :class:`SystemInstance` has a full instance tree, resolved
    semantic connections, and resolved processor/bus bindings.

    ``mode_overrides`` maps implementation names to the mode to activate
    there instead of the initial one -- this is how per-mode analysis
    (``repro.analysis.modes``) instantiates each system operation mode of
    a multi-modal model.
    """
    impl = model.implementation(root_impl)
    ctype = model.type_of_impl(impl)
    if ctype.category is not ComponentCategory.SYSTEM:
        raise AadlInstantiationError(
            f"root implementation must be a system, got "
            f"{ctype.category.value}"
        )
    overrides = {
        name.lower(): mode for name, mode in (mode_overrides or {}).items()
    }
    for impl_name, mode in overrides.items():
        target = model.implementation(impl_name)
        if not target.modes:
            raise AadlInstantiationError(
                f"{target.name}: mode override {mode!r} but no modes declared"
            )
        if mode.lower() not in target.modes:
            raise AadlInstantiationError(
                f"{target.name}: unknown mode {mode!r}; declared: "
                + ", ".join(m.name for m in target.modes.values())
            )
    from repro.obs.tracer import current_tracer

    with current_tracer().span("aadl.instantiate", root=root_impl) as span:
        root = SystemInstance(
            root_name or impl.type_name, ctype, impl, model
        )
        root.active_modes = {}
        _expand(root, model, overrides)
        _resolve_semantic_connections(root, overrides)
        _resolve_access_connections(root, overrides)
        _resolve_bindings(root)
        span.set(
            threads=len(root.threads()),
            connections=len(root.connections),
        )
    return root


def _active_mode_name(
    impl: ComponentImplementation, overrides: Dict[str, str]
) -> Optional[str]:
    """The mode this instantiation activates in ``impl`` (None: modeless)."""
    if not impl.modes:
        override = overrides.get(impl.name.lower())
        if override is not None:
            raise AadlInstantiationError(
                f"{impl.name}: mode override {override!r} but no modes "
                f"declared"
            )
        return None
    override = overrides.get(impl.name.lower())
    if override is not None:
        if override.lower() not in impl.modes:
            raise AadlInstantiationError(
                f"{impl.name}: unknown mode {override!r}; declared: "
                + ", ".join(m.name for m in impl.modes.values())
            )
        return impl.modes[override.lower()].name
    initial = impl.initial_mode()
    return initial.name if initial is not None else None


def _active_in_mode(
    holder, impl: ComponentImplementation, overrides: Dict[str, str]
) -> bool:
    if not holder.in_modes:
        return True
    active = _active_mode_name(impl, overrides)
    if active is None:
        raise AadlInstantiationError(
            f"{impl.name}: 'in modes' used but no modes declared"
        )
    return any(m.lower() == active.lower() for m in holder.in_modes)


def _expand(
    instance: ComponentInstance,
    model: DeclarativeModel,
    overrides: Dict[str, str],
) -> None:
    impl = instance.impl
    if impl is None:
        return
    if impl.modes:
        instance.root.active_modes[instance.qualified_name] = (
            _active_mode_name(impl, overrides)
        )
    for sub in impl.subcomponents.values():
        if not _active_in_mode(sub, impl, overrides):
            continue
        try:
            ctype, sub_impl = model.resolve(sub.classifier)
        except AadlNameError as exc:
            raise AadlInstantiationError(
                f"{instance.qualified_name}.{sub.name}: {exc}"
            ) from exc
        if ctype.category is not sub.category:
            raise AadlInstantiationError(
                f"{instance.qualified_name}.{sub.name}: declared as "
                f"{sub.category.value} but classifier {sub.classifier!r} "
                f"is a {ctype.category.value}"
            )
        child = ComponentInstance(
            sub.name, sub.category, ctype, sub_impl, instance, sub
        )
        instance.children[sub.name.lower()] = child
        _expand(child, model, overrides)


def _endpoint(
    owner: ComponentInstance, ref
) -> FeatureInstance:
    if ref.is_self:
        return owner.feature(ref.feature)
    return owner.child(ref.subcomponent).feature(ref.feature)


def _resolve_semantic_connections(
    root: SystemInstance, overrides: Dict[str, str]
) -> None:
    """Follow syntactic port connections into semantic connections."""
    # Map: source FeatureInstance -> [(destination FeatureInstance,
    #                                  (owner, connection))]
    edges: Dict[FeatureInstance, List[Tuple[FeatureInstance, Tuple]]] = {}
    for inst in root.self_and_descendants():
        impl = inst.impl
        if impl is None:
            continue
        for conn in impl.connections:
            if conn.kind is not ConnectionKind.PORT:
                continue
            if not _active_in_mode(conn, impl, overrides):
                continue
            try:
                src = _endpoint(inst, conn.source)
                dst = _endpoint(inst, conn.destination)
            except AadlNameError as exc:
                raise AadlInstantiationError(
                    f"connection {conn.name} in {inst.qualified_name}: {exc}"
                ) from exc
            _check_port_endpoint(conn, src, dst, inst)
            edges.setdefault(src, []).append((dst, (inst, conn)))

    for inst in root.self_and_descendants():
        if not inst.category.can_be_ultimate_endpoint:
            continue
        for feature in inst.features.values():
            if not feature.is_port:
                continue
            if not feature.feature.direction.produces_outgoing:
                continue
            if feature not in edges:
                continue
            _follow(root, feature, [], edges, set())


def _follow(
    root: SystemInstance,
    feature: FeatureInstance,
    chain: List[Tuple[ComponentInstance, Connection]],
    edges: Dict,
    visiting: set,
) -> None:
    if feature in visiting:
        raise AadlInstantiationError(
            f"connection cycle through {feature.qualified_name}"
        )
    outgoing = edges.get(feature, [])
    if not outgoing:
        if not chain:
            return
        if feature.component.category.can_be_ultimate_endpoint:
            source = chain[0][1]
            ultimate_source = _endpoint(chain[0][0], source.source)
            root.connections.append(
                ConnectionInstance(ultimate_source, feature, chain)
            )
        # A path ending on a non-leaf feature with no further hops is an
        # unterminated connection; tolerated (open system boundary).
        return
    # A feature of a thread/device reached mid-path with further outgoing
    # edges is itself an ultimate destination only if it is an *in* port of
    # a leaf; leaf out-ports start new semantic connections instead.
    if chain and feature.component.category.can_be_ultimate_endpoint:
        if feature.feature.direction.accepts_incoming:
            source = chain[0][1]
            ultimate_source = _endpoint(chain[0][0], source.source)
            root.connections.append(
                ConnectionInstance(ultimate_source, feature, chain)
            )
            return
    visiting = visiting | {feature}
    for dst, owner_conn in outgoing:
        _follow(root, dst, chain + [owner_conn], edges, visiting)


def _check_port_endpoint(
    conn: Connection,
    src: FeatureInstance,
    dst: FeatureInstance,
    owner: ComponentInstance,
) -> None:
    for endpoint, what in ((src, "source"), (dst, "destination")):
        if not endpoint.is_port:
            raise AadlInstantiationError(
                f"connection {conn.name} in {owner.qualified_name}: "
                f"{what} {endpoint.qualified_name} is not a port"
            )
    # Direction legality: a connection source must carry data outward
    # along the hop, the destination inward.  Features of the enclosing
    # component itself are traversed "inside-out": an in port of the
    # owner is a legal source (data descending into a subcomponent), an
    # out port a legal destination (data ascending).
    src_ok = (
        src.feature.direction.accepts_incoming
        if src.component is owner
        else src.feature.direction.produces_outgoing
    )
    dst_ok = (
        dst.feature.direction.produces_outgoing
        if dst.component is owner
        else dst.feature.direction.accepts_incoming
    )
    if not src_ok:
        raise AadlInstantiationError(
            f"connection {conn.name} in {owner.qualified_name}: source "
            f"{src.qualified_name} has direction "
            f"'{src.feature.direction.value}'"
        )
    if not dst_ok:
        raise AadlInstantiationError(
            f"connection {conn.name} in {owner.qualified_name}: "
            f"destination {dst.qualified_name} has direction "
            f"'{dst.feature.direction.value}'"
        )


def _resolve_bindings(root: SystemInstance) -> None:
    # Thread -> processor (or virtual processor) bindings.
    for thread in root.threads():
        found = thread.property_with_holder(ACTUAL_PROCESSOR_BINDING)
        if found is None:
            continue
        value, holder = found
        if not isinstance(value, ReferenceValue):
            raise AadlPropertyError(
                f"{thread.qualified_name}: Actual_Processor_Binding must "
                f"be a reference value, got {value!r}"
            )
        target = holder.resolve_path(value.path)
        if target.category not in (
            ComponentCategory.PROCESSOR,
            ComponentCategory.VIRTUAL_PROCESSOR,
        ):
            raise AadlPropertyError(
                f"{thread.qualified_name}: bound to non-processor "
                f"{target.qualified_name}"
            )
        thread.bound_processor = target

    # Virtual processor -> physical processor bindings (the ARINC-653
    # partition-to-module mapping).
    for vproc in root.virtual_processors():
        found = vproc.property_with_holder(ACTUAL_PROCESSOR_BINDING)
        if found is None:
            continue
        value, holder = found
        if not isinstance(value, ReferenceValue):
            raise AadlPropertyError(
                f"{vproc.qualified_name}: Actual_Processor_Binding must "
                f"be a reference value, got {value!r}"
            )
        target = holder.resolve_path(value.path)
        if target.category is not ComponentCategory.PROCESSOR:
            raise AadlPropertyError(
                f"{vproc.qualified_name}: virtual processor bound to "
                f"non-processor {target.qualified_name}"
            )
        vproc.bound_processor = target

    # Connection -> bus bindings.
    for sem_conn in root.connections:
        for owner, conn in sem_conn.syntactic:
            value = conn.own_property(ACTUAL_CONNECTION_BINDING)
            if value is None:
                continue
            values = value if isinstance(value, tuple) else (value,)
            for item in values:
                if not isinstance(item, ReferenceValue):
                    raise AadlPropertyError(
                        f"connection {conn.name}: Actual_Connection_Binding "
                        f"must be reference value(s), got {item!r}"
                    )
                target = owner.resolve_path(item.path)
                if target.category not in (
                    ComponentCategory.BUS,
                    ComponentCategory.PROCESSOR,
                    ComponentCategory.MEMORY,
                ):
                    raise AadlPropertyError(
                        f"connection {conn.name}: bound to "
                        f"{target.category.value} {target.qualified_name}"
                    )
                if target not in sem_conn.buses:
                    sem_conn.buses.append(target)


def _access_endpoint(owner: ComponentInstance, ref):
    """An access-connection endpoint: either a data/bus subcomponent of
    ``owner`` (bare name) or an access feature (``sub.feature`` or a
    feature of owner itself)."""
    if ref.is_self:
        key = ref.feature.lower()
        child = owner.children.get(key)
        if child is not None and child.category in (
            ComponentCategory.DATA,
            ComponentCategory.BUS,
        ):
            return child
        return owner.feature(ref.feature)
    return owner.child(ref.subcomponent).feature(ref.feature)


def _resolve_access_connections(
    root: SystemInstance, overrides: Dict[str, str]
) -> None:
    """Resolve ``data access`` connections into (feature, component)
    pairs, following access features up/down one containment level.

    Multi-hop access chains (through intermediate component access
    features) resolve transitively like port connections."""
    from repro.aadl.connections import ConnectionKind
    from repro.aadl.features import AccessFeature

    # feature-or-component endpoints; edges run both directions because
    # AADL allows writing access connections either way around.
    edges: Dict[object, List[Tuple[object, Tuple]]] = {}
    for inst in root.self_and_descendants():
        impl = inst.impl
        if impl is None:
            continue
        for conn in impl.connections:
            if conn.kind is not ConnectionKind.ACCESS:
                continue
            if not _active_in_mode(conn, impl, overrides):
                continue
            try:
                left = _access_endpoint(inst, conn.source)
                right = _access_endpoint(inst, conn.destination)
            except AadlNameError as exc:
                raise AadlInstantiationError(
                    f"access connection {conn.name} in "
                    f"{inst.qualified_name}: {exc}"
                ) from exc
            edges.setdefault(left, []).append((right, (inst, conn)))
            edges.setdefault(right, []).append((left, (inst, conn)))

    # For every thread requires-access feature, search for a reachable
    # data/bus component.
    for thread in root.threads():
        for feature in thread.features.values():
            decl = feature.feature
            if not isinstance(decl, AccessFeature):
                continue
            # BFS over the access graph.
            queue = [(feature, [])]
            seen = {feature}
            while queue:
                node, chain = queue.pop(0)
                for target, owner_conn in edges.get(node, []):
                    if target in seen:
                        continue
                    seen.add(target)
                    if isinstance(target, ComponentInstance):
                        root.access_connections.append(
                            AccessConnectionInstance(
                                feature, target, chain + [owner_conn]
                            )
                        )
                    else:
                        queue.append((target, chain + [owner_conn]))
