"""State-space reduction passes: symmetry and partial-order.

Two pluggable :class:`ReductionPass`es sit between the
:class:`~repro.engine.provider.SuccessorProvider` and the visited set of
:func:`repro.engine.core.explore`:

* **Symmetry reduction** (:class:`SymmetryReduction`) -- replicated
  identical threads (and whole replicated processors) are detected at
  translation time by comparing their generated ACSR *definitions modulo
  renaming*: two units are interchangeable exactly when renaming one
  unit's process/event/resource names to the other's maps every
  definition onto the other's, term for term.  Each detected class
  yields a permutation group over unit name lists; states are
  canonicalized to their orbit representative before hash-consing, so
  the visited map stores one state per equivalence class.

* **Partial-order reduction** (:class:`PartialOrderReduction`) -- an
  ample-set style filter over instantaneous steps.  Threads are grouped
  into *clusters* (connected components over queued connections and
  latency flows -- the same coupling facts :mod:`repro.compose` uses to
  certify island independence, at thread rather than processor
  granularity).  Event steps are strictly cluster-local: an event
  synchronizes a sender and receiver inside one cluster and leaves every
  other top-level component untouched.  At a state where *all*
  prioritized steps are instantaneous and owned by known clusters, and
  at least two clusters offer steps, only the lowest-indexed cluster's
  steps are expanded.

Both passes preserve deadlock reachability exactly (see
``docs/reduction.md`` for the soundness arguments), so the verdict --
including honest UNKNOWN on truncation -- is unchanged; the seeded
oracle relation :mod:`repro.oracle.request` gates this end to end.

Fault injection: ``build_reduction(..., fault="overeager-sym")``
deliberately skips the definition-equality verification when pairing
replica units, merging threads that merely *look* alike (same name-kind
pattern) while differing in offset, priority or WCET.  That reduction is
unsound and the oracle campaign must catch it.  (The literal "drop one
permutation generator" fault would only coarsen the group -- a coarser
symmetry reduction is still sound and therefore verdict-invisible --
so the injected fault errs in the catchable direction instead.)
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import AnalysisError
from repro.acsr.events import TAU, EventLabel
from repro.acsr.resources import make_action
from repro.acsr.terms import (
    ActionPrefix,
    Choice,
    Close,
    EventPrefix,
    Guard,
    Hide,
    Nil,
    Parallel,
    ProcRef,
    Restrict,
    Scope,
    Term,
    by_rank,
    choice,
    parallel,
)

#: Canonical pass order (also the canonical spec-token order): symmetry
#: canonicalization first, then the ample filter over canonical states.
PASS_NAMES = ("sym", "por")

#: The passes every verdict run applies unless told otherwise (``None``
#: or ``"none"`` asks for unreduced exploration).  ``sym`` stays out:
#: on the benchmark's multiprocessor inputs it costs more time than it
#: saves (docs/reduction.md).  A deadlock the reduced search finds is
#: re-found by an unreduced search before it is raised
#: (:func:`repro.analysis.schedulability.analyze_model`).
DEFAULT_REDUCTION = "por"

#: Registered reduction fault-injection modes (oracle self-tests).
REDUCTION_FAULTS = {
    "overeager-sym": (
        "pair replica units by name-kind pattern alone, skipping the "
        "definition-equality verification -- merges threads that differ "
        "in offset/priority/WCET (unsound; the oracle must catch it)"
    ),
}

_BAIL = -1  # sentinel: a child spans two units of one class


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------


def parse_reduction_spec(
    spec: Union[str, Sequence[str], None],
) -> Tuple[str, ...]:
    """Normalize a reduction spec to an ordered tuple of pass names.

    Accepts ``None`` / ``""`` / ``"none"`` (no reduction), a comma token
    like ``"sym,por"``, or a sequence of names.  Order is normalized to
    :data:`PASS_NAMES` order regardless of input order.
    """
    if spec is None:
        return ()
    if isinstance(spec, str):
        parts = [part.strip() for part in spec.split(",") if part.strip()]
    else:
        parts = [str(part).strip() for part in spec]
    if parts == ["none"]:
        return ()
    unknown = sorted(set(parts) - set(PASS_NAMES))
    if unknown:
        raise AnalysisError(
            f"unknown reduction pass(es): {', '.join(unknown)}; "
            f"choose from {', '.join(PASS_NAMES)} (or 'none')"
        )
    return tuple(name for name in PASS_NAMES if name in parts)


def reduction_token(spec: Union[str, Sequence[str], None]) -> Optional[str]:
    """The canonical spec token (``"sym,por"``-style) or ``None``.

    This is what rides in an analysis request, so cache keys distinguish
    reduced from unreduced runs (and every distinct pass combination).
    """
    parsed = parse_reduction_spec(spec)
    return ",".join(parsed) if parsed else None


# ---------------------------------------------------------------------------
# Term renaming
# ---------------------------------------------------------------------------


def rename_term(
    term: Term,
    mapping: Dict[str, str],
    cache: Optional[Dict[Term, Term]] = None,
) -> Term:
    """Apply a name permutation to events, resources and process names.

    Rebuilds through the smart constructors, so the result is interned
    and canonically ordered; renamed-equal terms compare by identity.
    The mapping must be injective (a partial permutation); names outside
    it are fixed.  Works on open definition bodies as well as closed
    states (guards and expressions carry no names and pass through).
    """
    if not mapping:
        return term
    if cache is None:
        cache = {}
    return _rename(term, mapping, cache)


def _rename(term: Term, mapping: Dict[str, str], cache: Dict[Term, Term]) -> Term:
    cached = cache.get(term)
    if cached is not None:
        return cached
    if isinstance(term, Nil):
        result: Term = term
    elif isinstance(term, ActionPrefix):
        pairs = [
            (mapping.get(resource, resource), priority)
            for resource, priority in term.action.pairs
        ]
        result = ActionPrefix(
            make_action(pairs), _rename(term.continuation, mapping, cache)
        )
    elif isinstance(term, EventPrefix):
        result = EventPrefix(
            _rename_label(term.label, mapping),
            _rename(term.continuation, mapping, cache),
        )
    elif isinstance(term, Choice):
        result = choice(
            *(_rename(child, mapping, cache) for child in term.children)
        )
    elif isinstance(term, Parallel):
        result = parallel(
            *(_rename(child, mapping, cache) for child in term.children)
        )
    elif isinstance(term, Restrict):
        result = Restrict(
            _rename(term.body, mapping, cache),
            frozenset(mapping.get(name, name) for name in term.names),
        )
    elif isinstance(term, Close):
        result = Close(
            _rename(term.body, mapping, cache),
            frozenset(mapping.get(name, name) for name in term.resources),
        )
    elif isinstance(term, Hide):
        result = Hide(
            _rename(term.body, mapping, cache),
            frozenset(mapping.get(name, name) for name in term.resources),
        )
    elif isinstance(term, Scope):
        exception = term.exception
        result = Scope(
            _rename(term.body, mapping, cache),
            term.bound,
            mapping.get(exception, exception) if exception else exception,
            _rename(term.success, mapping, cache),
            _rename(term.timeout, mapping, cache),
            _rename(term.interrupt, mapping, cache),
        )
    elif isinstance(term, Guard):
        result = Guard(term.condition, _rename(term.body, mapping, cache))
    elif isinstance(term, ProcRef):
        result = ProcRef(mapping.get(term.name, term.name), term.args)
    else:  # pragma: no cover - future term classes
        raise AnalysisError(f"rename_term: unsupported term {type(term).__name__}")
    cache[term] = result
    return result


def _rename_label(label: EventLabel, mapping: Dict[str, str]) -> EventLabel:
    if label.is_tau:
        via = label.via
        if via is None or via not in mapping:
            return label
        return EventLabel(TAU, "", label.priority, mapping[via])
    name = label.name
    if name not in mapping:
        return label
    return EventLabel(mapping[name], label.direction, label.priority)


def mentioned_names(
    term: Term, cache: Optional[Dict[Term, FrozenSet[str]]] = None
) -> FrozenSet[str]:
    """Every event, resource and process name the term touches.

    ``cache`` memoizes subterms; it belongs to the caller (one per
    :func:`build_reduction`), never to the module: an interned term it
    keyed would outlive the analysis that built it.
    """
    if cache is None:
        cache = {}
    cached = cache.get(term)
    if cached is not None:
        return cached
    names: set = set()
    if isinstance(term, ActionPrefix):
        names |= term.action.resources
        names |= mentioned_names(term.continuation, cache)
    elif isinstance(term, EventPrefix):
        label = term.label
        if label.is_tau:
            if label.via is not None:
                names.add(label.via)
        else:
            names.add(label.name)
        names |= mentioned_names(term.continuation, cache)
    elif isinstance(term, (Choice, Parallel)):
        for child in term.children:
            names |= mentioned_names(child, cache)
    elif isinstance(term, Restrict):
        names |= term.names
        names |= mentioned_names(term.body, cache)
    elif isinstance(term, (Close, Hide)):
        names |= term.resources
        names |= mentioned_names(term.body, cache)
    elif isinstance(term, Scope):
        if term.exception:
            names.add(term.exception)
        for part in (term.body, term.success, term.timeout, term.interrupt):
            names |= mentioned_names(part, cache)
    elif isinstance(term, Guard):
        names |= mentioned_names(term.body, cache)
    elif isinstance(term, ProcRef):
        names.add(term.name)
    result = frozenset(names)
    cache[term] = result
    return result


# ---------------------------------------------------------------------------
# Replica-class detection (symmetry)
# ---------------------------------------------------------------------------


class ReplicaUnit:
    """One interchangeable unit: an ordered name list plus its kinds.

    A *thread unit* lists the thread's skeleton/dispatcher process names
    and its dispatch/done events; a *processor unit* prepends the
    processor's cpu resource and concatenates its threads' lists.  Two
    units pair up positionally, so equal kind sequences are required
    before a rename map is even attempted.
    """

    __slots__ = ("label", "kinds", "names")

    def __init__(
        self, label: str, kinds: Sequence[str], names: Sequence[str]
    ) -> None:
        self.label = label
        self.kinds = tuple(kinds)
        self.names = tuple(names)

    def __repr__(self) -> str:
        return f"ReplicaUnit({self.label!r}, {len(self.names)} names)"


class ReplicaClass:
    """A set of >= 2 interchangeable units with precomputed rename maps."""

    __slots__ = (
        "kind",
        "units",
        "to_rep",
        "from_rep",
        "name_sets",
        "_rename_caches",
    )

    def __init__(self, kind: str, units: Sequence[ReplicaUnit]) -> None:
        self.kind = kind
        self.units = tuple(units)
        self.to_rep: List[Dict[str, str]] = []
        self.from_rep: List[Dict[str, str]] = []
        rep = self.units[0]
        for unit in self.units:
            if unit is rep:
                self.to_rep.append({})
                self.from_rep.append({})
            else:
                self.to_rep.append(dict(zip(unit.names, rep.names)))
                self.from_rep.append(dict(zip(rep.names, unit.names)))
        self.name_sets = [frozenset(unit.names) for unit in self.units]
        self._rename_caches: Dict[Tuple[str, int], Dict[Term, Term]] = {}

    def rename_cache(self, direction: str, index: int) -> Dict[Term, Term]:
        return self._rename_caches.setdefault((direction, index), {})

    @property
    def size(self) -> int:
        return len(self.units)

    def __repr__(self) -> str:
        labels = ", ".join(unit.label for unit in self.units)
        return f"ReplicaClass({self.kind}: {labels})"


def _unit_map(a: ReplicaUnit, b: ReplicaUnit) -> Optional[Dict[str, str]]:
    if a.kinds != b.kinds or len(a.names) != len(b.names):
        return None
    return dict(zip(a.names, b.names))


def _verify_unit_map(env, mapping: Dict[str, str]) -> bool:
    """Exact symmetry check: every definition of the left unit must map
    onto the corresponding definition of the right unit, term for term."""
    cache: Dict[Term, Term] = {}
    for name, image in mapping.items():
        if name not in env:
            if image in env:
                return False
            continue
        if image not in env:
            return False
        left, right = env[name], env[image]
        if left.params != right.params:
            return False
        if rename_term(left.body, mapping, cache) is not right.body:
            return False
    return True


def _timing_key(timing) -> tuple:
    period = timing.period if timing.period is not None else -1
    return (period, timing.cmin, timing.cmax, timing.deadline, timing.offset)


def _priority_key(priority) -> tuple:
    kind = type(priority).__name__
    values = tuple(
        getattr(priority, slot) for slot in getattr(priority, "__slots__", ())
    )
    return (kind, values)


def _group_units(
    units: List[ReplicaUnit],
    env,
    *,
    verify: bool,
) -> List[List[ReplicaUnit]]:
    """Greedy partition into groups of pairwise-interchangeable units."""
    groups: List[List[ReplicaUnit]] = []
    remaining = list(units)
    while remaining:
        rep = remaining.pop(0)
        group = [rep]
        kept: List[ReplicaUnit] = []
        for other in remaining:
            mapping = _unit_map(rep, other)
            if mapping is not None and (
                not verify or _verify_unit_map(env, mapping)
            ):
                group.append(other)
            else:
                kept.append(other)
        remaining = kept
        if len(group) >= 2:
            groups.append(group)
    return groups


def _class_is_isolated(
    env, cls: ReplicaClass, mentioned: Dict[Term, FrozenSet[str]]
) -> bool:
    """No definition outside the class may touch a class-owned name
    (otherwise permuting the class would not be a system automorphism)."""
    domain = frozenset().union(*cls.name_sets)
    owned_procs = {name for name in domain if name in env}
    for definition in env:
        if definition.name in owned_procs:
            continue
        if mentioned_names(definition.body, mentioned) & domain:
            return False
    return True


def _restriction_invariant(
    restricted: FrozenSet[str], cls: ReplicaClass
) -> bool:
    for mapping in cls.to_rep:
        for name, image in mapping.items():
            if (name in restricted) != (image in restricted):
                return False
    return True


def detect_replica_classes(
    translation,
    *,
    overeager: bool = False,
    mentioned: Optional[Dict[Term, FrozenSet[str]]] = None,
) -> List[ReplicaClass]:
    """Find replicated-thread and replicated-processor classes.

    Intra-processor thread classes come first (equal-priority ties, e.g.
    explicit HPF priorities), then whole-processor classes (the common
    case: per-processor RM/DM assignment gives replicated processors
    pairwise-equal priority vectors).  Detection is exact unless
    ``overeager`` injects the ``overeager-sym`` fault (see module doc).
    ``mentioned`` is the :func:`mentioned_names` memo to share.
    """
    if mentioned is None:
        mentioned = {}
    table = translation.names
    env = translation.env
    restricted = frozenset(translation.restricted_events)

    thread_units: Dict[str, ReplicaUnit] = {}
    by_processor: Dict[str, List[str]] = {}
    for qual, thread in sorted(translation.threads.items()):
        entries = sorted(table.entries_for(qual))
        thread_units[qual] = ReplicaUnit(
            qual,
            [kind for kind, _ in entries],
            [name for _, name in entries],
        )
        by_processor.setdefault(thread.processor_qual, []).append(qual)

    classes: List[ReplicaClass] = []

    # Intra-processor thread classes.
    for proc_qual in sorted(by_processor):
        units = [thread_units[qual] for qual in sorted(by_processor[proc_qual])]
        for group in _group_units(units, env, verify=not overeager):
            classes.append(ReplicaClass("threads", group))

    # Cross-processor (whole-processor) classes.
    processor_units: List[ReplicaUnit] = []
    for proc_qual in sorted(by_processor):
        cpu_entries = sorted(table.entries_for(proc_qual))
        kinds = [kind for kind, _ in cpu_entries]
        names = [name for _, name in cpu_entries]
        ordered = sorted(
            by_processor[proc_qual],
            key=lambda qual: (
                thread_units[qual].kinds,
                () if overeager else _timing_key(
                    translation.threads[qual].timing
                ),
                () if overeager else _priority_key(
                    translation.threads[qual].priority
                ),
                qual,
            ),
        )
        for qual in ordered:
            unit = thread_units[qual]
            kinds.extend(unit.kinds)
            names.extend(unit.names)
        processor_units.append(ReplicaUnit(proc_qual, kinds, names))
    for group in _group_units(processor_units, env, verify=not overeager):
        classes.append(ReplicaClass("processors", group))

    return [
        cls
        for cls in classes
        if _restriction_invariant(restricted, cls)
        and (overeager or _class_is_isolated(env, cls, mentioned))
    ]


# ---------------------------------------------------------------------------
# The passes
# ---------------------------------------------------------------------------


class ReductionPass:
    """Protocol for one reduction pass.

    ``canonicalize`` maps a state to its equivalence-class
    representative (identity by default); ``filter`` shrinks a
    nonempty step tuple to a nonempty subset (identity by default).
    """

    name = "identity"

    def canonicalize(self, state: Term) -> Term:
        return state

    def filter(self, state: Term, steps: tuple) -> tuple:
        return steps

    def counters(self) -> Dict[str, int]:
        return {}


class SymmetryReduction(ReductionPass):
    """Canonicalize states to orbit representatives.

    Per class, in order: assign the top-level parallel children to units
    by the names they mention, rename every unit's children to the
    representative unit's names (``locals``), sort units by their local
    term identity, and rename the k-th smallest local back into the k-th
    unit's names.  The wrapper restriction sets are invariant under
    every class permutation (checked at detection time), so they are
    reused verbatim.  Canonicalization is idempotent and constant on
    orbits; hash-consing makes both checks pointer comparisons.
    """

    name = "sym"

    def __init__(
        self,
        classes: Sequence[ReplicaClass],
        mentioned: Optional[Dict[Term, FrozenSet[str]]] = None,
    ) -> None:
        self.classes = tuple(classes)
        #: the :func:`mentioned_names` memo of this reduction
        self._mentioned: Dict[Term, FrozenSet[str]] = (
            {} if mentioned is None else mentioned
        )
        # name -> unit index, one map per class (a name may belong to a
        # thread class and its processor class simultaneously).
        self._owners: List[Dict[str, int]] = []
        for cls in self.classes:
            owner: Dict[str, int] = {}
            for index, names in enumerate(cls.name_sets):
                for name in names:
                    owner[name] = index
            self._owners.append(owner)
        self._touch_caches: List[Dict[Term, Optional[int]]] = [
            {} for _ in self.classes
        ]
        self._canon_cache: Dict[Term, Term] = {}
        self.states_canonicalized = 0
        self.orbits_merged = 0

    def counters(self) -> Dict[str, int]:
        return {
            "states_canonicalized": self.states_canonicalized,
            "orbits_merged": self.orbits_merged,
        }

    def canonicalize(self, state: Term) -> Term:
        cached = self._canon_cache.get(state)
        if cached is not None:
            return cached
        result = self._canonicalize(state)
        self._canon_cache[state] = result
        self.states_canonicalized += 1
        if result is not state:
            self.orbits_merged += 1
            # A representative is a fixed point (idempotence), so seed it.
            self._canon_cache.setdefault(result, result)
        return result

    def _canonicalize(self, state: Term) -> Term:
        wrappers: List[Term] = []
        body = state
        while isinstance(body, (Restrict, Close, Hide)):
            wrappers.append(body)
            body = body.body
        if not isinstance(body, Parallel):
            return state
        children: Sequence[Term] = body.children
        for index, cls in enumerate(self.classes):
            updated = self._apply_class(index, cls, children)
            if updated is None:
                return state
            children = updated
        result = parallel(*children)
        for wrapper in reversed(wrappers):
            if isinstance(wrapper, Restrict):
                result = Restrict(result, wrapper.names)
            elif isinstance(wrapper, Close):
                result = Close(result, wrapper.resources)
            else:
                result = Hide(result, wrapper.resources)
        return result

    def _apply_class(
        self, index: int, cls: ReplicaClass, children: Sequence[Term]
    ) -> Optional[Sequence[Term]]:
        fixed: List[Term] = []
        buckets: List[List[Term]] = [[] for _ in cls.units]
        for child in children:
            unit = self._touched(index, child)
            if unit == _BAIL:
                return None
            if unit is None:
                fixed.append(child)
            else:
                buckets[unit].append(child)
        if not any(buckets):
            return children
        locals_: List[Tuple[Term, ...]] = []
        for unit, kids in enumerate(buckets):
            mapping = cls.to_rep[unit]
            cache = cls.rename_cache("to", unit)
            locals_.append(
                tuple(
                    sorted(
                        (rename_term(kid, mapping, cache) for kid in kids),
                        key=by_rank,
                    )
                )
            )
        order = sorted(
            range(len(cls.units)),
            key=lambda unit: tuple(map(by_rank, locals_[unit])),
        )
        if order == list(range(len(cls.units))):
            return children
        out = fixed
        for rank, source in enumerate(order):
            mapping = cls.from_rep[rank]
            cache = cls.rename_cache("from", rank)
            out.extend(
                rename_term(term, mapping, cache) for term in locals_[source]
            )
        return out

    def _touched(self, index: int, child: Term) -> Optional[int]:
        cache = self._touch_caches[index]
        if child in cache:
            return cache[child]
        owner = self._owners[index]
        units = {
            owner[name]
            for name in mentioned_names(child, self._mentioned)
            if name in owner
        }
        if len(units) > 1:
            value: Optional[int] = _BAIL
        elif units:
            value = units.pop()
        else:
            value = None
        cache[child] = value
        return value


class ClusterMap:
    """Thread-cluster ownership of event names (POR independence units).

    Clusters are connected components over threads, merged along queued
    connections (source thread/device -- queue -- destination thread)
    and latency flows (source -- observer -- destination).  Every
    restricted event name resolves to the cluster whose components
    synchronize on it; event steps therefore never cross clusters.
    """

    __slots__ = ("owner", "n_clusters")

    def __init__(self, owner: Dict[str, int], n_clusters: int) -> None:
        self.owner = owner
        self.n_clusters = n_clusters


def build_cluster_map(translation) -> ClusterMap:
    parent: Dict[str, str] = {}

    def find(key: str) -> str:
        parent.setdefault(key, key)
        root = key
        while parent[root] != root:
            root = parent[root]
        while parent[key] != root:
            parent[key], key = root, parent[key]
        return root

    def union(a: str, b: str) -> None:
        parent[find(a)] = find(b)

    for qual in translation.threads:
        find(qual)
    queued = set(translation.queues)
    for conn in translation.instance.connections:
        conn_qual = conn.qualified_name
        if conn_qual not in queued:
            continue
        find(conn_qual)
        union(conn_qual, conn.source.component.qualified_name)
        union(conn_qual, conn.destination.component.qualified_name)
    for flow in translation.options.latency_flows:
        find(flow.flow_id)
        union(flow.flow_id, flow.source_qual)
        union(flow.flow_id, flow.destination_qual)

    roots = sorted({find(key) for key in list(parent)})
    index = {root: i for i, root in enumerate(roots)}

    table = translation.names
    owner: Dict[str, int] = {}
    for element in list(parent):
        cluster = index[find(element)]
        for _, name in table.entries_for(element):
            owner[name] = cluster
    return ClusterMap(owner, len(roots))


class PartialOrderReduction(ReductionPass):
    """Expand one representative cluster when several commute.

    Fires only at states whose prioritized steps are *all*
    instantaneous and all owned by known clusters; when two or more
    clusters offer steps, only the lowest-indexed cluster's steps
    survive.  A timed step, an unowned label, or a single active
    cluster disables pruning for that state, so the filter never turns
    a live state into a false deadlock (it always keeps at least one
    full cluster of steps).
    """

    name = "por"

    def __init__(self, clusters: ClusterMap) -> None:
        self.clusters = clusters
        self.por_pruned = 0

    def counters(self) -> Dict[str, int]:
        return {"por_pruned": self.por_pruned}

    def filter(self, state: Term, steps: tuple) -> tuple:
        if len(steps) < 2:
            return steps
        owner = self.clusters.owner
        owners: List[int] = []
        for label, _successor in steps:
            if not isinstance(label, EventLabel):
                return steps  # a timed step: not a pure event burst
            name = label.via if label.is_tau else label.name
            if name is None:
                return steps
            cluster = owner.get(name)
            if cluster is None:
                return steps
            owners.append(cluster)
        distinct = set(owners)
        if len(distinct) < 2:
            return steps
        keep = min(distinct)
        filtered = tuple(
            step for step, cluster in zip(steps, owners) if cluster == keep
        )
        self.por_pruned += len(steps) - len(filtered)
        return filtered


class Reduction:
    """An ordered pipeline of reduction passes, consumed by ``explore``."""

    __slots__ = ("passes",)

    def __init__(self, passes: Sequence[ReductionPass]) -> None:
        self.passes = tuple(passes)

    def __bool__(self) -> bool:
        return bool(self.passes)

    @property
    def pass_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.passes)

    def canonicalize(self, state: Term) -> Term:
        for reduction_pass in self.passes:
            state = reduction_pass.canonicalize(state)
        return state

    def filter(self, state: Term, steps: tuple) -> tuple:
        for reduction_pass in self.passes:
            steps = reduction_pass.filter(state, steps)
        return steps

    def counters(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for reduction_pass in self.passes:
            merged.update(reduction_pass.counters())
        return merged


def build_reduction(
    translation,
    spec: Union[str, Sequence[str], None],
    *,
    fault: Optional[str] = None,
) -> Optional[Reduction]:
    """Build the reduction pipeline for one translated model.

    Returns ``None`` when the spec is empty or no pass applies to this
    model (no replica classes for ``sym``, fewer than two clusters for
    ``por``) -- exploration then runs exactly as without reduction.
    """
    if fault is not None and fault not in REDUCTION_FAULTS:
        raise AnalysisError(
            f"unknown reduction fault {fault!r}; "
            f"choose from {', '.join(sorted(REDUCTION_FAULTS))}"
        )
    names = parse_reduction_spec(spec)
    if not names:
        return None
    passes: List[ReductionPass] = []
    if "sym" in names:
        mentioned: Dict[Term, FrozenSet[str]] = {}
        classes = detect_replica_classes(
            translation,
            overeager=fault == "overeager-sym",
            mentioned=mentioned,
        )
        if classes:
            passes.append(SymmetryReduction(classes, mentioned))
    if "por" in names:
        clusters = build_cluster_map(translation)
        if clusters.n_clusters >= 2:
            passes.append(PartialOrderReduction(clusters))
    return Reduction(passes) if passes else None
