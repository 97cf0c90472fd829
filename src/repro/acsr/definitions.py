"""Parameterized process definitions and closed systems.

A :class:`ProcessEnv` holds named, parameterized process definitions
(``Name(p1,...,pk) = body``) and memoizes their unfolding.  A
:class:`ClosedSystem` pairs an environment with a closed root term and is
the unit of analysis consumed by :mod:`repro.versa`: it exposes the
(memoized) unprioritized and prioritized transition relations.

Finite-stateness: as in the paper (S3, "Parameterized processes"), the
translation only produces definitions whose parameters are bounded by
guards, so the set of reachable ``ProcRef`` instantiations -- and hence
the state space -- is finite.  The environment does not verify boundedness
statically; the explorer enforces a state budget instead.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import AcsrDefinitionError
from repro.engine.cache import TransitionCache
from repro.acsr.expressions import Expr
from repro.acsr.priority import prioritized
from repro.acsr.semantics import product_steps, transitions
from repro.acsr.terms import Parallel, ProcRef, Restrict, Term


class ProcessDef:
    """A named process definition ``name(params) = body``.

    ``body`` is an open term whose free parameters must be a subset of
    ``params``.
    """

    __slots__ = ("name", "params", "body")

    def __init__(self, name: str, params: Sequence[str], body: Term) -> None:
        if not isinstance(name, str) or not name:
            raise AcsrDefinitionError(f"invalid process name {name!r}")
        params = tuple(params)
        if len(set(params)) != len(params):
            raise AcsrDefinitionError(
                f"duplicate parameter names in definition of {name}"
            )
        if not isinstance(body, Term):
            raise AcsrDefinitionError(
                f"body of {name} must be a Term, got {body!r}"
            )
        unbound = body.free_params() - set(params)
        if unbound:
            raise AcsrDefinitionError(
                f"definition of {name} mentions unbound parameters: "
                + ", ".join(sorted(unbound))
            )
        self.name = name
        self.params = params
        self.body = body

    @property
    def arity(self) -> int:
        return len(self.params)

    def unfold(self, args: Tuple[int, ...]) -> Term:
        """Instantiate the body with concrete arguments."""
        if len(args) != len(self.params):
            raise AcsrDefinitionError(
                f"{self.name} expects {len(self.params)} argument(s), "
                f"got {len(args)}"
            )
        env = dict(zip(self.params, args))
        return self.body.instantiate(env)

    def __repr__(self) -> str:
        return f"ProcessDef({self.name!r}, params={self.params!r})"


class ProcessEnv:
    """A mutable collection of process definitions with memoized unfolding.

    The environment also owns the semantics-level memos: subterm
    transition sets (``trans_cache``) and the per-component step tables
    of the parallel rule (``table_cache``).  Both depend only on the
    term and the definitions, so they live here and are shared by every
    :class:`ClosedSystem` built over this environment.  They must not be
    process-global: terms are interned process-wide, but a ``ProcRef``
    unfolds through its own environment.
    """

    __slots__ = ("_defs", "_unfold_cache", "trans_cache", "table_cache")

    def __init__(self) -> None:
        self._defs: Dict[str, ProcessDef] = {}
        self._unfold_cache: Dict[ProcRef, Term] = {}
        #: explicit subterm-transition memo (was a monkey-patched
        #: ``_trans_memo`` dict); consulted by ``repro.acsr.semantics``.
        self.trans_cache = TransitionCache(name="semantics")
        #: per-component step tables of the parallel rule.
        self.table_cache = TransitionCache(name="tables")

    def define(
        self,
        name: str,
        params: Sequence[str],
        body: Term,
        *,
        allow_redefine: bool = False,
    ) -> ProcessDef:
        """Add a definition; redefinition is an error unless opted into."""
        if name in self._defs and not allow_redefine:
            raise AcsrDefinitionError(f"process {name!r} is already defined")
        definition = ProcessDef(name, params, body)
        self._defs[name] = definition
        if allow_redefine:
            # Conservatively drop memoized unfoldings of the old body and
            # every memoized transition set (they may mention the old
            # definition through unfolded subterms).
            self._unfold_cache = {
                ref: term
                for ref, term in self._unfold_cache.items()
                if ref.name != name
            }
            self.trans_cache.clear()
            self.table_cache.clear()
        return definition

    def __contains__(self, name: str) -> bool:
        return name in self._defs

    def __getitem__(self, name: str) -> ProcessDef:
        try:
            return self._defs[name]
        except KeyError:
            raise AcsrDefinitionError(f"unknown process {name!r}") from None

    def __iter__(self) -> Iterator[ProcessDef]:
        return iter(self._defs.values())

    def __len__(self) -> int:
        return len(self._defs)

    def names(self) -> List[str]:
        return list(self._defs)

    def unfold(self, ref: ProcRef) -> Term:
        """Instantiated body for a closed process reference (memoized)."""
        cached = self._unfold_cache.get(ref)
        if cached is not None:
            return cached
        for arg in ref.args:
            if isinstance(arg, Expr):
                raise AcsrDefinitionError(
                    f"cannot unfold open reference {ref!r}"
                )
        term = self[ref.name].unfold(ref.args)  # type: ignore[arg-type]
        self._unfold_cache[ref] = term
        return term

    def validate(self) -> None:
        """Check that every reference in every body resolves with the right
        arity (cheap static sanity pass)."""
        for definition in self:
            for ref_name, arity in _collect_refs(definition.body):
                if ref_name not in self._defs:
                    raise AcsrDefinitionError(
                        f"{definition.name} references unknown process "
                        f"{ref_name!r}"
                    )
                expected = self._defs[ref_name].arity
                if arity != expected:
                    raise AcsrDefinitionError(
                        f"{definition.name} calls {ref_name} with {arity} "
                        f"argument(s); definition has {expected}"
                    )

    def close(
        self,
        root: Term,
        *,
        validate: bool = True,
        cache_maxsize: Optional[int] = None,
    ) -> "ClosedSystem":
        """Pair the environment with a closed root term for analysis.

        ``cache_maxsize`` bounds the system's step caches (LRU); the
        default ``None`` keeps them unbounded.
        """
        return ClosedSystem(
            self, root, validate=validate, cache_maxsize=cache_maxsize
        )

    def cache_stats(self) -> Dict[str, object]:
        """Counters of the environment-level caches."""
        return {
            "unfold_cache": len(self._unfold_cache),
            "trans_cache": self.trans_cache.stats(),
            "table_cache": self.table_cache.stats(),
        }

    def clear_cache(self) -> None:
        """Drop the unfold, transition and table memos (long-lived
        sessions)."""
        self._unfold_cache.clear()
        self.trans_cache.clear()
        self.table_cache.clear()


def _collect_refs(term: Term) -> List[Tuple[str, int]]:
    from repro.acsr.terms import (
        ActionPrefix,
        Choice,
        Close,
        EventPrefix,
        Guard,
        Hide,
        Parallel,
        Restrict,
        Scope,
    )

    refs: List[Tuple[str, int]] = []
    stack = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, ProcRef):
            refs.append((node.name, len(node.args)))
        elif isinstance(node, (ActionPrefix, EventPrefix)):
            stack.append(node.continuation)
        elif isinstance(node, (Choice, Parallel)):
            stack.extend(node.children)
        elif isinstance(node, (Restrict, Close, Hide)):
            stack.append(node.body)
        elif isinstance(node, Guard):
            stack.append(node.body)
        elif isinstance(node, Scope):
            stack.extend((node.body, node.success, node.timeout, node.interrupt))
    return refs


class ClosedSystem:
    """A closed ACSR term together with its definition environment.

    This is the object handed to the VERSA-style explorer.  Transition
    computation is memoized per term, which matters: during exploration the
    same subterm configurations recur constantly, and the memo table turns
    the semantics into an amortized table lookup (profiling-first guidance
    from the HPC notes: this *is* the measured hot path).
    """

    __slots__ = ("env", "root", "_step_cache", "_prio_cache")

    def __init__(
        self,
        env: ProcessEnv,
        root: Term,
        *,
        validate: bool = True,
        cache_maxsize: Optional[int] = None,
    ) -> None:
        if not isinstance(root, Term):
            raise AcsrDefinitionError(f"system root must be a Term, got {root!r}")
        if validate:
            if not root.is_closed():
                raise AcsrDefinitionError(
                    "system root must be a closed term; free parameters: "
                    + ", ".join(sorted(root.free_params()))
                )
            env.validate()
        self.env = env
        self.root = root
        self._step_cache = TransitionCache(cache_maxsize, name="steps")
        self._prio_cache = TransitionCache(cache_maxsize, name="prioritized")

    def steps(self, term: Optional[Term] = None) -> Tuple:
        """Unprioritized transitions ``(label, successor)`` of ``term``."""
        if term is None:
            term = self.root
        cached = self._step_cache.get(term)
        if cached is None:
            cached = transitions(term, self.env)
            self._step_cache.put(term, cached)
        return cached

    def prioritized_steps(self, term: Optional[Term] = None) -> Tuple:
        """Prioritized transitions of ``term`` (preempted steps removed).

        Equal to ``prioritized(transitions(term))``, order included.  A
        parallel composition, bare or under a restriction, goes through
        the compiled product step, which never builds a preempted
        successor; the unprioritized step cache is left alone.
        """
        if term is None:
            term = self.root
        cached = self._prio_cache.get(term)
        if cached is None:
            env = self.env
            if isinstance(term, Parallel) or (
                isinstance(term, Restrict) and isinstance(term.body, Parallel)
            ):
                cached = product_steps(term, env)
            else:
                cached = prioritized(transitions(term, env))
            self._prio_cache.put(term, cached)
        return cached

    def caches(self) -> Tuple[TransitionCache, ...]:
        """Every transition cache feeding this system's successor
        computation (step, prioritization, and the environment's
        semantics memo and component tables)."""
        return (
            self._step_cache,
            self._prio_cache,
            self.env.trans_cache,
            self.env.table_cache,
        )

    def cache_stats(self) -> Dict[str, object]:
        """Sizes and hit/miss/eviction counters of the memo tables.

        The historical size keys (``step_cache``, ``prio_cache``,
        ``unfold_cache``) are preserved; ``detail`` carries the full
        per-cache counters.
        """
        return {
            "step_cache": len(self._step_cache),
            "prio_cache": len(self._prio_cache),
            "trans_cache": len(self.env.trans_cache),
            "table_cache": len(self.env.table_cache),
            "unfold_cache": len(self.env._unfold_cache),
            "detail": {
                cache.name: cache.stats() for cache in self.caches()
            },
        }

    def clear_cache(self) -> None:
        """Drop every memo table so long-lived sessions can bound memory.

        Clears the step and prioritization caches of this system plus
        the shared environment caches (semantics memo, component tables
        and unfoldings).
        Subsequent explorations rebuild them on demand.
        """
        self._step_cache.clear()
        self._prio_cache.clear()
        self.env.clear_cache()
