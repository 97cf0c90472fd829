"""ACSR process terms.

The term language (paper S3):

* ``NIL`` -- the deadlocked process (no steps at all);
* ``A : P`` -- timed-action prefix (:class:`ActionPrefix`); the empty action
  ``{}`` is the idling step;
* ``(e?,p).P / (e!,p).P / (tau,p).P`` -- event prefix (:class:`EventPrefix`);
* ``P + Q`` -- nondeterministic choice (:class:`Choice`, n-ary, canonical);
* ``P || Q`` -- parallel composition (:class:`Parallel`, n-ary, canonical);
* ``P \\ F`` -- event restriction (:class:`Restrict`): events named in ``F``
  may only occur as internal synchronization steps;
* ``[P]_I`` -- resource closure (:class:`Close`): ``P`` reserves all
  resources of ``I`` it does not use at priority 0;
* ``P dd(b, t, Q, R, S)`` -- temporal scope (:class:`Scope`): ``P`` runs
  inside the scope; output of the exception event ``b`` exits to ``Q``;
  after ``t`` time units control passes to the timeout handler ``R``; at
  any moment an initial step of the interrupt handler ``S`` may seize
  control;
* ``Name(a1,...,ak)`` -- reference to a parameterized process definition
  (:class:`ProcRef`);
* ``[cond] -> P`` -- guard (:class:`Guard`), resolved when the enclosing
  definition is unfolded.

Terms are *hash-consed*: structurally equal terms are the same object, so
state-space exploration can use identity maps and ``Choice``/``Parallel``
children can be canonically sorted.  Python operators: ``P + Q`` builds a
choice and ``P | Q`` a parallel composition.

Open vs closed terms: bodies of process definitions may contain expression
priorities, expression arguments and guards ("open"); the operational
semantics only ever sees closed terms, produced by
:meth:`Term.instantiate`.
"""

from __future__ import annotations

from hashlib import blake2b
from operator import attrgetter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import AcsrSemanticsError
from repro.acsr.expressions import BoolExpr, Expr, as_expr
from repro.acsr.events import IN, OUT, TAU, EventLabel
from repro.acsr.resources import Action, EMPTY_ACTION, make_action

#: Scope bound meaning "never times out".
INFINITY: Optional[int] = None

_TERM_INTERN: Dict[tuple, "Term"] = {}
_LEAF_CODES: Dict[object, int] = {}


def _leaf_code(leaf: object) -> int:
    """The 64-bit code of a non-term part of an intern key (kind tag,
    name, bound, action, label, name set or expression key): a BLAKE2b
    digest of its ``repr``, sets sorted first, memoized per leaf."""
    text = repr(sorted(leaf) if isinstance(leaf, frozenset) else leaf)
    digest = blake2b(text.encode(), digest_size=8).digest()
    code = _LEAF_CODES[leaf] = int.from_bytes(digest, "big")
    return code


def _intern(key: tuple, build) -> "Term":
    cached = _TERM_INTERN.get(key)
    if cached is not None:
        return cached
    term = build()
    codes = _LEAF_CODES
    term._rank = hash(tuple([
        part._rank if isinstance(part, Term)
        else codes.get(part) or _leaf_code(part)
        for part in key
    ]))
    _TERM_INTERN[key] = term
    return term


#: Sort key of terms: their content rank (see :class:`Term`).
by_rank = attrgetter("_rank")


class Term:
    """Base class of all ACSR process terms (interned, immutable).

    ``_rank`` is the sort key of terms (``Choice``/``Parallel``
    children, symmetry representatives): the hash of the tuple of the
    intern key's leaf codes (:func:`_leaf_code`) and children's ranks.
    A tuple of ints hashes alike under every ``PYTHONHASHSEED``, so a
    rank depends on the term's content alone, not on what the process
    built before.  Interning makes equal content one object, so ranks
    order live terms totally unless two distinct terms collide: with
    ranks spread evenly over 64 bits, ``n`` live terms collide with
    probability below ``n**2 / 2**65`` (3e-8 for a million terms), and
    a collision only ties the two, which then keep the caller's order.
    """

    __slots__ = ("_rank",)

    # Identity semantics: interning guarantees structural equality implies
    # object identity, so the default object __eq__/__hash__ are correct
    # and fast.

    def instantiate(self, env: Mapping[str, int]) -> "Term":
        """Evaluate all expressions against ``env``, producing a closed term."""
        raise NotImplementedError

    def free_params(self) -> frozenset:
        """Names of process parameters occurring free in the term."""
        raise NotImplementedError

    def is_closed(self) -> bool:
        """True when the term contains no free parameters or guards."""
        return not self.free_params() and not self._has_guard()

    def _has_guard(self) -> bool:
        return False

    # -- operator sugar --------------------------------------------------

    def __add__(self, other: "Term") -> "Term":
        return choice(self, other)

    def __or__(self, other: "Term") -> "Term":
        return parallel(self, other)

    def __str__(self) -> str:
        from repro.acsr.printer import format_term

        return format_term(self)


class Nil(Term):
    """The deadlocked process: no transitions of any kind."""

    __slots__ = ()

    def __new__(cls) -> "Nil":
        return _intern(("nil",), lambda: object.__new__(cls))

    def instantiate(self, env: Mapping[str, int]) -> "Term":
        return self

    def free_params(self) -> frozenset:
        return frozenset()

    def __repr__(self) -> str:
        return "NIL"


NIL = Nil()


class ActionPrefix(Term):
    """``A : P`` -- perform timed action ``A`` for one quantum, then ``P``."""

    __slots__ = ("action", "continuation")

    def __new__(cls, action_: Action, continuation: Term) -> "ActionPrefix":
        if not isinstance(action_, Action):
            raise AcsrSemanticsError(
                f"ActionPrefix requires an Action, got {action_!r}"
            )
        if not isinstance(continuation, Term):
            raise AcsrSemanticsError(
                f"ActionPrefix continuation must be a Term, got {continuation!r}"
            )
        key = ("act", action_, continuation)

        def build() -> "ActionPrefix":
            self = object.__new__(cls)
            self.action = action_
            self.continuation = continuation
            return self

        return _intern(key, build)

    def instantiate(self, env: Mapping[str, int]) -> "Term":
        return ActionPrefix(
            self.action.instantiate(env), self.continuation.instantiate(env)
        )

    def free_params(self) -> frozenset:
        return self.action.free_params() | self.continuation.free_params()

    def _has_guard(self) -> bool:
        return self.continuation._has_guard()

    def __repr__(self) -> str:
        return f"ActionPrefix({self.action!r}, {self.continuation!r})"


class EventPrefix(Term):
    """``(e,p).P`` -- perform an instantaneous event step, then ``P``."""

    __slots__ = ("label", "continuation")

    def __new__(cls, label: EventLabel, continuation: Term) -> "EventPrefix":
        if not isinstance(label, EventLabel):
            raise AcsrSemanticsError(
                f"EventPrefix requires an EventLabel, got {label!r}"
            )
        if not isinstance(continuation, Term):
            raise AcsrSemanticsError(
                f"EventPrefix continuation must be a Term, got {continuation!r}"
            )
        key = ("evt", label, continuation)

        def build() -> "EventPrefix":
            self = object.__new__(cls)
            self.label = label
            self.continuation = continuation
            return self

        return _intern(key, build)

    def instantiate(self, env: Mapping[str, int]) -> "Term":
        return EventPrefix(
            self.label.instantiate(env), self.continuation.instantiate(env)
        )

    def free_params(self) -> frozenset:
        return self.label.free_params() | self.continuation.free_params()

    def _has_guard(self) -> bool:
        return self.continuation._has_guard()

    def __repr__(self) -> str:
        return f"EventPrefix({self.label!r}, {self.continuation!r})"


def _flatten(cls: type, children: Iterable[Term]) -> List[Term]:
    flat: List[Term] = []
    for child in children:
        if not isinstance(child, Term):
            raise AcsrSemanticsError(f"expected a Term, got {child!r}")
        if isinstance(child, cls):
            flat.extend(child.children)
        else:
            flat.append(child)
    return flat


class Choice(Term):
    """N-ary nondeterministic choice ``P1 + ... + Pn`` (canonicalized).

    Construction flattens nested choices, removes duplicates and ``NIL``
    summands (``NIL`` is the unit of ``+``), and sorts children by
    content rank.  A choice never has fewer than two children -- the
    smart constructor :func:`choice` collapses degenerate cases.
    """

    __slots__ = ("children",)

    def __new__(cls, children: Tuple[Term, ...]) -> "Choice":
        key = ("choice",) + tuple(children)

        def build() -> "Choice":
            self = object.__new__(cls)
            self.children = children
            return self

        return _intern(key, build)

    def instantiate(self, env: Mapping[str, int]) -> "Term":
        return choice(*(child.instantiate(env) for child in self.children))

    def free_params(self) -> frozenset:
        result: frozenset = frozenset()
        for child in self.children:
            result |= child.free_params()
        return result

    def _has_guard(self) -> bool:
        return any(child._has_guard() for child in self.children)

    def __repr__(self) -> str:
        return f"Choice({self.children!r})"


class Parallel(Term):
    """N-ary parallel composition ``P1 || ... || Pn`` (canonicalized).

    Children are flattened and sorted by content rank; ``NIL``
    components are *kept* because a ``NIL`` component refuses time
    progress and therefore changes the behaviour of the composition
    (this is precisely how deadline violations deadlock the model,
    paper S5).
    """

    __slots__ = ("children",)

    def __new__(cls, children: Tuple[Term, ...]) -> "Parallel":
        key = ("par",) + tuple(children)

        def build() -> "Parallel":
            self = object.__new__(cls)
            self.children = children
            return self

        return _intern(key, build)

    def instantiate(self, env: Mapping[str, int]) -> "Term":
        return parallel(*(child.instantiate(env) for child in self.children))

    def free_params(self) -> frozenset:
        result: frozenset = frozenset()
        for child in self.children:
            result |= child.free_params()
        return result

    def _has_guard(self) -> bool:
        return any(child._has_guard() for child in self.children)

    def __repr__(self) -> str:
        return f"Parallel({self.children!r})"


class Restrict(Term):
    """``P \\ F`` -- events named in ``F`` must synchronize inside ``P``."""

    __slots__ = ("body", "names")

    def __new__(cls, body: Term, names: frozenset) -> "Restrict":
        if not isinstance(body, Term):
            raise AcsrSemanticsError(f"Restrict body must be a Term, got {body!r}")
        names = frozenset(names)
        for name in names:
            if not isinstance(name, str) or not name or name == TAU:
                raise AcsrSemanticsError(f"invalid restricted event name {name!r}")
        return cls._interned(body, names)

    @classmethod
    def _interned(cls, body: Term, names: frozenset) -> "Restrict":
        key = ("restrict", body, names)

        def build() -> "Restrict":
            self = object.__new__(cls)
            self.body = body
            self.names = names
            return self

        return _intern(key, build)

    def rewrap(self, body: Term) -> "Restrict":
        """``Restrict(body, self.names)`` without checking the names
        again: this restriction already did (the successor-wrapping
        hot path of the explorer)."""
        return Restrict._interned(body, self.names)

    def instantiate(self, env: Mapping[str, int]) -> "Term":
        return Restrict(self.body.instantiate(env), self.names)

    def free_params(self) -> frozenset:
        return self.body.free_params()

    def _has_guard(self) -> bool:
        return self.body._has_guard()

    def __repr__(self) -> str:
        return f"Restrict({self.body!r}, {sorted(self.names)!r})"


class Close(Term):
    """``[P]_I`` -- resource closure: ``P`` owns all resources in ``I``.

    Every timed action of the closed process is extended with priority-0
    claims on the unused resources of ``I``, preventing any sibling from
    using them concurrently.
    """

    __slots__ = ("body", "resources")

    def __new__(cls, body: Term, resources: frozenset) -> "Close":
        if not isinstance(body, Term):
            raise AcsrSemanticsError(f"Close body must be a Term, got {body!r}")
        resources = frozenset(resources)
        for name in resources:
            if not isinstance(name, str) or not name:
                raise AcsrSemanticsError(f"invalid resource name {name!r}")
        key = ("close", body, resources)

        def build() -> "Close":
            self = object.__new__(cls)
            self.body = body
            self.resources = resources
            return self

        return _intern(key, build)

    def instantiate(self, env: Mapping[str, int]) -> "Term":
        return Close(self.body.instantiate(env), self.resources)

    def free_params(self) -> frozenset:
        return self.body.free_params()

    def _has_guard(self) -> bool:
        return self.body._has_guard()

    def __repr__(self) -> str:
        return f"Close({self.body!r}, {sorted(self.resources)!r})"


class Hide(Term):
    """``P \\\\ I`` -- resource hiding: resources in ``I`` disappear from
    ``P``'s timed actions (they become internal and can no longer
    conflict with -- or be observed by -- the environment)."""

    __slots__ = ("body", "resources")

    def __new__(cls, body: Term, resources: frozenset) -> "Hide":
        if not isinstance(body, Term):
            raise AcsrSemanticsError(f"Hide body must be a Term, got {body!r}")
        resources = frozenset(resources)
        for name in resources:
            if not isinstance(name, str) or not name:
                raise AcsrSemanticsError(f"invalid resource name {name!r}")
        key = ("hide", body, resources)

        def build() -> "Hide":
            self = object.__new__(cls)
            self.body = body
            self.resources = resources
            return self

        return _intern(key, build)

    def instantiate(self, env: Mapping[str, int]) -> "Term":
        return Hide(self.body.instantiate(env), self.resources)

    def free_params(self) -> frozenset:
        return self.body.free_params()

    def _has_guard(self) -> bool:
        return self.body._has_guard()

    def __repr__(self) -> str:
        return f"Hide({self.body!r}, {sorted(self.resources)!r})"


class Scope(Term):
    """Temporal scope (paper S3, Figure 3).

    ``Scope(body, bound, exception, success, timeout, interrupt)``:

    * while ``bound > 0`` the body executes; each timed step decrements
      the bound (event steps are instantaneous and do not);
    * if the body outputs the ``exception`` event, control transfers to
      ``success`` -- the "voluntary release" exit;
    * when the bound reaches 0 control is at ``timeout`` (the smart
      constructor :func:`scope` normalizes a zero bound away);
    * at any moment an initial step of ``interrupt`` may seize control --
      the "involuntary release" exit.

    ``bound`` is a positive ``int`` or :data:`INFINITY` (``None``).
    """

    __slots__ = ("body", "bound", "exception", "success", "timeout", "interrupt")

    def __new__(
        cls,
        body: Term,
        bound: Optional[int],
        exception: Optional[str],
        success: Term,
        timeout: Term,
        interrupt: Term,
    ) -> "Scope":
        if not isinstance(body, Term):
            raise AcsrSemanticsError(f"Scope body must be a Term, got {body!r}")
        if bound is not None and (not isinstance(bound, int) or bound <= 0):
            raise AcsrSemanticsError(
                f"Scope bound must be a positive int or INFINITY, got {bound!r}"
            )
        if exception is not None and (
            not isinstance(exception, str) or not exception
        ):
            raise AcsrSemanticsError(
                f"Scope exception must be an event name, got {exception!r}"
            )
        for handler in (success, timeout, interrupt):
            if not isinstance(handler, Term):
                raise AcsrSemanticsError(
                    f"Scope handlers must be Terms, got {handler!r}"
                )
        key = ("scope", body, bound, exception, success, timeout, interrupt)

        def build() -> "Scope":
            self = object.__new__(cls)
            self.body = body
            self.bound = bound
            self.exception = exception
            self.success = success
            self.timeout = timeout
            self.interrupt = interrupt
            return self

        return _intern(key, build)

    def instantiate(self, env: Mapping[str, int]) -> "Term":
        return scope(
            self.body.instantiate(env),
            bound=self.bound,
            exception=self.exception,
            success=self.success.instantiate(env),
            timeout=self.timeout.instantiate(env),
            interrupt=self.interrupt.instantiate(env),
        )

    def free_params(self) -> frozenset:
        return (
            self.body.free_params()
            | self.success.free_params()
            | self.timeout.free_params()
            | self.interrupt.free_params()
        )

    def _has_guard(self) -> bool:
        return any(
            part._has_guard()
            for part in (self.body, self.success, self.timeout, self.interrupt)
        )

    def __repr__(self) -> str:
        return (
            f"Scope({self.body!r}, bound={self.bound!r}, "
            f"exception={self.exception!r})"
        )


class Guard(Term):
    """``[cond] -> P``: present only in open terms; resolved at unfolding."""

    __slots__ = ("condition", "body")

    def __new__(cls, condition: BoolExpr, body: Term) -> "Guard":
        if not isinstance(condition, BoolExpr):
            raise AcsrSemanticsError(
                f"Guard condition must be a BoolExpr, got {condition!r}"
            )
        if not isinstance(body, Term):
            raise AcsrSemanticsError(f"Guard body must be a Term, got {body!r}")
        # Intern by the condition's *structural* key: independently built
        # but structurally equal guards (e.g. for replicated threads)
        # must hash-cons to the same term, or renamed-equal definitions
        # would not be pointer-equal (see repro.engine.reduce).
        key = ("guard", condition.key(), body)

        def build() -> "Guard":
            self = object.__new__(cls)
            self.condition = condition
            self.body = body
            return self

        return _intern(key, build)

    def instantiate(self, env: Mapping[str, int]) -> "Term":
        if self.condition.evaluate(env):
            return self.body.instantiate(env)
        return NIL

    def free_params(self) -> frozenset:
        return self.condition.free_params() | self.body.free_params()

    def _has_guard(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"Guard({self.condition!r}, {self.body!r})"


class ProcRef(Term):
    """Reference to a named, possibly parameterized, process definition.

    In closed terms the arguments are concrete integers, and the reference
    itself serves as a compact state representation: the semantics unfolds
    it lazily through a :class:`repro.acsr.definitions.ProcessEnv`.
    """

    __slots__ = ("name", "args")

    def __new__(
        cls, name: str, args: Tuple[Union[int, Expr], ...] = ()
    ) -> "ProcRef":
        if not isinstance(name, str) or not name:
            raise AcsrSemanticsError(f"invalid process name {name!r}")
        normalized: List[Union[int, Expr]] = []
        for arg in args:
            if isinstance(arg, bool):
                raise AcsrSemanticsError("process arguments must be ints")
            if isinstance(arg, (int, Expr)):
                normalized.append(arg)
            elif isinstance(arg, str):
                normalized.append(as_expr(arg))
            else:
                raise AcsrSemanticsError(
                    f"process argument must be int or Expr, got {arg!r}"
                )
        args_t = tuple(normalized)
        # Expression arguments intern by structural key (see Guard): two
        # independently built but structurally equal open references must
        # be the same term for symmetry detection to work.
        key = ("ref", name) + tuple(
            (a if isinstance(a, int) else ("expr",) + a.key()) for a in args_t
        )

        def build() -> "ProcRef":
            self = object.__new__(cls)
            self.name = name
            self.args = args_t
            return self

        return _intern(key, build)

    def instantiate(self, env: Mapping[str, int]) -> "Term":
        args = tuple(
            arg if isinstance(arg, int) else arg.evaluate(env)
            for arg in self.args
        )
        return ProcRef(self.name, args)

    def free_params(self) -> frozenset:
        result: frozenset = frozenset()
        for arg in self.args:
            if isinstance(arg, Expr):
                result |= arg.free_params()
        return result

    def __repr__(self) -> str:
        if not self.args:
            return f"ProcRef({self.name!r})"
        return f"ProcRef({self.name!r}, {self.args!r})"


# ---------------------------------------------------------------------------
# Smart constructors / builder helpers
# ---------------------------------------------------------------------------


class _Pending:
    """Accumulator for chains of prefixes built with ``>>``.

    ``action([...]) >> send("done", 1) >> proc("P")`` reads left to right
    but must nest right-associatively; the pending object collects prefix
    constructors until a :class:`Term` terminates the chain.
    """

    __slots__ = ("_prefixes",)

    def __init__(self, prefixes: Tuple[object, ...]) -> None:
        self._prefixes = prefixes

    def __rshift__(
        self, other: Union["_Pending", Term]
    ) -> Union["_Pending", Term]:
        if isinstance(other, _Pending):
            return _Pending(self._prefixes + other._prefixes)
        if isinstance(other, Term):
            return self.then(other)
        raise AcsrSemanticsError(
            f"cannot extend a prefix chain with {other!r}"
        )

    def then(self, continuation: Term) -> Term:
        """Terminate the chain, producing the nested prefix term."""
        term = continuation
        for prefix in reversed(self._prefixes):
            if isinstance(prefix, Action):
                term = ActionPrefix(prefix, term)
            else:
                term = EventPrefix(prefix, term)
        return term

    def __repr__(self) -> str:
        return f"_Pending({self._prefixes!r})"


def action(
    pairs: Union[Mapping[str, object], Iterable[Tuple[str, object]]] = (),
) -> _Pending:
    """Timed-action prefix builder: ``action({"cpu": 2}) >> cont``."""
    return _Pending((make_action(pairs),))


def idle() -> _Pending:
    """The idling step ``{} :`` -- consumes no resources, takes one quantum."""
    return _Pending((EMPTY_ACTION,))


def send(name: str, priority: Union[int, Expr, str] = 1) -> _Pending:
    """Output-event prefix builder ``(name!, priority).``"""
    pri = as_expr(priority) if isinstance(priority, str) else priority
    return _Pending((EventLabel(name, OUT, pri),))


def recv(name: str, priority: Union[int, Expr, str] = 1) -> _Pending:
    """Input-event prefix builder ``(name?, priority).``"""
    pri = as_expr(priority) if isinstance(priority, str) else priority
    return _Pending((EventLabel(name, IN, pri),))


def tau(priority: Union[int, Expr, str] = 1) -> _Pending:
    """Internal-step prefix builder ``(tau, priority).``"""
    pri = as_expr(priority) if isinstance(priority, str) else priority
    return _Pending((EventLabel(TAU, "", pri),))


def nil() -> Term:
    """The deadlocked process NIL."""
    return NIL


def choice(*terms: Term) -> Term:
    """Canonical n-ary choice (drops NIL summands, dedups, flattens)."""
    flat = _flatten(Choice, terms)
    filtered = [t for t in flat if t is not NIL]
    items = sorted(dict.fromkeys(filtered), key=by_rank)
    if not items:
        return NIL
    if len(items) == 1:
        return items[0]
    return Choice(tuple(items))


def parallel(*terms: Term) -> Term:
    """Canonical n-ary parallel composition (flattens, sorts; keeps NIL)."""
    flat = _flatten(Parallel, terms)
    items = sorted(flat, key=by_rank)
    if not items:
        return NIL
    if len(items) == 1:
        return items[0]
    return Parallel(tuple(items))


def restrict(body: Term, names: Iterable[str]) -> Term:
    """Event restriction ``body \\ {names}`` (no-op for an empty set)."""
    names = frozenset(names)
    if not names:
        return body
    if isinstance(body, Restrict):
        return Restrict(body.body, body.names | names)
    return Restrict(body, names)


def close(body: Term, resources: Iterable[str]) -> Term:
    """Resource closure ``[body]_resources`` (no-op for an empty set)."""
    resources = frozenset(resources)
    if not resources:
        return body
    if isinstance(body, Close):
        return Close(body.body, body.resources | resources)
    return Close(body, resources)


def hide(body: Term, resources: Iterable[str]) -> Term:
    """Resource hiding ``body \\\\ resources`` (no-op for an empty set)."""
    resources = frozenset(resources)
    if not resources:
        return body
    if isinstance(body, Hide):
        return Hide(body.body, body.resources | resources)
    return Hide(body, resources)


def scope(
    body: Term,
    bound: Optional[int] = INFINITY,
    exception: Optional[str] = None,
    success: Term = NIL,
    timeout: Term = NIL,
    interrupt: Term = NIL,
) -> Term:
    """Temporal scope smart constructor; normalizes a zero bound to the
    timeout handler."""
    if bound is not None and bound == 0:
        return timeout
    return Scope(body, bound, exception, success, timeout, interrupt)


def guard(condition: BoolExpr, body: Term) -> Term:
    """Guarded term ``[condition] -> body`` (open terms only)."""
    return Guard(condition, body)


def proc(name: str, *args: Union[int, Expr, str]) -> ProcRef:
    """Reference to a named process definition."""
    return ProcRef(name, tuple(args))


def seq(*parts: Union[_Pending, Term]) -> Term:
    """Fold a sequence of prefix builders terminated by a term."""
    if not parts:
        return NIL
    last = parts[-1]
    if isinstance(last, _Pending):
        raise AcsrSemanticsError("seq(...) must end with a Term")
    term = last
    for part in reversed(parts[:-1]):
        if not isinstance(part, _Pending):
            raise AcsrSemanticsError(
                "seq(...) interior elements must be prefix builders"
            )
        term = part.then(term)
    return term

