"""Parser for a textual-AADL subset (SAE AS5506 core syntax).

Supported declarations::

    thread T
      features
        d: out data port;
        e: in event port { Queue_Size => 4; };
      properties
        Dispatch_Protocol => Periodic;
        Period => 20 ms;
        Compute_Execution_Time => 2 ms .. 3 ms;
        Compute_Deadline => 20 ms;
    end T;

    system implementation CC.impl
      subcomponents
        t1: thread T;
        cpu: processor P;
      connections
        c1: port t1.d -> t2.e { Actual_Connection_Binding => reference(net); };
      modes
        nominal: initial mode;
        recovery: mode;
        m1: nominal -[t1.fail]-> recovery;
      properties
        Actual_Processor_Binding => reference(cpu) applies to t1;
    end CC.impl;

Keywords are case-insensitive; ``--`` starts a line comment.  Property
values: integers, time values (``10 ms``), time ranges (``1 ms .. 3 ms``),
enumeration identifiers (typed for the standard scheduling properties),
``reference(a.b)``, parenthesized lists, and strings.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence, Tuple

from repro.errors import AadlSyntaxError
from repro.aadl.components import (
    ComponentCategory,
    ComponentImplementation,
    ComponentType,
    DeclarativeModel,
    Subcomponent,
)
from repro.aadl.connections import Connection, ConnectionKind, ConnectionRef
from repro.aadl.features import (
    AccessCategory,
    AccessFeature,
    AccessKind,
    Port,
    PortDirection,
    PortKind,
)
from repro.aadl.modes import Mode, ModeTransition
from repro.aadl.properties import (
    DISPATCH_PROTOCOL,
    OVERFLOW_HANDLING_PROTOCOL,
    SCHEDULING_PROTOCOL,
    DispatchProtocol,
    OverflowHandlingProtocol,
    PropertyHolder,
    ReferenceValue,
    SchedulingProtocol,
    TimeRange,
    TimeValue,
    _canonical_name,
)

_TIME_UNITS = {"ps", "ns", "us", "ms", "sec", "min", "hr"}

# Two-word categories ("thread group", "virtual processor") are
# recognized by their leading word plus a follow-up token check.
_CATEGORY_WORDS = {c.value for c in ComponentCategory} | {"virtual"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|--[^\n]*)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<op>::|\.\.|->|-\[|\]->|=>|[=>(){};:,.])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "lower", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int) -> None:
        self.kind = kind
        self.text = text
        #: ``text`` lower-cased once: keywords match case-insensitively
        self.lower = text.lower()
        self.line = line
        self.column = column

    def __repr__(self) -> str:
        return f"_Token({self.kind}, {self.text!r})"


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            col = pos - line_start + 1
            raise AadlSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        if match.lastgroup != "ws":
            col = match.start() - line_start + 1
            tokens.append(_Token(match.lastgroup, match.group(), line, col))
        newlines = match.group().count("\n")
        if newlines:
            line += newlines
            line_start = match.start() + match.group().rfind("\n") + 1
        pos = match.end()
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self, offset: int = 0) -> _Token:
        idx = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        if token.kind != "eof":
            self.index += 1
        return token

    def error(self, message: str) -> AadlSyntaxError:
        token = self.peek()
        return AadlSyntaxError(message, token.line, token.column)

    # ``text`` in expect / accept / at is a lower-case keyword or operator.

    def expect(self, text: str) -> _Token:
        token = self.peek()
        if token.lower != text:
            raise self.error(
                f"expected {text!r}, found {token.text or '<eof>'!r}"
            )
        return self.advance()

    def accept(self, text: str) -> bool:
        if self.peek().lower == text:
            self.advance()
            return True
        return False

    def at(self, text: str) -> bool:
        return self.peek().lower == text

    def expect_ident(self) -> str:
        token = self.peek()
        if token.kind != "ident":
            raise self.error(
                f"expected identifier, found {token.text or '<eof>'!r}"
            )
        self.advance()
        return token.text

    # -- model level ---------------------------------------------------------

    def parse_model(self) -> DeclarativeModel:
        model = DeclarativeModel()
        while self.peek().kind != "eof":
            token = self.peek()
            if token.kind != "ident" or token.lower not in _CATEGORY_WORDS:
                raise self.error(
                    f"expected a component category, found {token.text!r}"
                )
            word = self.advance()
            if word.lower == "virtual":
                self.expect("processor")
                category = ComponentCategory.VIRTUAL_PROCESSOR
            else:
                category = ComponentCategory.parse(word.text)
                if category is ComponentCategory.THREAD and self.accept(
                    "group"
                ):
                    category = ComponentCategory.THREAD_GROUP
            if self.at("implementation"):
                self.advance()
                impl = self.parse_implementation(category, model)
                model.add_implementation(impl)
            else:
                ctype = self.parse_type(category)
                model.add_type(ctype)
        return model

    def parse_type(self, category: ComponentCategory) -> ComponentType:
        name = self.expect_ident()
        ctype = ComponentType(name, category)
        if self.accept("features"):
            while not self.at("properties") and not self.at("end"):
                self.parse_feature(ctype)
        if self.accept("properties"):
            while not self.at("end"):
                self.parse_property_assoc(ctype)
        self.expect("end")
        end_name = self.expect_ident()
        if end_name.lower() != name.lower():
            raise self.error(
                f"'end {end_name}' does not match '{name}'"
            )
        self.expect(";")
        return ctype

    def parse_feature(self, ctype: ComponentType) -> None:
        name = self.expect_ident()
        self.expect(":")
        word = self.peek().lower
        if word in ("in", "out"):
            direction = self.parse_direction()
            kind = self.parse_port_kind()
            self.expect("port")
            port = Port(name, direction, kind)
            self.parse_optional_property_block(port)
            self.expect(";")
            ctype.add_feature(port)
        elif word in ("requires", "provides"):
            access_kind = (
                AccessKind.REQUIRES if self.accept("requires") else
                (self.expect("provides"), AccessKind.PROVIDES)[1]
            )
            cat_word = self.peek().lower
            if cat_word == "data":
                self.advance()
                category = AccessCategory.DATA
            elif cat_word == "bus":
                self.advance()
                category = AccessCategory.BUS
            else:
                raise self.error(
                    f"expected 'data' or 'bus' access, found {cat_word!r}"
                )
            self.expect("access")
            classifier = None
            if self.peek().kind == "ident" and not self.at(";"):
                classifier = self.parse_classifier()
            feature = AccessFeature(name, access_kind, category, classifier)
            self.parse_optional_property_block(feature)
            self.expect(";")
            ctype.add_feature(feature)
        else:
            raise self.error(
                f"expected a port or access feature, found {word!r}"
            )

    def parse_direction(self) -> PortDirection:
        if self.accept("in"):
            if self.accept("out"):
                return PortDirection.IN_OUT
            return PortDirection.IN
        self.expect("out")
        return PortDirection.OUT

    def parse_port_kind(self) -> PortKind:
        if self.accept("data"):
            return PortKind.DATA
        self.expect("event")
        if self.accept("data"):
            return PortKind.EVENT_DATA
        return PortKind.EVENT

    def parse_classifier(self) -> str:
        name = self.expect_ident()
        if self.accept("."):
            name += "." + self.expect_ident()
        return name

    def parse_implementation(
        self, category: ComponentCategory, model: DeclarativeModel
    ) -> ComponentImplementation:
        type_name = self.expect_ident()
        self.expect(".")
        impl_suffix = self.expect_ident()
        impl = ComponentImplementation(f"{type_name}.{impl_suffix}")
        if self.accept("subcomponents"):
            while (
                self.peek().lower
                not in ("connections", "modes", "properties", "end")
            ):
                self.parse_subcomponent(impl)
        if self.accept("connections"):
            while self.peek().lower not in ("modes", "properties", "end"):
                self.parse_connection(impl)
        if self.accept("modes"):
            while self.peek().lower not in ("properties", "end"):
                self.parse_mode_decl(impl)
        if self.accept("properties"):
            while not self.at("end"):
                self.parse_property_assoc(impl)
        self.expect("end")
        end_type = self.expect_ident()
        self.expect(".")
        end_suffix = self.expect_ident()
        if (
            end_type.lower() != type_name.lower()
            or end_suffix.lower() != impl_suffix.lower()
        ):
            raise self.error(
                f"'end {end_type}.{end_suffix}' does not match "
                f"'{type_name}.{impl_suffix}'"
            )
        self.expect(";")
        return impl

    def parse_subcomponent(self, impl: ComponentImplementation) -> None:
        name = self.expect_ident()
        self.expect(":")
        category_word = self.advance()
        if category_word.lower not in _CATEGORY_WORDS:
            raise self.error(
                f"expected a component category, found {category_word.text!r}"
            )
        if category_word.lower == "virtual":
            self.expect("processor")
            category = ComponentCategory.VIRTUAL_PROCESSOR
        else:
            category = ComponentCategory.parse(category_word.text)
            if category is ComponentCategory.THREAD and self.at("group"):
                self.advance()
                category = ComponentCategory.THREAD_GROUP
        classifier = self.parse_classifier()
        sub = Subcomponent(name, category, classifier)
        self.parse_optional_property_block(sub)
        in_modes = self.parse_optional_in_modes()
        sub.in_modes = in_modes
        self.expect(";")
        impl.add_subcomponent(sub)

    def parse_connection(self, impl: ComponentImplementation) -> None:
        name = self.expect_ident()
        self.expect(":")
        if self.accept("port"):
            kind = ConnectionKind.PORT
        elif self.accept("data"):
            # 'data access' connection
            self.expect("access")
            kind = ConnectionKind.ACCESS
        else:
            # Classic AADL 1.0 also allows 'data port'/'event port'
            # connection keywords; accept and normalize.
            if self.accept("event"):
                self.accept("data")
                self.expect("port")
                kind = ConnectionKind.PORT
            else:
                raise self.error("expected 'port' or 'data access'")
        source = ConnectionRef.parse(self.parse_endpoint())
        self.expect("->")
        destination = ConnectionRef.parse(self.parse_endpoint())
        conn = Connection(name, source, destination, kind)
        self.parse_optional_property_block(conn)
        conn.in_modes = self.parse_optional_in_modes()
        self.expect(";")
        impl.add_connection(conn)

    def parse_endpoint(self) -> str:
        text = self.expect_ident()
        if self.accept("."):
            text += "." + self.expect_ident()
        return text

    def parse_mode_decl(self, impl: ComponentImplementation) -> None:
        name = self.expect_ident()
        self.expect(":")
        if self.accept("initial"):
            self.expect("mode")
            self.expect(";")
            impl.add_mode(Mode(name, initial=True))
            return
        if self.accept("mode"):
            self.expect(";")
            impl.add_mode(Mode(name, initial=False))
            return
        # mode transition:  name: source -[trigger]-> target;
        source = self.expect_ident()
        self.expect("-[")
        trigger = self.parse_endpoint()
        self.expect("]->")
        target = self.expect_ident()
        self.expect(";")
        impl.mode_transitions.append(ModeTransition(source, trigger, target))

    def parse_optional_in_modes(self) -> Tuple[str, ...]:
        if not self.at("in"):
            return ()
        if self.peek(1).lower != "modes":
            return ()
        self.advance()
        self.advance()
        self.expect("(")
        names = [self.expect_ident()]
        while self.accept(","):
            names.append(self.expect_ident())
        self.expect(")")
        return tuple(names)

    def parse_optional_property_block(self, holder: PropertyHolder) -> None:
        if self.accept("{"):
            while not self.at("}"):
                self.parse_property_assoc(holder)
            self.expect("}")

    def parse_property_assoc(self, holder: PropertyHolder) -> None:
        name = self.expect_ident()
        while self.accept("::"):
            name += "::" + self.expect_ident()
        self.expect("=>")
        value = self.parse_property_value(name)
        applies_to: Tuple[str, ...] = ()
        if self.accept("applies"):
            self.expect("to")
            parts = [self.expect_ident()]
            while self.accept("."):
                parts.append(self.expect_ident())
            applies_to = tuple(parts)
        self.expect(";")
        holder.add_property(name, value, applies_to)

    def parse_property_value(self, prop_name: str):
        token = self.peek()
        if token.kind == "int":
            return self.parse_numeric_value()
        if token.kind == "string":
            self.advance()
            return token.text[1:-1]
        if self.accept("("):
            values = [self.parse_property_value(prop_name)]
            while self.accept(","):
                values.append(self.parse_property_value(prop_name))
            self.expect(")")
            return tuple(values)
        if token.lower == "reference":
            self.advance()
            self.expect("(")
            parts = [self.expect_ident()]
            while self.accept("."):
                parts.append(self.expect_ident())
            self.expect(")")
            return ReferenceValue(parts)
        if token.kind == "ident":
            self.advance()
            return _typed_enum(prop_name, token.text)
        raise self.error(
            f"expected a property value, found {token.text or '<eof>'!r}"
        )

    def parse_numeric_value(self):
        first = int(self.advance().text)
        unit = None
        if self.peek().kind == "ident" and self.peek().lower in _TIME_UNITS:
            unit = self.advance().lower
        if self.accept(".."):
            low = TimeValue(first, unit) if unit else None
            second = int(self.advance().text)
            second_unit = None
            if (
                self.peek().kind == "ident"
                and self.peek().lower in _TIME_UNITS
            ):
                second_unit = self.advance().lower
            if unit is None and second_unit is None:
                return (first, second)  # integer range
            if unit is None:
                low = TimeValue(first, second_unit)
            high = TimeValue(second, second_unit or unit)
            return TimeRange(low, high)
        if unit is not None:
            return TimeValue(first, unit)
        return first


def _typed_enum(prop_name: str, text: str):
    canonical = _canonical_name(prop_name)
    if canonical == DISPATCH_PROTOCOL:
        return DispatchProtocol.parse(text)
    if canonical == SCHEDULING_PROTOCOL:
        return SchedulingProtocol.parse(text)
    if canonical == OVERFLOW_HANDLING_PROTOCOL:
        return OverflowHandlingProtocol.parse(text)
    if text.lower() == "true":
        return True
    if text.lower() == "false":
        return False
    return text


def parse_model(text: str) -> DeclarativeModel:
    """Parse textual AADL into a :class:`DeclarativeModel`."""
    from repro.obs.tracer import current_tracer

    with current_tracer().span("aadl.parse", chars=len(text)) as span:
        parser = _Parser(text)
        model = parser.parse_model()
        span.set(
            types=len(model.types()),
            implementations=len(model.implementations()),
        )
    return model
