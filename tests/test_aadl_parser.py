"""Tests of the textual AADL parser and printer round-trip."""

import pytest

from repro.errors import AadlNameError, AadlSyntaxError
from repro.aadl import (
    ComponentCategory,
    DispatchProtocol,
    OverflowHandlingProtocol,
    PortDirection,
    PortKind,
    SchedulingProtocol,
    TimeRange,
    TimeValue,
    format_model,
    parse_model,
)
from repro.aadl.features import AccessFeature, Port
from repro.aadl.properties import ReferenceValue


THREAD_SRC = """
thread Sensor
  features
    raw: out data port;
    trigger: in event port { Queue_Size => 4; Overflow_Handling_Protocol => Error; };
  properties
    Dispatch_Protocol => Sporadic;
    Period => 20 ms;
    Compute_Execution_Time => 2 ms .. 3 ms;
    Compute_Deadline => 10 ms;
end Sensor;
"""


class TestTypeParsing:
    def test_thread_with_ports(self):
        model = parse_model(THREAD_SRC)
        sensor = model.type("Sensor")
        assert sensor.category is ComponentCategory.THREAD
        raw = sensor.feature("raw")
        assert isinstance(raw, Port)
        assert raw.direction is PortDirection.OUT
        assert raw.kind is PortKind.DATA

    def test_port_property_block(self):
        model = parse_model(THREAD_SRC)
        trigger = model.type("Sensor").feature("trigger")
        assert trigger.own_property("queue_size") == 4
        assert (
            trigger.own_property("overflow_handling_protocol")
            is OverflowHandlingProtocol.ERROR
        )

    def test_typed_enum_properties(self):
        model = parse_model(THREAD_SRC)
        sensor = model.type("Sensor")
        assert (
            sensor.own_property("dispatch_protocol")
            is DispatchProtocol.SPORADIC
        )

    def test_time_range_property(self):
        model = parse_model(THREAD_SRC)
        value = model.type("Sensor").own_property("compute_execution_time")
        assert isinstance(value, TimeRange)
        assert value.low == TimeValue(2, "ms")
        assert value.high == TimeValue(3, "ms")

    def test_in_out_port(self):
        model = parse_model(
            "thread T features p: in out event data port; end T;"
        )
        port = model.type("T").feature("p")
        assert port.direction is PortDirection.IN_OUT
        assert port.kind is PortKind.EVENT_DATA

    def test_access_feature(self):
        model = parse_model(
            "thread T features d: requires data access Shared; end T;"
        )
        feature = model.type("T").feature("d")
        assert isinstance(feature, AccessFeature)
        assert feature.classifier == "Shared"

    def test_end_name_mismatch(self):
        with pytest.raises(AadlSyntaxError):
            parse_model("thread T end U;")

    def test_split_arrow_is_not_an_arrow(self):
        """``=>`` is one token only when its characters touch."""
        with pytest.raises(AadlSyntaxError) as caught:
            parse_model(
                "processor CPU\n  properties\n"
                "    Scheduling_Protocol = > RMS;\nend CPU;\n"
            )
        assert str(caught.value) == (
            "line 3, column 25: expected '=>', found '='"
        )

    def test_keywords_case_insensitive(self):
        model = parse_model(
            "THREAD T PROPERTIES Dispatch_Protocol => periodic; END T;"
        )
        assert model.has_type("t")


IMPL_SRC = """
processor CPU
  properties
    Scheduling_Protocol => EDF;
end CPU;

thread T
  properties
    Dispatch_Protocol => Periodic;
    Period => 10 ms;
    Compute_Execution_Time => 1 ms .. 1 ms;
    Compute_Deadline => 10 ms;
end T;

system S
end S;

system implementation S.impl
  subcomponents
    t1: thread T;
    t2: thread T;
    cpu: processor CPU;
  properties
    Actual_Processor_Binding => reference(cpu) applies to t1;
    Actual_Processor_Binding => reference(cpu) applies to t2;
end S.impl;
"""


class TestImplementationParsing:
    def test_subcomponents(self):
        model = parse_model(IMPL_SRC)
        impl = model.implementation("S.impl")
        assert set(impl.subcomponents) == {"t1", "t2", "cpu"}
        assert impl.subcomponent("t1").category is ComponentCategory.THREAD

    def test_binding_properties(self):
        model = parse_model(IMPL_SRC)
        impl = model.implementation("S.impl")
        contained = impl.contained_properties("actual_processor_binding")
        assert len(contained) == 2
        assert isinstance(contained[0].value, ReferenceValue)

    def test_scheduling_protocol_typed(self):
        model = parse_model(IMPL_SRC)
        cpu = model.type("CPU")
        assert (
            cpu.own_property("scheduling_protocol")
            is SchedulingProtocol.EARLIEST_DEADLINE_FIRST
        )

    def test_impl_requires_known_type(self):
        with pytest.raises(AadlNameError):
            parse_model("system implementation Ghost.impl end Ghost.impl;")

    def test_connections(self):
        src = IMPL_SRC.replace(
            "system implementation S.impl",
            "system implementation S.impl",
        )
        model = parse_model(
            """
            thread A features o: out data port; end A;
            thread B features i: in data port; end B;
            system S end S;
            system implementation S.impl
              subcomponents
                a: thread A;
                b: thread B;
              connections
                c1: port a.o -> b.i;
            end S.impl;
            """
        )
        impl = model.implementation("S.impl")
        assert len(impl.connections) == 1
        conn = impl.connections[0]
        assert str(conn.source) == "a.o"
        assert str(conn.destination) == "b.i"

    def test_modes(self):
        model = parse_model(
            """
            thread A features fail: out event port; end A;
            system S end S;
            system implementation S.impl
              subcomponents
                a: thread A;
                b: thread A in modes (nominal);
              modes
                nominal: initial mode;
                recovery: mode;
                m1: nominal -[a.fail]-> recovery;
            end S.impl;
            """
        )
        impl = model.implementation("S.impl")
        assert impl.initial_mode().name == "nominal"
        assert len(impl.mode_transitions) == 1
        assert impl.subcomponent("b").in_modes == ("nominal",)

    def test_connection_property_block(self):
        model = parse_model(
            """
            bus Net end Net;
            thread A features o: out data port; end A;
            thread B features i: in data port; end B;
            system S end S;
            system implementation S.impl
              subcomponents
                a: thread A;
                b: thread B;
                net: bus Net;
              connections
                c1: port a.o -> b.i { Actual_Connection_Binding => reference(net); };
            end S.impl;
            """
        )
        conn = model.implementation("S.impl").connections[0]
        value = conn.own_property("actual_connection_binding")
        assert isinstance(value, ReferenceValue)
        assert value.path == ("net",)


class TestValueParsing:
    def test_plain_int(self):
        model = parse_model("thread T properties Priority => 7; end T;")
        assert model.type("T").own_property("priority") == 7

    def test_string_value(self):
        model = parse_model(
            'thread T properties Source_Text => "t.c"; end T;'
        )
        assert model.type("T").own_property("source_text") == "t.c"

    def test_list_value(self):
        model = parse_model(
            "thread T properties Nums => (1, 2, 3); end T;"
        )
        assert model.type("T").own_property("nums") == (1, 2, 3)

    def test_boolean_identifiers(self):
        model = parse_model(
            "thread T properties Active => true; end T;"
        )
        assert model.type("T").own_property("active") is True

    def test_integer_range(self):
        model = parse_model("thread T properties Span => 1 .. 5; end T;")
        assert model.type("T").own_property("span") == (1, 5)


class TestRoundTrip:
    @pytest.mark.parametrize("source", [THREAD_SRC, IMPL_SRC])
    def test_parse_print_parse(self, source):
        model = parse_model(source)
        printed = format_model(model)
        model2 = parse_model(printed)
        assert format_model(model2) == printed

    def test_gallery_cruise_control_roundtrip(self):
        from repro.aadl.gallery import cruise_control_text

        model = parse_model(cruise_control_text())
        printed = format_model(model)
        model2 = parse_model(printed)
        assert format_model(model2) == printed


class TestModeRoundTrip:
    """The printer must re-emit mode declarations the parser reads
    back identically (transitions are renamed to ``mt{idx}`` on the
    first print, so stability is judged printer-normalized)."""

    def test_fault_recovery_roundtrip(self):
        from repro.aadl.gallery import fault_recovery_text

        model = parse_model(fault_recovery_text())
        printed = format_model(model)
        model2 = parse_model(printed)
        assert format_model(model2) == printed

    def test_roundtrip_preserves_mode_semantics(self):
        from repro.aadl.gallery import fault_recovery_text

        model = parse_model(format_model(parse_model(fault_recovery_text())))
        impl = model.implementation("Plant.impl")
        assert impl.initial_mode().name == "nominal"
        assert len(impl.modes) == 4
        transitions = {
            (t.source, t.trigger, t.target)
            for t in impl.mode_transitions
        }
        assert ("nominal", "monitor.fault", "error") in transitions
        assert ("recovery", "monitor.done", "nominal") in transitions
        assert impl.subcomponent("filter").in_modes == ("nominal",)
        assert impl.subcomponent("control").in_modes == ()

    def test_example_file_matches_gallery(self):
        """examples/fault_recovery.aadl is the gallery model, printer-
        normalized; keep the two in sync."""
        import pathlib

        from repro.aadl.gallery import fault_recovery_text

        path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "examples" / "fault_recovery.aadl"
        )
        on_disk = parse_model(path.read_text())
        assert format_model(on_disk) == format_model(
            parse_model(fault_recovery_text())
        )
