"""Unit tests for smaller modules: names, errors, definitions, printers."""

import pytest

from repro import errors
from repro.acsr import (
    ProcessEnv,
    action,
    format_env,
    idle,
    nil,
    proc,
)
from repro.acsr.definitions import ProcessDef
from repro.errors import AcsrDefinitionError
from repro.translate.names import NameTable, Names, sanitize


class TestErrorsHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if (
                isinstance(obj, type)
                and issubclass(obj, Exception)
                and obj is not errors.ReproError
            ):
                assert issubclass(obj, errors.ReproError), name

    def test_syntax_errors_carry_location(self):
        exc = errors.AadlSyntaxError("bad token", 3, 7)
        assert exc.line == 3 and exc.column == 7
        assert "line 3" in str(exc)

    def test_exploration_limit_carries_state_count(self):
        exc = errors.ExplorationLimitError("budget", states_explored=42)
        assert exc.states_explored == 42


class TestSanitize:
    def test_dots_become_underscores(self):
        assert sanitize("a.b.c") == "a_b_c"

    def test_connection_arrows(self):
        assert sanitize("x.p->y.q") == "x_p__y_q"

    def test_plus_signs(self):
        assert sanitize("c1+c2") == "c1_c2"


class TestNames:
    def test_all_constructors_distinct(self):
        values = {
            Names.cpu("p"),
            Names.bus("p"),
            Names.data("p"),
            Names.dispatch("p"),
            Names.done("p"),
            Names.enqueue("p"),
            Names.dequeue("p"),
            Names.await_dispatch("p"),
            Names.compute("p"),
            Names.finish("p"),
            Names.dispatcher("p", "P"),
            Names.dispatcher_wait("p"),
            Names.dispatcher_idle("p"),
            Names.queue("p"),
            Names.queue_error("p"),
            Names.observer("p"),
            Names.observer_wait("p"),
            Names.obs_start("p"),
            Names.obs_end("p"),
        }
        assert len(values) == 19


class TestNameTable:
    def test_record_and_lookup(self):
        table = NameTable()
        table.record("cpu$p", "cpu", "sys.p")
        assert table.lookup("cpu$p") == ("cpu", "sys.p")
        assert table.kind_of("cpu$p") == "cpu"
        assert table.element_of("cpu$p") == "sys.p"
        assert "cpu$p" in table
        assert len(table) == 1

    def test_idempotent_record(self):
        table = NameTable()
        table.record("cpu$p", "cpu", "sys.p")
        table.record("cpu$p", "cpu", "sys.p")
        assert len(table) == 1

    def test_conflicting_record_rejected(self):
        table = NameTable()
        table.record("cpu$p", "cpu", "sys.p")
        with pytest.raises(ValueError):
            table.record("cpu$p", "bus", "sys.p")

    def test_names_of_kind(self):
        table = NameTable()
        table.record("cpu$a", "cpu", "sys.a")
        table.record("cpu$b", "cpu", "sys.b")
        table.record("bus$n", "bus", "sys.n")
        assert table.names_of_kind("cpu") == {
            "cpu$a": "sys.a",
            "cpu$b": "sys.b",
        }

    def test_unknown_lookup_is_none(self):
        assert NameTable().lookup("ghost") is None


class TestProcessEnv:
    def test_redefine_rejected_by_default(self, env):
        env.define("P", (), idle() >> proc("P"))
        with pytest.raises(AcsrDefinitionError):
            env.define("P", (), nil())

    def test_redefine_allowed_with_flag(self, env):
        env.define("P", (), idle() >> proc("P"))
        env.define("P", (), nil(), allow_redefine=True)
        assert env["P"].body is nil()

    def test_redefine_invalidates_unfold_cache(self, env):
        env.define("P", (), idle() >> proc("P"))
        env.unfold(proc("P"))
        env.define("P", (), nil(), allow_redefine=True)
        assert env.unfold(proc("P")) is nil()

    def test_validate_catches_unknown_reference(self, env):
        env.define("P", (), idle() >> proc("Ghost"))
        with pytest.raises(AcsrDefinitionError):
            env.validate()

    def test_validate_catches_arity_mismatch(self, env):
        from repro.acsr.expressions import var

        env.define("Q", ("n",), idle() >> proc("Q", var("n")))
        env.define("P", (), idle() >> proc("Q", 1, 2))
        with pytest.raises(AcsrDefinitionError):
            env.validate()

    def test_definition_rejects_unbound_params(self):
        from repro.acsr.expressions import var

        with pytest.raises(AcsrDefinitionError):
            ProcessDef("P", ("n",), proc("P", var("m")))

    def test_definition_rejects_duplicate_params(self):
        with pytest.raises(AcsrDefinitionError):
            ProcessDef("P", ("n", "n"), nil())

    def test_unfold_arity_checked(self, env):
        env.define("P", ("n",), nil())
        with pytest.raises(AcsrDefinitionError):
            env["P"].unfold((1, 2))

    def test_iteration_and_names(self, env):
        env.define("A", (), nil())
        env.define("B", (), nil())
        assert env.names() == ["A", "B"]
        assert len(env) == 2
        assert "A" in env and "C" not in env

    def test_cache_stats(self, env):
        env.define("P", (), idle() >> proc("P"))
        system = env.close(proc("P"))
        system.prioritized_steps()
        stats = system.cache_stats()
        assert stats["step_cache"] == 0
        assert stats["prio_cache"] >= 1
        assert stats["trans_cache"] >= 1


class TestAadlPrinterValues:
    def test_format_value_errors_on_unknown(self):
        from repro.aadl.printer import format_value

        with pytest.raises(TypeError):
            format_value(3.14)

    def test_format_bool_and_string(self):
        from repro.aadl.printer import format_value

        assert format_value(True) == "true"
        assert format_value(False) == "false"
        assert format_value("x.c") == '"x.c"'

    def test_format_tuple(self):
        from repro.aadl.printer import format_value

        assert format_value((1, 2)) == "(1, 2)"


class TestVersion:
    def test_version_importable(self):
        import repro

        assert repro.__version__
        from repro._version import __version__

        assert repro.__version__ == __version__
