"""Behavioural tests of connection queue processes (paper S4.4)."""

import pytest

from repro.errors import TranslationError
from repro.acsr import (
    ProcessEnv,
    choice,
    idle,
    parallel,
    proc,
    recv,
    restrict,
    send,
)
from repro.acsr.events import EventLabel
from repro.aadl.properties import OverflowHandlingProtocol
from repro.translate.names import NameTable
from repro.translate.queues import build_queue
from repro.versa import find_deadlock, find_reachable
from repro.versa.queries import contains_proc


def build(size, overflow, urgency=1):
    env = ProcessEnv()
    table = NameTable()
    name = build_queue(
        env, table, "conn", size=size, overflow=overflow, urgency=urgency
    )
    return env, table, name


class TestCounter:
    def test_enqueue_increments(self):
        env, _, name = build(2, OverflowHandlingProtocol.DROP_NEWEST)
        system = env.close(proc(name, 0), validate=False)
        succ = {
            str(label): target for label, target in system.steps()
        }
        assert succ["(q$conn?,0)"] is proc(name, 1)

    def test_dequeue_decrements(self):
        env, _, name = build(2, OverflowHandlingProtocol.DROP_NEWEST)
        system = env.close(proc(name, 1), validate=False)
        succ = {str(label): target for label, target in system.steps()}
        assert succ["(dq$conn!,1)"] is proc(name, 0)

    def test_empty_queue_offers_no_dequeue(self):
        env, _, name = build(2, OverflowHandlingProtocol.DROP_NEWEST)
        system = env.close(proc(name, 0), validate=False)
        labels = {str(label) for label, _ in system.steps()}
        assert "(dq$conn!,1)" not in labels

    def test_idle_always_available(self):
        env, _, name = build(1, OverflowHandlingProtocol.DROP_NEWEST)
        for n in (0, 1):
            system = env.close(proc(name, n), validate=False)
            assert "idle" in {str(l) for l, _ in system.steps()}

    def test_urgency_on_dequeue(self):
        env, _, name = build(1, OverflowHandlingProtocol.DROP_NEWEST, urgency=3)
        system = env.close(proc(name, 1), validate=False)
        labels = {str(label) for label, _ in system.steps()}
        assert "(dq$conn!,3)" in labels


class TestOverflow:
    def test_drop_self_loop_at_capacity(self):
        env, _, name = build(1, OverflowHandlingProtocol.DROP_OLDEST)
        system = env.close(proc(name, 1), validate=False)
        succ = {str(label): target for label, target in system.steps()}
        assert succ["(q$conn?,0)"] is proc(name, 1)  # dropped, count stays

    def test_error_moves_to_error_state(self):
        env, table, name = build(1, OverflowHandlingProtocol.ERROR)
        system = env.close(proc(name, 1), validate=False)
        succ = {str(label): target for label, target in system.steps()}
        error_state = succ["(q$conn?,0)"]
        assert table.lookup(error_state.name) == ("queue_error", "conn")
        # The error state deadlocks the model (S4.4).
        assert system.steps(error_state) == ()

    def test_overflow_reachable_with_fast_producer(self):
        """A producer outpacing the consumer drives the Error queue into
        its error state."""
        env, table, name = build(1, OverflowHandlingProtocol.ERROR)
        env.define(
            "Producer",
            (),
            send("q$conn", 0) >> (idle() >> proc("Producer")),
        )
        system = env.close(
            restrict(parallel(proc("Producer"), proc(name, 0)), ["q$conn"]),
        )
        trace = find_reachable(system, contains_proc("QE$conn"))
        assert trace is not None
        # Two enqueues needed: one fills the queue, the second overflows.
        taus = [s for s in trace if s.is_event]
        assert len(taus) == 2

    def test_drop_protocol_never_deadlocks(self):
        env, table, name = build(1, OverflowHandlingProtocol.DROP_NEWEST)
        env.define(
            "Producer",
            (),
            send("q$conn", 0) >> (idle() >> proc("Producer")),
        )
        system = env.close(
            restrict(parallel(proc("Producer"), proc(name, 0)), ["q$conn"]),
        )
        assert find_deadlock(system) is None


class TestValidation:
    def test_zero_size_rejected(self):
        env = ProcessEnv()
        with pytest.raises(TranslationError):
            build_queue(
                env,
                NameTable(),
                "conn",
                size=0,
                overflow=OverflowHandlingProtocol.DROP_NEWEST,
            )

    def test_zero_urgency_rejected(self):
        env = ProcessEnv()
        with pytest.raises(TranslationError):
            build_queue(
                env,
                NameTable(),
                "conn",
                size=1,
                overflow=OverflowHandlingProtocol.DROP_NEWEST,
                urgency=0,
            )

    def test_names_recorded(self):
        env, table, name = build(1, OverflowHandlingProtocol.DROP_NEWEST)
        assert table.lookup("Q$conn") == ("queue", "conn")
        assert table.lookup("q$conn") == ("enqueue", "conn")
        assert table.lookup("dq$conn") == ("dequeue", "conn")
