"""Behavioural tests of the dispatcher processes (Figure 6)."""

import pytest

from repro.errors import TranslationError
from repro.acsr import (
    ProcessEnv,
    action,
    choice,
    guard,
    idle,
    parallel,
    proc,
    recv,
    restrict,
    send,
)
from repro.acsr.events import EventLabel
from repro.acsr.expressions import var
from repro.aadl.properties import DispatchProtocol
from repro.translate.dispatchers import build_dispatcher
from repro.translate.names import NameTable
from repro.translate.quantum import QuantizedTiming
from repro.engine import Budget, explore
from repro.versa import find_deadlock


def thread_stub(env, compute_quanta):
    """A stub skeleton: dispatch? -> compute N quanta -> done! -> repeat."""
    e = var("e")
    env.define(
        "AD$sys_t",
        (),
        choice(
            recv("dispatch$sys_t", 1).then(proc("Cstub", 0)),
            idle().then(proc("AD$sys_t")),
        ),
    )
    env.define(
        "Cstub",
        ("e",),
        choice(
            guard(
                e < compute_quanta,
                action({"cpu": 1}) >> proc("Cstub", e + 1),
            ),
            guard(
                e.eq(compute_quanta),
                send("done$sys_t", 0) >> proc("AD$sys_t"),
            ),
        ),
    )
    return proc("AD$sys_t")


def close_system(env, dispatcher_name, extra=()):
    skeleton = proc("AD$sys_t")
    refs = [skeleton, proc(dispatcher_name)] + list(extra)
    restricted = ["dispatch$sys_t", "done$sys_t", "q$c", "dq$c"]
    return env.close(restrict(parallel(*refs), restricted))


class TestPeriodic:
    def build(self, period, deadline, compute):
        env = ProcessEnv()
        table = NameTable()
        thread_stub(env, compute)
        name, _init = build_dispatcher(
            env,
            table,
            "sys.t",
            DispatchProtocol.PERIODIC,
            QuantizedTiming(compute, compute, deadline, period, True),
        )
        return env, name

    def test_initial_state_cannot_idle(self):
        """Fig 6a: the dispatcher has to send dispatch immediately."""
        env, name = self.build(4, 4, 1)
        steps = env.close(proc(name), validate=False).steps()
        assert len(steps) == 1
        label = steps[0][0]
        assert isinstance(label, EventLabel) and label.name == "dispatch$sys_t"

    def test_meets_deadline_is_deadlock_free(self):
        env, name = self.build(period=4, deadline=4, compute=2)
        system = close_system(env, name)
        result = explore(system)
        assert result.deadlock_free

    def test_period_respected(self):
        """Dispatch happens exactly every P quanta."""
        env, name = self.build(period=3, deadline=3, compute=1)
        system = close_system(env, name)
        result = explore(system, store_transitions=True)
        dispatch_times = set()
        for state in result.states():
            for label, _ in result.transitions_of(state):
                if (
                    isinstance(label, EventLabel)
                    and label.via == "dispatch$sys_t"
                ):
                    dispatch_times.add(result.trace_to(state).duration % 3)
        assert dispatch_times == {0}

    def test_deadline_violation_deadlocks(self):
        """Compute exceeds the deadline: the dispatcher blocks (Fig 6a
        timeout -> Violation)."""
        env, name = self.build(period=4, deadline=2, compute=3)
        system = close_system(env, name)
        trace = find_deadlock(system)
        assert trace is not None
        assert trace.duration == 2  # blocked exactly at the deadline

    def test_completion_at_deadline_equal_period(self):
        """D == P and execution takes the full period: legal, tight."""
        env, name = self.build(period=2, deadline=2, compute=2)
        system = close_system(env, name)
        assert explore(system).deadlock_free

    def test_missing_period_rejected(self):
        env = ProcessEnv()
        with pytest.raises(TranslationError):
            build_dispatcher(
                env,
                NameTable(),
                "sys.t",
                DispatchProtocol.PERIODIC,
                QuantizedTiming(1, 1, 4, None, True),
            )


class TestAperiodic:
    def build(self, deadline, compute, protocol=DispatchProtocol.APERIODIC):
        env = ProcessEnv()
        table = NameTable()
        thread_stub(env, compute)
        name, _init = build_dispatcher(
            env,
            table,
            "sys.t",
            protocol,
            QuantizedTiming(compute, compute, deadline, None, True),
            dequeues=[("dq$c", 1)],
        )
        return env, name

    def test_can_idle_awaiting_event(self):
        """Fig 6b: unlike the periodic dispatcher, idling is allowed."""
        env, name = self.build(deadline=4, compute=1)
        steps = env.close(proc(name), validate=False).steps()
        labels = {str(label) for label, _ in steps}
        assert "idle" in labels
        assert "(dq$c?,1)" in labels

    def test_event_triggers_dispatch(self):
        env, name = self.build(deadline=4, compute=1)
        # Environment: a single event source.
        env.define("Src", (), send("q$c", 0) >> proc("SrcIdle"))
        env.define("SrcIdle", (), idle() >> proc("SrcIdle"))
        n = var("n")
        env.define(
            "Q",
            ("n",),
            choice(
                guard(n < 1, recv("q$c", 0).then(proc("Q", n + 1))),
                guard(n.eq(1), recv("q$c", 0).then(proc("Q", n))),
                guard(n > 0, send("dq$c", 1) >> proc("Q", n - 1)),
                idle().then(proc("Q", n)),
            ),
        )
        system = close_system(env, name, extra=[proc("Src"), proc("Q", 0)])
        result = explore(system, store_transitions=True)
        assert result.deadlock_free
        vias = {
            label.via
            for state in result.states()
            for label, _ in result.transitions_of(state)
            if isinstance(label, EventLabel) and label.is_tau
        }
        assert {"q$c", "dq$c", "dispatch$sys_t", "done$sys_t"} <= vias

    def test_background_uses_aperiodic_dispatcher(self):
        env, name = self.build(
            deadline=4, compute=1, protocol=DispatchProtocol.BACKGROUND
        )
        assert name.startswith("DA$")

    def test_requires_incoming_connection(self):
        env = ProcessEnv()
        with pytest.raises(TranslationError):
            build_dispatcher(
                env,
                NameTable(),
                "sys.t",
                DispatchProtocol.APERIODIC,
                QuantizedTiming(1, 1, 4, None, True),
                dequeues=[],
            )


class TestSporadic:
    def build(self, period, deadline, compute):
        env = ProcessEnv()
        table = NameTable()
        thread_stub(env, compute)
        name, _init = build_dispatcher(
            env,
            table,
            "sys.t",
            DispatchProtocol.SPORADIC,
            QuantizedTiming(compute, compute, deadline, period, True),
            dequeues=[("dq$c", 1)],
        )
        return env, name

    def test_minimum_separation_enforced(self):
        """Fig 6c: with a saturating event source, consecutive dispatches
        are at least P quanta apart."""
        env, name = self.build(period=3, deadline=2, compute=1)
        # Source that always offers events; queue of size 1 that drops.
        env.define(
            "Src",
            (),
            choice(
                send("q$c", 0) >> proc("Src"),
                idle().then(proc("Src")),
            ),
        )
        n = var("n")
        env.define(
            "Q",
            ("n",),
            choice(
                guard(n < 1, recv("q$c", 0).then(proc("Q", n + 1))),
                guard(n.eq(1), recv("q$c", 0).then(proc("Q", n))),
                guard(n > 0, send("dq$c", 1) >> proc("Q", n - 1)),
                idle().then(proc("Q", n)),
            ),
        )
        system = close_system(env, name, extra=[proc("Src"), proc("Q", 0)])
        result = explore(
            system,
            budget=Budget(max_states=100_000),
            store_transitions=True,
        )
        assert result.deadlock_free
        # Collect dispatch times along every edge: since state includes
        # the separation counter, two dispatches < P apart would deadlock
        # or appear as a dispatch at depth k with k % ... -- instead
        # verify directly: from any state reached right after a dispatch,
        # no second dispatch is reachable in fewer than P timed steps.
        import collections

        for state in result.states():
            for label, succ in result.transitions_of(state):
                if not (
                    isinstance(label, EventLabel)
                    and label.via == "dispatch$sys_t"
                ):
                    continue
                # BFS from succ counting timed steps to the next dispatch.
                queue = collections.deque([(succ, 0)])
                seen = {succ}
                while queue:
                    current, depth = queue.popleft()
                    for lab, nxt in result.transitions_of(current):
                        is_dispatch = (
                            isinstance(lab, EventLabel)
                            and lab.via == "dispatch$sys_t"
                        )
                        if is_dispatch:
                            assert depth >= 3, "separation violated"
                            continue
                        if nxt not in seen and depth < 3:
                            seen.add(nxt)
                            timed = 0 if isinstance(lab, EventLabel) else 1
                            queue.append((nxt, depth + timed))

    def test_missing_separation_rejected(self):
        env = ProcessEnv()
        with pytest.raises(TranslationError):
            build_dispatcher(
                env,
                NameTable(),
                "sys.t",
                DispatchProtocol.SPORADIC,
                QuantizedTiming(1, 1, 4, None, True),
                dequeues=[("dq$c", 1)],
            )
