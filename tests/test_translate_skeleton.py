"""Behavioural tests of the thread skeleton (Figures 4-5)."""

import pytest

from repro.acsr import ProcessEnv, parallel, proc, restrict, send, recv, idle, choice, nil
from repro.acsr.events import EventLabel
from repro.acsr.resources import Action
from repro.translate.names import NameTable
from repro.translate.priorities import StaticPriority
from repro.translate.quantum import QuantizedTiming
from repro.translate.skeleton import build_skeleton
from repro.engine import explore
from repro.versa import find_deadlock


def make_skeleton(timing, **kwargs):
    env = ProcessEnv()
    table = NameTable()
    defaults = dict(cpu_resource="cpu", cpu_priority=StaticPriority(1))
    defaults.update(kwargs)
    ad = build_skeleton(env, table, "sys.t", timing, **defaults)
    return env, table, ad


def driver_env(env, deadline):
    """A driving dispatcher: dispatch immediately, count quanta while
    waiting for done (the counter keeps distinct-duration runs distinct
    in the interned state space)."""
    from repro.acsr import guard
    from repro.acsr.expressions import var

    k = var("k")
    env.define(
        "Drv",
        (),
        send("dispatch$sys_t", 1) >> proc("DrvWait", 0),
    )
    env.define(
        "DrvWait",
        ("k",),
        choice(
            recv("done$sys_t", 0).then(proc("DrvIdle")),
            guard(k < deadline, idle().then(proc("DrvWait", k + 1))),
        ),
    )
    env.define("DrvIdle", (), idle() >> proc("DrvIdle"))


class TestLifecycle:
    def test_await_dispatch_idles(self):
        env, table, ad = make_skeleton(QuantizedTiming(1, 1, 4, None, True))
        system = env.close(proc(ad))
        labels = {str(l) for l, _ in system.steps()}
        assert "idle" in labels
        assert "(dispatch$sys_t?,1)" in labels

    def test_executes_between_cmin_and_cmax(self):
        timing = QuantizedTiming(2, 3, 5, None, True)
        env, table, ad = make_skeleton(timing)
        driver_env(env, 5)
        root = restrict(
            parallel(proc(ad), proc("Drv")), ["dispatch$sys_t", "done$sys_t"]
        )
        system = env.close(root)
        result = explore(system, store_transitions=True)
        assert result.deadlock_free
        # Completion (tau@done) must be reachable both after 2 and 3 quanta.
        done_durations = set()
        for state in result.states():
            for label, succ in result.transitions_of(state):
                if isinstance(label, EventLabel) and label.via == "done$sys_t":
                    trace = result.trace_to(state)
                    done_durations.add(trace.duration)
        assert done_durations == {2, 3}

    def test_deterministic_execution_time(self):
        timing = QuantizedTiming(2, 2, 5, None, True)
        env, table, ad = make_skeleton(timing)
        driver_env(env, 5)
        root = restrict(
            parallel(proc(ad), proc("Drv")), ["dispatch$sys_t", "done$sys_t"]
        )
        result = explore(env.close(root), store_transitions=True)
        done_durations = {
            result.trace_to(state).duration
            for state in result.states()
            for label, _ in result.transitions_of(state)
            if isinstance(label, EventLabel) and label.via == "done$sys_t"
        }
        assert done_durations == {2}

    def test_deadline_wall_deadlocks_skeleton(self):
        """Without a cpu grant (a high-priority hog), s reaches the
        deadline and the Compute state realizes the Violation deadlock."""
        from repro.acsr import action

        timing = QuantizedTiming(1, 1, 3, None, True)
        env, table, ad = make_skeleton(timing)
        driver_env(env, 3)
        env.define("Hog9", (), action({"cpu": 9}) >> proc("Hog9"))
        root = restrict(
            parallel(proc(ad), proc("Drv"), proc("Hog9")),
            ["dispatch$sys_t", "done$sys_t"],
        )
        trace = find_deadlock(env.close(root))
        assert trace is not None
        assert trace.duration == 3


class TestBusRefinement:
    def test_final_step_uses_bus(self):
        """Paper S4.2: the last computation step claims cpu AND bus."""
        timing = QuantizedTiming(2, 2, 5, None, True)
        env, table, ad = make_skeleton(
            timing, final_step_resources=["bus$net"]
        )
        driver_env(env, 5)
        root = restrict(
            parallel(proc(ad), proc("Drv")), ["dispatch$sys_t", "done$sys_t"]
        )
        result = explore(env.close(root), store_transitions=True)
        timed = [
            label
            for state in result.states()
            for label, _ in result.transitions_of(state)
            if isinstance(label, Action) and "cpu" in label
        ]
        with_bus = [l for l in timed if "bus$net" in l]
        without_bus = [l for l in timed if "bus$net" not in l]
        assert with_bus and without_bus

    def test_single_quantum_thread_always_uses_bus(self):
        timing = QuantizedTiming(1, 1, 5, None, True)
        env, table, ad = make_skeleton(
            timing, final_step_resources=["bus$net"]
        )
        driver_env(env, 5)
        root = restrict(
            parallel(proc(ad), proc("Drv")), ["dispatch$sys_t", "done$sys_t"]
        )
        result = explore(env.close(root), store_transitions=True)
        cpu_steps = [
            label
            for state in result.states()
            for label, _ in result.transitions_of(state)
            if isinstance(label, Action) and "cpu" in label
        ]
        assert cpu_steps
        assert all("bus$net" in l for l in cpu_steps)


class TestEventRefinement:
    def test_completion_events_precede_done(self):
        timing = QuantizedTiming(1, 1, 5, None, True)
        env, table, ad = make_skeleton(
            timing, completion_events=["q$c1", "q$c2"]
        )
        finish = env["F$sys_t"].body
        # The finish chain is q$c1! . q$c2! . done! . AD
        assert finish.label.name == "q$c1"
        second = finish.continuation
        assert second.label.name == "q$c2"
        third = second.continuation
        assert third.label.name == "done$sys_t"

    def test_anytime_events_self_loop_in_compute(self):
        timing = QuantizedTiming(1, 2, 5, None, True)
        env, table, ad = make_skeleton(timing, anytime_events=["q$c"])
        compute = env["C$sys_t"]
        instantiated = compute.unfold((0, 0))
        sends = [
            child
            for child in instantiated.children
            if hasattr(child, "label") and child.label.name == "q$c"
        ]
        assert len(sends) == 1
        # Self-loop: continuation returns to Compute with unchanged params.
        assert sends[0].continuation is proc("C$sys_t", 0, 0)


class TestHeldResources:
    def test_resources_held_after_acquisition(self):
        """Figure 5's R set: held on compute steps and, once execution
        has started (e > 0), across preemption too."""
        timing = QuantizedTiming(2, 2, 5, None, True)
        env, table, ad = make_skeleton(timing, held_resources=["data$d"])
        started = env["C$sys_t"].unfold((1, 1))
        actions = [
            child.action
            for child in started.children
            if hasattr(child, "action")
        ]
        assert actions
        assert all("data$d" in a for a in actions)

    def test_waiting_before_acquisition_holds_nothing(self):
        """At e == 0 the thread has not acquired its shared data: the
        waiting step is the plain idle action (a blocked thread 'remains
        blocked for the remainder of the quantum', S4.1, without
        excluding other sharers)."""
        timing = QuantizedTiming(2, 2, 5, None, True)
        env, table, ad = make_skeleton(timing, held_resources=["data$d"])
        fresh = env["C$sys_t"].unfold((0, 0))
        waiting = [
            child.action
            for child in fresh.children
            if hasattr(child, "action") and "cpu" not in child.action
        ]
        assert waiting
        assert all(a.is_idle for a in waiting)

    def test_two_sharers_can_be_dispatched_together(self):
        """Per-quantum mutual exclusion: concurrent dispatches of two
        sharers must not deadlock -- only serialize."""
        from repro.acsr import parallel, restrict
        from repro.engine import explore

        env = ProcessEnv()
        table = NameTable()
        a = build_skeleton(
            env, table, "sys.a", QuantizedTiming(1, 1, 4, None, True),
            cpu_resource="cpu1", cpu_priority=StaticPriority(1),
            held_resources=["data$d"],
        )
        b = build_skeleton(
            env, table, "sys.b", QuantizedTiming(1, 1, 4, None, True),
            cpu_resource="cpu2", cpu_priority=StaticPriority(1),
            held_resources=["data$d"],
        )
        for qual in ("sys_a", "sys_b"):
            env.define(
                f"Drv{qual}", (),
                send(f"dispatch${qual}", 1) >> proc(f"DrvW{qual}"),
            )
            env.define(
                f"DrvW{qual}", (),
                choice(
                    recv(f"done${qual}", 0).then(proc(f"DrvI{qual}")),
                    idle().then(proc(f"DrvW{qual}")),
                ),
            )
            env.define(f"DrvI{qual}", (), idle() >> proc(f"DrvI{qual}"))
        root = restrict(
            parallel(
                proc(a), proc(b),
                proc("Drvsys_a"), proc("Drvsys_b"),
            ),
            ["dispatch$sys_a", "done$sys_a", "dispatch$sys_b", "done$sys_b"],
        )
        result = explore(env.close(root))
        assert result.deadlock_free


class TestNameTable:
    def test_records_all_names(self):
        env, table, ad = make_skeleton(QuantizedTiming(1, 1, 4, None, True))
        assert table.lookup("AD$sys_t") == ("await", "sys.t")
        assert table.lookup("C$sys_t") == ("compute", "sys.t")
        assert table.lookup("F$sys_t") == ("finish", "sys.t")
        assert table.lookup("dispatch$sys_t") == ("dispatch", "sys.t")
        assert table.lookup("done$sys_t") == ("done", "sys.t")
