"""Tests of the export surfaces: scenario JSON, LTS DOT, thread groups."""

import json

import pytest

from repro.aadl import parse_model, instantiate
from repro.aadl.gallery import two_periodic_threads
from repro.analysis import analyze_model
from repro.engine import explore
from repro.versa import LTS


class TestScenarioJson:
    def test_round_trips_through_json(self):
        result = analyze_model(two_periodic_threads(schedulable=False))
        payload = json.loads(json.dumps(result.scenario.to_dict()))
        assert payload["deadlocked"] is True
        assert payload["misses"] == ["TwoThreads.slow"]
        assert payload["duration"] == 8
        assert len(payload["activity"]["TwoThreads.fast"]) == 8
        kinds = {e["kind"] for e in payload["events"]}
        assert {"dispatch", "complete", "deadline_miss"} <= kinds


class TestLtsDot:
    def test_dot_shape(self):
        from repro.acsr import ProcessEnv, action, nil, proc

        env = ProcessEnv()
        env.define("P", (), action({"cpu": 1}) >> nil())
        result = explore(env.close(proc("P")), store_transitions=True)
        dot = LTS.from_exploration(result).to_dot()
        assert dot.startswith("digraph lts {")
        assert "doublecircle" in dot          # initial state
        assert "color=red" in dot             # deadlock state
        assert 'label="{(cpu,1)}"' in dot
        assert dot.rstrip().endswith("}")


class TestThreadGroups:
    SRC = """
    processor CPU
      properties
        Scheduling_Protocol => RMS;
    end CPU;
    thread Worker
      properties
        Dispatch_Protocol => Periodic;
        Period => 8 ms;
        Compute_Execution_Time => 1 ms .. 1 ms;
        Compute_Deadline => 8 ms;
    end Worker;
    thread group Pool
    end Pool;
    thread group implementation Pool.impl
      subcomponents
        w1: thread Worker;
        w2: thread Worker;
    end Pool.impl;
    system S end S;
    system implementation S.impl
      subcomponents
        pool: thread group Pool.impl;
        cpu: processor CPU;
      properties
        Actual_Processor_Binding => reference(cpu) applies to pool.w1;
        Actual_Processor_Binding => reference(cpu) applies to pool.w2;
    end S.impl;
    """

    def test_thread_group_is_transparent_container(self):
        inst = instantiate(parse_model(self.SRC), "S.impl")
        threads = {t.qualified_name for t in inst.threads()}
        assert threads == {"S.pool.w1", "S.pool.w2"}
        assert all(
            t.bound_processor is inst.child("cpu") for t in inst.threads()
        )

    def test_thread_group_model_analyzes(self):
        from repro.analysis import Verdict

        inst = instantiate(parse_model(self.SRC), "S.impl")
        result = analyze_model(inst)
        assert result.verdict is Verdict.SCHEDULABLE
        assert result.translation.num_thread_processes == 2


class TestProcessHierarchy:
    """AADL proper places threads inside process components; the
    instantiator and translator must handle the extra layer."""

    SRC = """
    processor CPU
      properties
        Scheduling_Protocol => RMS;
    end CPU;
    thread Worker
      properties
        Dispatch_Protocol => Periodic;
        Period => 8 ms;
        Compute_Execution_Time => 2 ms .. 2 ms;
        Compute_Deadline => 8 ms;
    end Worker;
    process App end App;
    process implementation App.impl
      subcomponents
        w: thread Worker;
    end App.impl;
    system S end S;
    system implementation S.impl
      subcomponents
        app: process App.impl;
        cpu: processor CPU;
      properties
        Actual_Processor_Binding => reference(cpu) applies to app.w;
    end S.impl;
    """

    def test_thread_inside_process_bound_and_analyzed(self):
        from repro.analysis import Verdict

        inst = instantiate(parse_model(self.SRC), "S.impl")
        threads = inst.threads()
        assert [t.qualified_name for t in threads] == ["S.app.w"]
        assert threads[0].bound_processor is inst.child("cpu")
        result = analyze_model(inst)
        assert result.verdict is Verdict.SCHEDULABLE

    def test_process_level_connection_resolves(self):
        src = self.SRC.replace(
            "thread Worker\n",
            "thread Worker\n      features\n        o: out data port;\n"
            "        i: in data port;\n",
        ).replace(
            "process App end App;",
            "process App\n      features\n        o: out data port;\n"
            "        i: in data port;\n    end App;",
        ).replace(
            """subcomponents
        w: thread Worker;
    end App.impl;""",
            """subcomponents
        w: thread Worker;
      connections
        pc1: port w.o -> o;
        pc2: port i -> w.i;
    end App.impl;""",
        ).replace(
            """subcomponents
        app: process App.impl;
        cpu: processor CPU;""",
            """subcomponents
        app: process App.impl;
        app2: process App.impl;
        cpu: processor CPU;
      connections
        sc1: port app.o -> app2.i;""",
        ).replace(
            "Actual_Processor_Binding => reference(cpu) applies to app.w;",
            "Actual_Processor_Binding => reference(cpu) applies to app.w;\n"
            "    Actual_Processor_Binding => reference(cpu) applies to app2.w;",
        )
        inst = instantiate(parse_model(src), "S.impl")
        assert len(inst.connections) == 1
        conn = inst.connections[0]
        assert conn.source.qualified_name == "S.app.w.o"
        assert conn.destination.qualified_name == "S.app2.w.i"
        assert len(conn.syntactic) == 3
