"""Tests of the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.aadl.gallery import cruise_control_text

MODAL = """
processor CPU
  properties
    Scheduling_Protocol => RMS;
end CPU;
thread T
  properties
    Dispatch_Protocol => Periodic;
    Period => 8 ms;
    Compute_Execution_Time => 2 ms .. 2 ms;
    Compute_Deadline => 8 ms;
end T;
system S end S;
system implementation S.impl
  subcomponents
    a: thread T;
    b: thread T in modes (busy);
  modes
    quiet: initial mode;
    busy: mode;
  properties
    Actual_Processor_Binding => reference(cpu) applies to a;
    Actual_Processor_Binding => reference(cpu) applies to b;
end S.impl;
"""


@pytest.fixture
def cc_file(tmp_path):
    path = tmp_path / "cc.aadl"
    path.write_text(cruise_control_text())
    return str(path)


@pytest.fixture
def cc_overloaded(tmp_path):
    path = tmp_path / "cc_over.aadl"
    path.write_text(cruise_control_text(overloaded=True))
    return str(path)


class TestAnalyze:
    def test_schedulable_exit_zero(self, cc_file, capsys):
        assert main(["analyze", cc_file]) == 0
        out = capsys.readouterr().out
        assert "verdict: schedulable" in out

    def test_unschedulable_exit_one(self, cc_overloaded, capsys):
        assert main(["analyze", cc_overloaded]) == 1
        out = capsys.readouterr().out
        assert "DEADLINE MISS" in out

    def test_explicit_root(self, cc_file, capsys):
        assert main(["analyze", cc_file, "--root", "CruiseControl.impl"]) == 0

    def test_baselines_flag(self, cc_file, capsys):
        assert main(["analyze", cc_file, "--baselines"]) == 0
        assert "acsr-exploration" in capsys.readouterr().out

    def test_quantum_flag(self, cc_file, capsys):
        # 5000 us = 5 ms quantum.
        assert main(["analyze", cc_file, "--quantum", "5000"]) == 0
        assert "quantum: 5000 us" in capsys.readouterr().out

    def test_all_modes(self, tmp_path, capsys):
        path = tmp_path / "modal.aadl"
        # Complete the modal model with a processor subcomponent.
        source = MODAL.replace(
            "b: thread T in modes (busy);",
            "b: thread T in modes (busy);\n    cpu: processor CPU;",
        )
        path.write_text(source)
        assert main(["analyze", str(path), "--all-modes"]) == 0
        out = capsys.readouterr().out
        assert "mode quiet" in out and "mode busy" in out

    def test_compose_stats_aggregates_the_islands(self, capsys):
        path = str(Path(__file__).parents[1] / "examples/dual_island.aadl")
        assert main(
            ["analyze", path, "--compose", "--no-reduce", "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "compose: 2 islands (30 states total)" in out
        assert "engine stats:" in out
        assert "  states: 30  transitions: 32  expanded: 30" in out

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent.aadl"]) == 2
        assert "error" in capsys.readouterr().err


class TestExitCodeContract:
    """0 schedulable, 1 unschedulable, 2 usage/model error, 3 unknown."""

    def test_schedulable_is_zero(self, cc_file):
        assert main(["analyze", cc_file]) == 0

    def test_unschedulable_is_one(self, cc_overloaded):
        assert main(["analyze", cc_overloaded]) == 1

    def test_unknown_is_three(self, cc_file, capsys):
        # A budget too small to decide truncates the exploration.
        assert main(["analyze", cc_file, "--max-states", "10"]) == 3
        assert "verdict: unknown" in capsys.readouterr().out

    def test_usage_error_is_two(self, capsys):
        assert main(["analyze", "/nonexistent.aadl"]) == 2

    def test_verdict_enum_carries_the_contract(self):
        from repro.analysis import Verdict

        assert Verdict.SCHEDULABLE.exit_code == 0
        assert Verdict.UNSCHEDULABLE.exit_code == 1
        assert Verdict.UNKNOWN.exit_code == 3

    def test_acsr_truncated_without_deadlock_is_three(
        self, cc_file, tmp_path, capsys
    ):
        out = tmp_path / "cc.acsr"
        assert main(["translate", cc_file, "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(
            ["acsr", str(out), "--full", "--max-states", "20"]
        ) == 3
        assert "verdict unknown" in capsys.readouterr().out

    def test_help_epilog_documents_the_contract(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "exit status" in out
        assert "3  verdict unknown" in out


class TestValidate:
    def test_valid_model(self, cc_file, capsys):
        assert main(["validate", cc_file]) == 0
        assert "satisfies" in capsys.readouterr().out

    def test_invalid_model(self, tmp_path, capsys):
        path = tmp_path / "bad.aadl"
        path.write_text(
            "thread T end T;\nsystem S end S;\n"
            "system implementation S.impl\n"
            "  subcomponents\n    t: thread T;\nend S.impl;"
        )
        assert main(["validate", str(path)]) == 1
        assert "violation" in capsys.readouterr().out


class TestTranslate:
    def test_emit_to_stdout(self, cc_file, capsys):
        assert main(["translate", cc_file]) == 0
        out = capsys.readouterr().out
        assert "process AD$" in out
        assert out.strip().endswith(";")

    def test_emitted_source_reparses_and_explores(self, cc_file, tmp_path, capsys):
        out_path = tmp_path / "cc.acsr"
        assert main(["translate", cc_file, "-o", str(out_path)]) == 0
        assert main(["acsr", str(out_path), "--full"]) == 0
        out = capsys.readouterr().out
        assert "no deadlock found" in out

    def test_root_inference_message(self, tmp_path, capsys):
        # Two unrelated root systems: inference must fail helpfully.
        path = tmp_path / "two.aadl"
        path.write_text(
            "system A end A;\nsystem implementation A.impl end A.impl;\n"
            "system B end B;\nsystem implementation B.impl end B.impl;\n"
        )
        assert main(["translate", str(path)]) == 2
        assert "candidate system implementations" in capsys.readouterr().err


class TestAcsr:
    def test_deadlocking_system(self, tmp_path, capsys):
        path = tmp_path / "dead.acsr"
        path.write_text(
            "process P = {(cpu,1)} : NIL;\nsystem P;\n"
        )
        assert main(["acsr", str(path)]) == 1
        out = capsys.readouterr().out
        assert "deadlock after 1 time units" in out

    def test_live_system(self, tmp_path, capsys):
        path = tmp_path / "live.acsr"
        path.write_text("process P = idle : P;\nsystem P;\n")
        assert main(["acsr", str(path), "--full"]) == 0
        assert "no deadlock" in capsys.readouterr().out

    def test_missing_system_decl(self, tmp_path, capsys):
        path = tmp_path / "nosys.acsr"
        path.write_text("process P = idle : P;\n")
        assert main(["acsr", str(path)]) == 2


class TestSimulate:
    def test_gantt_per_processor(self, cc_file, capsys):
        assert main(["simulate", cc_file]) == 0
        out = capsys.readouterr().out
        assert "hci_processor" in out and "ccl_processor" in out
        assert "|#" in out

    def test_edf_policy(self, cc_file, capsys):
        assert main(["simulate", cc_file, "--policy", "edf"]) == 0

    def test_miss_reported(self, cc_overloaded, capsys):
        assert main(["simulate", cc_overloaded]) == 1
        assert "MISS" in capsys.readouterr().out


class TestAcsrWalkAndDot:
    @pytest.fixture
    def acsr_file(self, cc_file, tmp_path):
        out = tmp_path / "cc.acsr"
        assert main(["translate", cc_file, "-o", str(out)]) == 0
        return str(out)

    def test_walk(self, acsr_file, capsys):
        assert main(["acsr", acsr_file, "--walk", "5", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "walk of 5 step(s)" in out

    def test_walk_hits_deadlock(self, tmp_path, capsys):
        path = tmp_path / "dead.acsr"
        path.write_text("process P = {(cpu,1)} : NIL;\nsystem P;\n")
        assert main(["acsr", str(path), "--walk", "10"]) == 1
        assert "deadlock" in capsys.readouterr().out

    def test_walk_deadlock_at_exactly_budget_steps(self, tmp_path, capsys):
        # Two steps then stuck, walked with --walk 2: the walk is
        # "full length" yet still ends in a deadlock.
        path = tmp_path / "edge.acsr"
        path.write_text(
            "process P = {(cpu,1)} : {(cpu,1)} : NIL;\nsystem P;\n"
        )
        assert main(["acsr", str(path), "--walk", "2"]) == 1
        out = capsys.readouterr().out
        assert "walk of 2 step(s)" in out
        assert "walk ended in a deadlock" in out

    def test_walk_truncated_live_system_is_clean(self, tmp_path, capsys):
        path = tmp_path / "live.acsr"
        path.write_text("process P = idle : P;\nsystem P;\n")
        assert main(["acsr", str(path), "--walk", "4"]) == 0
        assert "deadlock" not in capsys.readouterr().out

    def test_dot_export(self, acsr_file, tmp_path, capsys):
        dot = tmp_path / "out.dot"
        assert main(["acsr", acsr_file, "--dot", str(dot)]) == 0
        text = dot.read_text()
        assert text.startswith("digraph lts {")
        assert "doublecircle" in text


@pytest.fixture
def plant_file(tmp_path):
    from repro.aadl.gallery import fault_recovery_text

    path = tmp_path / "plant.aadl"
    path.write_text(fault_recovery_text())
    return str(path)


class TestModalCli:
    def test_modal_synchronous(self, plant_file, capsys):
        assert main(["analyze", plant_file, "--modal"]) == 0
        out = capsys.readouterr().out
        assert "modal analysis of Plant.impl" in out
        assert "protocol: synchronous" in out
        assert "nominal -[monitor.fault]-> error" in out
        assert "unreachable from the initial mode" in out

    def test_modal_asynchronous_stats(self, plant_file, capsys):
        assert (
            main(
                [
                    "analyze", plant_file, "--modal",
                    "--protocol", "asynchronous", "--stats",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "transition(s) checked" in out

    @staticmethod
    def _heavy_file(tmp_path):
        from repro.aadl.gallery import fault_recovery_text

        # Make the recovery workload heavy enough that the switch
        # overlap misses even though each steady mode holds up on its
        # own -- the verdict only the transition-aware analysis sees.
        source = fault_recovery_text().replace(
            "Compute_Execution_Time => 4 ms .. 4 ms;\n    Compute_Deadline => 16 ms;",
            "Compute_Execution_Time => 8 ms .. 8 ms;\n    Compute_Deadline => 16 ms;",
        )
        path = tmp_path / "heavy.aadl"
        path.write_text(source)
        return path

    def test_modal_unschedulable_transient_exit_one(
        self, tmp_path, capsys
    ):
        path = self._heavy_file(tmp_path)
        assert (
            main(
                [
                    "analyze", str(path), "--modal",
                    "--protocol", "asynchronous",
                ]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "verdict: unschedulable" in out
        assert "mode recovery: schedulable" in out
        assert (
            "recovery -[monitor.done]-> nominal: unschedulable" in out
        )

    @pytest.mark.parametrize("flag", ["--compose", "--hier"])
    def test_modal_under_a_decomposition_is_usage_error(
        self, tmp_path, capsys, flag
    ):
        """--modal used to be dropped silently under --compose (a
        schedulable verdict for the initial mode only) and preempted by
        --hier; no layer checks transitions per island or partition."""
        path = self._heavy_file(tmp_path)
        argv = ["analyze", str(path), "--modal", "--protocol", "asynchronous"]
        assert main(argv + [flag]) == 2
        err = capsys.readouterr().err
        assert "--modal" in err and flag in err

    def test_modal_on_modeless_model_is_usage_error(
        self, cc_file, capsys
    ):
        assert main(["analyze", cc_file, "--modal"]) == 2
        assert "declares no modes" in capsys.readouterr().err

    def test_modal_rejects_multiple_files(
        self, plant_file, cc_file, capsys
    ):
        assert main(["analyze", plant_file, cc_file, "--modal"]) == 2
        assert "exactly one model" in capsys.readouterr().err

    def test_all_modes_portfolio_pool_caches(
        self, plant_file, tmp_path, capsys
    ):
        cache_dir = str(tmp_path / "cache")
        args = [
            "analyze", plant_file, "--all-modes", "--portfolio",
            "--jobs", "2", "--cache-dir", cache_dir,
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "[cached]" in out
        assert "mode nominal" in out

    def test_batch_run_modal(self, plant_file, capsys):
        assert (
            main(
                [
                    "batch", "run", plant_file, "--modal",
                    "--protocol", "asynchronous", "--jobs", "1",
                ]
            )
            == 0
        )
        assert "schedulable" in capsys.readouterr().out


class TestHistoryIndependence:
    def test_stats_and_scenario_depend_on_the_model_alone(
        self, history_models, fresh_cli
    ):
        """An unschedulable model's ``--stats`` and scenario text are
        the same in a fresh process, after a warm-up of other models,
        and under another ``PYTHONHASHSEED``."""
        argv = ["analyze", history_models["seed33"], "--stats"]
        warm = [history_models[f"seed{seed}"] for seed in range(39, 33, -1)]
        fresh = fresh_cli(argv)
        assert "failing scenario:" in fresh
        assert "engine stats:" in fresh
        assert fresh_cli(argv, warm=warm) == fresh
        assert fresh_cli(argv, warm=warm[::-1], hash_seed="7") == fresh
        assert fresh_cli(argv, hash_seed="7") == fresh
