"""Hierarchical (BDR-interface) analysis: unit and wiring tests.

Covers the interface math, the EDF/FP partition checks, the flattened
supply-aware simulation, ``analyze_hier`` end to end, and the wiring
into the portfolio (interface-aware tier gating), the translator
(refusal of vproc-bound threads), compose (grouping by host) and the
batch pool (``hier`` job kind, interface-sensitive cache keys).
"""

from fractions import Fraction

import pytest

from repro.aadl.builder import SystemBuilder
from repro.aadl.gallery import arinc_partitions, arinc_partitions_text
from repro.analysis import Verdict
from repro.analysis.request import AnalysisRequest
from repro.batch.cache import cache_key
from repro.batch.jobs import AnalysisJob, execute_job
from repro.errors import HierError, SchedError, TranslationError
from repro.hier import (
    BdrInterface,
    analyze_hier,
    check_partition,
    check_partition_edf,
    check_partition_fp,
    derive_interfaces,
    simulate_partition,
)
from repro.sched.simulation import exact_simulation_horizon
from repro.sched.taskmodel import PeriodicTask, TaskSet


def partitioned_builder(
    *,
    period=10,
    budget=5,
    scheduling="rate_monotonic",
    tasks=((4, 40), (8, 80)),
):
    """One host, one partition with the given server and (wcet, period)
    threads."""
    b = SystemBuilder("Part")
    cpu = b.processor("cpu", scheduling="rate_monotonic")
    part = b.virtual_processor(
        "part",
        period=period,
        budget=budget,
        scheduling=scheduling,
        processor=cpu,
    )
    for index, (wcet, task_period) in enumerate(tasks):
        b.thread(
            f"t{index}",
            dispatch="periodic",
            period=task_period,
            compute_time=wcet,
            deadline=task_period,
            processor=part,
        )
    return b


class TestBdrInterface:
    def test_periodic_server_derivation(self):
        iface = BdrInterface.from_server("p", 10, 4)
        assert iface.alpha == Fraction(2, 5)
        assert iface.delta == 12

    def test_sbf_zero_through_delta_then_linear(self):
        iface = BdrInterface.from_server("p", 10, 5)  # alpha 1/2, delta 10
        assert iface.sbf(10) == 0
        assert iface.sbf(12) == Fraction(1)
        assert iface.sbf(30) == Fraction(10)

    def test_full_supply_has_no_delay(self):
        iface = BdrInterface.from_server("p", 8, 8)
        assert iface.alpha == 1
        assert iface.delta == 0
        assert iface.sbf(5) == 5

    def test_degenerate_budget_rejected(self):
        with pytest.raises(HierError, match="out of range"):
            BdrInterface.from_server("p", 10, 0)
        with pytest.raises(HierError, match="out of range"):
            BdrInterface.from_server("p", 10, 11)

    def test_inflate_alpha_fault_keeps_honest_server(self):
        honest = BdrInterface.from_server("p", 10, 4)
        faulty = BdrInterface.from_server("p", 10, 4, fault="inflate-alpha")
        assert faulty.alpha == Fraction(1, 2)  # 2/5 * 5/4
        assert faulty.delta == honest.delta
        assert (faulty.period, faulty.budget) == (10, 4)

    def test_unknown_fault_rejected(self):
        with pytest.raises(HierError, match="unknown hier fault"):
            BdrInterface.from_server("p", 10, 4, fault="nope")

    def test_token_is_stable_cache_material(self):
        assert BdrInterface.from_server("p", 10, 5).token == "p:a1/2:d10"


class TestPartitionChecks:
    def test_fp_pass_under_half_supply(self):
        tasks = TaskSet(
            [PeriodicTask("a", 4, 40), PeriodicTask("b", 8, 80)]
        )
        iface = BdrInterface.from_server("p", 10, 5)
        check = check_partition_fp(tasks, iface, "rate")
        assert check.ok

    def test_fp_fail_when_demand_beats_supply(self):
        # One task needing 6 every 10 against alpha=1/2, delta=10:
        # sbf(10)=0 < 6, no earlier point helps.
        tasks = TaskSet([PeriodicTask("a", 6, 10)])
        iface = BdrInterface.from_server("p", 10, 5)
        check = check_partition_fp(tasks, iface, "rate")
        assert not check.ok
        assert "time demand exceeds sbf" in check.detail

    def test_edf_pass_and_fail(self):
        iface = BdrInterface.from_server("p", 20, 5)  # alpha 1/4, delta 30
        light = TaskSet(
            [PeriodicTask("a", 5, 100), PeriodicTask("b", 10, 200)]
        )
        assert check_partition_edf(light, iface).ok
        heavy = TaskSet([PeriodicTask("a", 60, 100)])
        check = check_partition_edf(heavy, iface)
        assert not check.ok
        assert "exceeds availability factor" in check.detail

    def test_edf_rejects_on_dbf_not_just_utilization(self):
        # U = 1/4 == alpha, but the tight deadline needs supply inside
        # the delay window: dbf(5)=5 > sbf(5)=0.
        iface = BdrInterface.from_server("p", 20, 5)
        tight = TaskSet([PeriodicTask("a", 5, 20, deadline=5)])
        check = check_partition_edf(tight, iface)
        assert not check.ok
        assert "dbf" in check.detail

    def test_dispatch_llf_has_no_analytic_test(self):
        tasks = TaskSet([PeriodicTask("a", 1, 40)])
        iface = BdrInterface.from_server("p", 10, 5)
        assert check_partition(tasks, iface, ordering=None) is None
        assert check_partition(
            tasks, iface, ordering=None, edf=True
        ).ok

    def test_empty_partition_trivially_schedulable(self):
        iface = BdrInterface.from_server("p", 10, 5)
        check = check_partition(TaskSet([]), iface, ordering="rate")
        assert check.ok

    def test_unknown_ordering_rejected(self):
        # A typo used to fall through to explicit priorities silently.
        tasks = TaskSet([PeriodicTask("a", 1, 40, priority=1)])
        iface = BdrInterface.from_server("p", 10, 5)
        with pytest.raises(SchedError, match="unknown priority ordering"):
            check_partition_fp(tasks, iface, "typo")


class TestFlattenedSimulation:
    def test_window_is_joint_repetition(self):
        tasks = TaskSet([PeriodicTask("a", 1, 8)])
        assert exact_simulation_horizon(tasks, supply=(10, 5)) == 2 * 40

    def test_supply_slots_match_bandwidth(self):
        tasks = TaskSet([PeriodicTask("a", 1, 10)])
        run = simulate_partition(tasks, 10, 4)
        assert run.supply_slots == run.horizon * 4 // 10

    def test_interface_pass_implies_simulation_pass(self):
        tasks = TaskSet(
            [PeriodicTask("a", 4, 40), PeriodicTask("b", 8, 80)]
        )
        iface = BdrInterface.from_server("p", 10, 5)
        assert check_partition_fp(tasks, iface, "rate").ok
        assert simulate_partition(tasks, 10, 5).schedulable

    def test_starved_partition_misses(self):
        # Demand 6/10 against a server granting 5/10.
        tasks = TaskSet([PeriodicTask("a", 6, 10)])
        run = simulate_partition(tasks, 10, 5)
        assert run.schedulable is False
        assert run.misses and run.misses[0][0] == "a"

    def test_window_above_cap_is_unknown(self):
        tasks = TaskSet([PeriodicTask("a", 1, 7)])
        run = simulate_partition(tasks, 11, 5, max_window=10)
        assert run.schedulable is None
        assert run.horizon > 10 and not run.misses

    def test_conservatism_gap_exists(self):
        # The end-of-period server meets a deadline the BDR bound
        # cannot promise: D=12 with delta=10 leaves sbf(12)=1 < 5, yet
        # the concrete server delivers its full 5-slot grant by t=10.
        tasks = TaskSet([PeriodicTask("a", 5, 40, deadline=12)])
        iface = BdrInterface.from_server("p", 10, 5)
        assert not check_partition_fp(tasks, iface, "rate").ok
        assert simulate_partition(tasks, 10, 5).schedulable


class TestAnalyzeHier:
    def test_gallery_model_decided_by_interface(self):
        result = analyze_hier(arinc_partitions())
        assert result.verdict is Verdict.SCHEDULABLE
        assert result.decided_by == "hier"
        stats = result.exploration.stats
        assert stats.counters["hier.partitions_checked"] == 2
        assert stats.counters["hier.interface_hits"] == 2
        assert stats.counters["hier.sim_escalations"] == 0
        assert any(
            "schedulable by interface" in line
            for line in result.tier_trail
        )

    def test_derive_interfaces_from_gallery(self):
        interfaces = derive_interfaces(arinc_partitions())
        assert interfaces["Avionics.flight"].alpha == Fraction(1, 2)
        assert interfaces["Avionics.display"].delta == 30

    def test_overloaded_partition_unschedulable(self):
        instance = partitioned_builder(
            budget=2, tasks=((4, 10),)
        ).instantiate()
        result = analyze_hier(instance)
        assert result.verdict is Verdict.UNSCHEDULABLE
        stats = result.exploration.stats
        assert stats.counters["hier.sim_escalations"] == 1

    def test_conservative_partition_settled_by_escalation(self):
        instance = partitioned_builder(
            tasks=((6, 40),), period=10, budget=5
        ).instantiate()
        # Force interface conservatism with a tight deadline by hand:
        # analyze through the flattened path via an LLF partition.
        result = analyze_hier(instance)
        assert result.verdict is Verdict.SCHEDULABLE

    def test_window_cap_gives_unknown(self):
        # Interface check fails (demand 4 > sbf(11) = 9/7), U = 4/11
        # stays within Q/P = 3/7, and the flattened window
        # 2*lcm(11, 7) = 154 exceeds the cap.
        instance = partitioned_builder(
            period=7, budget=3, tasks=((4, 11),)
        ).instantiate()
        result = analyze_hier(instance, max_window=16)
        assert result.verdict is Verdict.UNKNOWN
        assert not result.exploration.completed

    def test_fault_injection_flips_a_starved_partition(self):
        # Demand 13/20 sits above honest alpha=3/5 but below the
        # inflated 3/4, and the tasks are deadline-loose enough that
        # only utilization separates the verdicts... checked by the
        # oracle campaign at scale; here we just pin that the fault
        # reaches the derivation.
        faulty = derive_interfaces(
            partitioned_builder().instantiate(), fault="inflate-alpha"
        )
        assert faulty["Part.part"].alpha == Fraction(5, 8)

    def test_unpartitioned_model_refused(self):
        b = SystemBuilder("Flat")
        cpu = b.processor("cpu")
        b.thread(
            "t",
            dispatch="periodic",
            period=10,
            compute_time=1,
            deadline=10,
            processor=cpu,
        )
        with pytest.raises(HierError, match="no thread-bearing virtual"):
            analyze_hier(b.instantiate())

    def test_host_must_honour_servers(self):
        # Two servers each wanting 6/10 oversubscribe the host.
        b = SystemBuilder("Over")
        cpu = b.processor("cpu")
        for index in range(2):
            part = b.virtual_processor(
                f"part{index}", period=10, budget=6, processor=cpu
            )
            b.thread(
                f"t{index}",
                dispatch="periodic",
                period=40,
                compute_time=1,
                deadline=40,
                processor=part,
            )
        result = analyze_hier(b.instantiate())
        assert result.verdict is Verdict.UNSCHEDULABLE
        assert any("host" in line for line in result.tier_trail)


#: An EDF partition granted 2 of every 3 ms whose offset threads demand
#: U = 9/12 > 2/3.  The old window O_max + 2 lcm(H, P) = 31 shows no
#: miss, but the backlog grows every hyperperiod: B misses at t = 32.
OVER_SHARE_OFFSETS_AADL = """
processor Cpu
  properties
    Scheduling_Protocol => RMS;
end Cpu;
virtual processor Part
  properties
    Scheduling_Protocol => EDF;
    Period => 3 ms;
    Execution_Time => 2 ms;
end Part;
thread A
  properties
    Dispatch_Protocol => Periodic;
    Period => 12 ms;
    Compute_Execution_Time => 5 ms .. 5 ms;
    Compute_Deadline => 9 ms;
    Dispatch_Offset => 7 ms;
end A;
thread B
  properties
    Dispatch_Protocol => Periodic;
    Period => 12 ms;
    Compute_Execution_Time => 4 ms .. 4 ms;
    Compute_Deadline => 7 ms;
    Dispatch_Offset => 1 ms;
end B;
system Node end Node;
system implementation Node.impl
  subcomponents
    cpu: processor Cpu;
    part: virtual processor Part;
    a: thread A;
    b: thread B;
  properties
    Actual_Processor_Binding => reference(cpu) applies to part;
    Actual_Processor_Binding => reference(part) applies to a;
    Actual_Processor_Binding => reference(part) applies to b;
end Node.impl;
"""


class TestOverShareOffsets:
    def _tasks(self):
        return TaskSet(
            [
                PeriodicTask("A", 5, 12, deadline=9, offset=7),
                PeriodicTask("B", 4, 12, deadline=7, offset=1),
            ]
        )

    def test_no_exact_window_over_the_server_share(self):
        tasks = self._tasks()
        assert exact_simulation_horizon(tasks, supply=(3, 2)) is None
        run = simulate_partition(tasks, 3, 2, policy="edf")
        assert run.schedulable is False

    def test_backlog_shows_past_the_old_window(self):
        from repro.sched.simulation import run_schedule

        run = run_schedule(
            [(task, task.offset, None) for task in self._tasks()],
            policy="edf",
            window=8 * 31,
            supply=(3, 2),
        )
        assert run.misses[0] == ("B", 32)

    def test_cli_hier_reports_unschedulable(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "over_share.aadl"
        path.write_text(OVER_SHARE_OFFSETS_AADL)
        assert main(["analyze", str(path), "--hier"]) == 1
        out = capsys.readouterr().out
        assert "verdict: unschedulable" in out
        assert "Node.part over-subscribed" in out


class TestWiring:
    def test_translator_refuses_vproc_bound_threads(self):
        from repro.translate import translate

        with pytest.raises(TranslationError, match="virtual processor"):
            translate(arinc_partitions())

    def test_portfolio_decides_partitions_with_hier_tier(self):
        from repro.portfolio import analyze_portfolio

        result = analyze_portfolio(arinc_partitions())
        assert result.verdict is Verdict.SCHEDULABLE
        assert any("hier:" in line for line in result.tier_trail)

    def test_full_supply_tiers_never_see_partition_units(self):
        from repro.portfolio.context import build_context
        from repro.portfolio.tiers import default_tiers

        context = build_context(arinc_partitions())
        partition_units = [
            u for u in context.units if u.interface is not None
        ]
        assert partition_units
        for tier in default_tiers():
            if tier.interface_aware:
                continue
            for unit in partition_units:
                # The portfolio's screen() filter enforces this pairing;
                # the attribute is the contract it filters on.
                assert not tier.interface_aware

    def test_compose_routes_partitioned_fallback_through_hier(self):
        from repro.aadl import format_model
        from repro.analysis.request import AnalysisRequest, analyze

        model = arinc_partitions().declarative
        result = analyze(
            AnalysisRequest(
                source=format_model(model), decomposition="compose"
            ),
            model=model,
        )
        assert result.mode == "monolithic-fallback"
        assert result.verdict is Verdict.SCHEDULABLE

    def test_host_processor_resolves_through_partition(self):
        instance = arinc_partitions()
        threads = {t.name: t for t in instance.threads()}
        control = threads["control_law"]
        assert control.bound_processor.name == "flight"
        assert control.host_processor.name == "core"
        monitor = threads["health_monitor"]
        assert monitor.host_processor is monitor.bound_processor


def hier_job(source, **fields):
    return AnalysisJob.from_request(
        AnalysisRequest(source=source, decomposition="hier", **fields)
    )


class TestBatchHier:
    def test_hier_job_executes(self):
        job = hier_job(arinc_partitions_text())
        result = execute_job(job)
        assert result.verdict == "schedulable"
        assert result.stats["counters"]["hier.interface_hits"] == 2

    def test_cache_key_tracks_interface_parameters(self):
        source = arinc_partitions_text()
        base = cache_key(hier_job(source))
        tweaked = source.replace(
            "Execution_Time => 5 ms;", "Execution_Time => 4 ms;", 1
        )
        assert cache_key(hier_job(tweaked)) != base
        assert (
            cache_key(
                hier_job(source, fault="inflate-alpha")
            )
            != base
        )

    def test_faulted_job_overpromises(self):
        b = partitioned_builder(budget=4, tasks=((13, 40), (13, 41)))
        # U = 13/40 + 13/41 ~ 0.642 > honest alpha 0.4: unschedulable.
        from repro.aadl.printer import format_model

        source = format_model(b.declarative())
        honest = execute_job(hier_job(source))
        assert honest.verdict == "unschedulable"


#: One RMS partition (server period 10 ms, budget 5 ms) hosting a
#: thread with T = D = 10 ms, C = 5 ms, in two modes.  The BDR interface
#: check fails (sbf(10) = 0); the flattened simulation passes, so every
#: steady mode is schedulable -- by escalating from the tiers to the
#: hierarchical analysis.
TWO_MODE_PARTITION = """\
processor Cpu
  properties
    Scheduling_Protocol => RMS;
end Cpu;
virtual processor Part
  properties
    Scheduling_Protocol => RMS;
    Period => 10 ms;
    Execution_Time => 5 ms;
end Part;
thread Ctl
  features
    go: out event port;
    stop: out event port;
  properties
    Dispatch_Protocol => Periodic;
    Period => 10 ms;
    Compute_Execution_Time => 5 ms .. 5 ms;
    Compute_Deadline => 10 ms;
end Ctl;
system Node end Node;
system implementation Node.impl
  subcomponents
    cpu: processor Cpu;
    part: virtual processor Part;
    ctl: thread Ctl;
  modes
    idle: initial mode;
    busy: mode;
    start: idle -[ctl.go]-> busy;
    halt: busy -[ctl.stop]-> idle;
  properties
    Actual_Processor_Binding => reference(cpu) applies to part;
    Actual_Processor_Binding => reference(part) applies to ctl;
end Node.impl;
"""

#: Steady-mode routes that escalate a pinned partitioned mode past the
#: tiers, as request fields and as CLI flags.
STEADY_ROUTES = [
    pytest.param(
        {"modes": "all", "tiers": "default"},
        ["--all-modes", "--portfolio"],
        id="all-modes-portfolio",
    ),
    pytest.param(
        {"modes": "all", "decomposition": "compose"},
        ["--all-modes", "--compose"],
        id="all-modes-compose",
    ),
    pytest.param(
        {"modes": "modal", "tiers": "default"},
        ["--modal", "--portfolio"],
        id="modal-portfolio",
    ),
    pytest.param(
        {"modes": "modal", "tiers": "default", "protocol": "asynchronous"},
        ["--modal", "--portfolio", "--protocol", "asynchronous"],
        id="modal-portfolio-asynchronous",
    ),
]


class TestPartitionedSteadyModes:
    """A pinned steady mode of a partitioned model escalates to the
    hierarchical analysis *in that mode*: every route reaches the
    verdicts of ``--all-modes --hier``."""

    @staticmethod
    def _per_mode(result):
        steady = getattr(result, "steady", result)
        return {
            mode: outcome.verdict
            for mode, outcome in steady.per_mode.items()
        }

    def test_pinned_mode_escalates_to_hier(self):
        """The hier tier's interface check fails, so the portfolio
        escalates, and the flattened simulation decides the mode."""
        from repro.analysis.request import analyze

        result = analyze(
            AnalysisRequest(TWO_MODE_PARTITION, mode="idle", tiers="default")
        )
        assert result.verdict is Verdict.SCHEDULABLE
        assert result.decided_by == "hier"
        assert "escalated to hierarchical (BDR) analysis" in result.tier_trail
        assert any(
            "schedulable by flattened simulation" in step
            for step in result.tier_trail
        )
        assert result.stats.counters["portfolio.escalations"] == 1

    @pytest.mark.parametrize("fields, flags", STEADY_ROUTES)
    def test_request_matches_hier(self, fields, flags):
        from repro.analysis.request import analyze

        hier = analyze(
            AnalysisRequest(
                TWO_MODE_PARTITION, modes="all", decomposition="hier"
            )
        )
        result = analyze(AnalysisRequest(TWO_MODE_PARTITION, **fields))
        assert self._per_mode(result) == self._per_mode(hier)
        assert result.verdict is Verdict.SCHEDULABLE

    @pytest.mark.parametrize("fields, flags", STEADY_ROUTES)
    def test_cli_matches_hier(self, fields, flags, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "two_mode.aadl"
        path.write_text(TWO_MODE_PARTITION)

        def mode_lines(argv):
            code = main(["analyze", str(path)] + argv)
            out = capsys.readouterr().out
            lines = [
                line.strip() for line in out.splitlines()
                if line.strip().startswith("mode ")
            ]
            return code, lines

        hier_code, hier_lines = mode_lines(["--all-modes", "--hier"])
        code, lines = mode_lines(flags)
        assert hier_code == code == 0
        assert lines == hier_lines
        assert len(lines) == 2
