"""Tests of repro.compose: coupling graph, slicing, combination, and
the compositional driver end to end."""

import pytest

from repro.errors import ComposeError, TranslationError
from repro.aadl import SystemSlice, slice_instance
from repro.aadl.builder import SystemBuilder
from repro.aadl.gallery import (
    coupled_islands,
    cruise_control,
    dual_island,
    priority_inversion_trio,
    shared_bus_pair,
    two_periodic_threads,
)
from repro.aadl.properties import DispatchProtocol, SchedulingProtocol, ms
from repro.analysis import Verdict, analyze_model
from repro.analysis.request import AnalysisRequest, IslandSpec
from repro.batch import AnalysisJob, execute_job
from repro.batch.cache import cache_key
from repro.compose import (
    CouplingEdge,
    Island,
    analyze_compositionally,
    build_coupling_graph,
    combine_outcomes,
    island_slice,
    partition_instance,
    plan,
)
from repro.compose.combiner import IslandOutcome
from repro.translate import translate


# ---------------------------------------------------------------------------
# Coupling graph
# ---------------------------------------------------------------------------


class TestCouplingGraph:
    def test_dual_island_has_no_edges(self):
        graph = build_coupling_graph(dual_island())
        assert len(graph.processors) == 2
        assert graph.edges == []
        assert len(graph.islands()) == 2

    def test_pure_data_connection_is_not_an_edge(self):
        """The translation ignores unbussed data connections into
        periodic threads, so cutting them is free."""
        inst = dual_island()
        assert len(inst.connections) == 1  # the cross-processor data wire
        assert build_coupling_graph(inst).edges == []

    def test_cross_processor_event_connection_couples(self):
        graph = build_coupling_graph(coupled_islands())
        assert [edge.kind for edge in graph.edges] == ["event"]
        assert len(graph.islands()) == 1

    def test_shared_bus_couples_senders(self):
        graph = build_coupling_graph(shared_bus_pair())
        kinds = {edge.kind for edge in graph.edges}
        assert kinds == {"bus"}
        assert len(graph.islands()) == 1

    def test_shared_data_across_processors_couples(self):
        b = SystemBuilder("SharedData")
        cpu1 = b.processor("cpu1")
        cpu2 = b.processor("cpu2")
        for name, cpu in (("left", cpu1), ("right", cpu2)):
            thread = b.thread(
                name,
                dispatch=DispatchProtocol.PERIODIC,
                period=ms(4),
                compute_time=(ms(1), ms(1)),
                deadline=ms(4),
                processor=cpu,
            )
            thread.requires_data_access("d", classifier="SharedState")
        graph = build_coupling_graph(b.instantiate())
        assert [edge.kind for edge in graph.edges] == ["data"]
        assert "SharedState" in graph.edges[0].detail

    def test_private_data_does_not_couple(self):
        """Distinct classifiers are distinct resources."""
        b = SystemBuilder("PrivateData")
        cpu1 = b.processor("cpu1")
        cpu2 = b.processor("cpu2")
        for name, cpu, classifier in (
            ("left", cpu1, "StateA"),
            ("right", cpu2, "StateB"),
        ):
            thread = b.thread(
                name,
                dispatch=DispatchProtocol.PERIODIC,
                period=ms(4),
                compute_time=(ms(1), ms(1)),
                deadline=ms(4),
                processor=cpu,
            )
            thread.requires_data_access("d", classifier=classifier)
        graph = build_coupling_graph(b.instantiate())
        assert graph.edges == []
        assert len(graph.islands()) == 2

    def test_edges_deduplicated_and_sorted(self):
        inst = shared_bus_pair()
        graph = build_coupling_graph(inst)
        keys = [edge.key for edge in graph.edges]
        assert keys == sorted(set(keys))

    def test_unbound_thread_propagates_translation_error(self):
        b = SystemBuilder("Unbound")
        b.processor("cpu")
        b.thread(
            "loose",
            dispatch=DispatchProtocol.PERIODIC,
            period=ms(4),
            compute_time=(ms(1), ms(1)),
            deadline=ms(4),
        )
        with pytest.raises(TranslationError, match="not bound"):
            build_coupling_graph(b.instantiate(validate=False))


class TestPartition:
    def test_dual_island_decomposes(self):
        partition = partition_instance(dual_island())
        assert partition.decomposable
        assert [i.label for i in partition.islands] == [
            "island-0-cpu1",
            "island-1-cpu2",
        ]

    def test_islands_are_deterministic(self):
        first = partition_instance(dual_island())
        second = partition_instance(dual_island())
        assert [
            [t.qualified_name for t in island.threads]
            for island in first.islands
        ] == [
            [t.qualified_name for t in island.threads]
            for island in second.islands
        ]

    def test_single_processor_falls_back(self):
        partition = partition_instance(two_periodic_threads())
        assert not partition.decomposable
        assert "1 bound processor" in partition.fallback_reason

    def test_coupled_model_falls_back_with_reason(self):
        partition = partition_instance(coupled_islands())
        assert not partition.decomposable
        assert "coupled" in partition.fallback_reason
        assert "event" in partition.fallback_reason

    def test_cruise_control_is_bus_coupled(self):
        partition = partition_instance(cruise_control())
        assert not partition.decomposable
        assert "bus" in partition.fallback_reason

    def test_multi_modal_model_falls_back(self):
        inst = dual_island()
        inst.active_modes["DualIsland.sub"] = "backup"
        partition = partition_instance(inst)
        assert not partition.decomposable
        assert "multi-modal" in partition.fallback_reason

    def test_plan_format_lists_islands_and_edges(self):
        text = partition_instance(dual_island()).format()
        assert "islands: 2" in text
        assert "DualIsland.cpu1" in text
        coupled = partition_instance(coupled_islands()).format()
        assert "fallback: monolithic" in coupled
        assert "[event]" in coupled


# ---------------------------------------------------------------------------
# Slicing
# ---------------------------------------------------------------------------


class TestSlicing:
    def test_slice_filters_threads_and_connections(self):
        inst = dual_island()
        partition = partition_instance(inst)
        first = island_slice(inst, partition.islands[0])
        assert isinstance(first, SystemSlice)
        assert [t.qualified_name for t in first.threads()] == [
            "DualIsland.fast",
            "DualIsland.slow",
        ]
        # The cross-island data connection is cut.
        assert first.connections == []

    def test_slice_preserves_identity_and_properties(self):
        """Kept components are the original objects, so qualified names
        and property lookups are unchanged."""
        inst = dual_island()
        partition = partition_instance(inst)
        sliced = island_slice(inst, partition.islands[1])
        originals = {t.qualified_name: t for t in inst.threads()}
        for thread in sliced.threads():
            assert thread is originals[thread.qualified_name]

    def test_slice_translates_standalone(self):
        inst = dual_island()
        partition = partition_instance(inst)
        for island in partition.islands:
            result = translate(island_slice(inst, island))
            assert result.num_thread_processes == 2

    def test_slice_keeps_shared_data_targets(self):
        """Access connections into kept threads drag their data
        component along."""
        inst = priority_inversion_trio()
        threads = [t for t in inst.threads() if t.name != "medium"]
        keep = threads + [inst.threads()[0].bound_processor]
        sliced = slice_instance(inst, keep, label="no-medium")
        assert len(sliced.access_connections) == len(
            inst.access_connections
        )

    def test_slice_keeps_feeding_devices(self):
        src = """
        device Radar
          features
            ping: out event port;
        end Radar;
        thread Tracker
          features
            ping: in event port;
          properties
            Dispatch_Protocol => Sporadic;
            Period => 4 ms;
            Compute_Execution_Time => 1 ms .. 1 ms;
            Deadline => 4 ms;
        end Tracker;
        processor CPU
        end CPU;
        system S
        end S;
        system implementation S.impl
          subcomponents
            radar: device Radar;
            tracker: thread Tracker;
            cpu: processor CPU;
          connections
            c1: port radar.ping -> tracker.ping;
          properties
            Actual_Processor_Binding => reference(cpu) applies to tracker;
        end S.impl;
        """
        from repro.aadl import parse_model, instantiate

        inst = instantiate(parse_model(src), "S.impl")
        tracker = inst.threads()[0]
        sliced = slice_instance(
            inst, [tracker, tracker.bound_processor], label="t"
        )
        assert len(sliced.connections) == 1
        categories = {c.category.value for c in sliced.descendants()}
        assert "device" in categories


# ---------------------------------------------------------------------------
# Verdict combination
# ---------------------------------------------------------------------------


def _island(index=0):
    return Island(index, [], [])


def _outcome(verdict, *, index=0, states=10, error=None):
    return IslandOutcome(
        island=_island(index),
        verdict=verdict,
        states=states,
        elapsed=0.0,
        error=error,
    )


class TestCombination:
    def test_verdict_combine_precedence(self):
        V = Verdict
        assert V.combine([V.SCHEDULABLE, V.SCHEDULABLE]) is V.SCHEDULABLE
        assert V.combine([V.SCHEDULABLE, V.UNKNOWN]) is V.UNKNOWN
        assert (
            V.combine([V.UNKNOWN, V.UNSCHEDULABLE, V.SCHEDULABLE])
            is V.UNSCHEDULABLE
        )
        assert V.combine([]) is V.SCHEDULABLE

    def test_all_schedulable(self):
        partition = partition_instance(dual_island())
        result = combine_outcomes(
            partition,
            [
                _outcome(Verdict.SCHEDULABLE, index=0),
                _outcome(Verdict.SCHEDULABLE, index=1),
            ],
        )
        assert result.verdict is Verdict.SCHEDULABLE
        assert result.num_states == 20

    def test_any_unschedulable_wins_and_names_island(self):
        partition = partition_instance(dual_island())
        result = combine_outcomes(
            partition,
            [
                _outcome(Verdict.SCHEDULABLE, index=0),
                _outcome(Verdict.UNSCHEDULABLE, index=1),
            ],
        )
        assert result.verdict is Verdict.UNSCHEDULABLE
        assert result.first_unschedulable().island.index == 1

    def test_unknown_demotes(self):
        partition = partition_instance(dual_island())
        result = combine_outcomes(
            partition,
            [
                _outcome(Verdict.SCHEDULABLE, index=0),
                _outcome(Verdict.UNKNOWN, index=1),
            ],
        )
        assert result.verdict is Verdict.UNKNOWN
        assert result.exit_code == 3

    def test_island_error_poisons_combination(self):
        partition = partition_instance(dual_island())
        with pytest.raises(ComposeError, match="island analysis failed"):
            combine_outcomes(
                partition,
                [
                    _outcome(Verdict.SCHEDULABLE, index=0),
                    _outcome(Verdict.UNKNOWN, index=1, error="boom"),
                ],
            )


# ---------------------------------------------------------------------------
# Island batch jobs
# ---------------------------------------------------------------------------


class TestIslandJobs:
    def _job(self, *, threads, processors, label="island-x"):
        from repro.aadl import format_model

        inst = dual_island()
        return AnalysisJob.from_request(
            AnalysisRequest(
                source=format_model(inst.declarative),
                root="DualIsland.impl",
                island=IslandSpec(label, threads, processors),
            )
        )

    def test_execute_island_job(self):
        result = execute_job(
            self._job(
                threads=["DualIsland.fast", "DualIsland.slow"],
                processors=["DualIsland.cpu1"],
            )
        )
        assert result.verdict == "schedulable"
        assert result.kind == "analysis"
        assert result.states > 0

    def test_cache_keys_differ_per_island(self):
        first = self._job(
            threads=["DualIsland.fast", "DualIsland.slow"],
            processors=["DualIsland.cpu1"],
        )
        second = self._job(
            threads=["DualIsland.harvest", "DualIsland.report"],
            processors=["DualIsland.cpu2"],
        )
        assert cache_key(first) != cache_key(second)

    def test_cache_key_ignores_label(self):
        """Membership, not the display label, is the key material."""
        kwargs = dict(
            threads=["DualIsland.fast", "DualIsland.slow"],
            processors=["DualIsland.cpu1"],
        )
        assert cache_key(self._job(**kwargs)) == cache_key(
            self._job(label="other-name", **kwargs)
        )

    def test_unknown_member_is_an_error_result(self):
        result = execute_job(
            self._job(
                threads=["DualIsland.missing"],
                processors=["DualIsland.cpu1"],
            )
        )
        assert result.verdict == "error"
        assert "DualIsland.missing" in result.error

    def test_island_job_round_trips(self):
        job = self._job(
            threads=["DualIsland.fast"], processors=["DualIsland.cpu1"]
        )
        clone = AnalysisJob.from_dict(job.to_dict())
        assert clone.request.island == job.request.island
        assert clone.payload == job.payload


# ---------------------------------------------------------------------------
# The compositional driver
# ---------------------------------------------------------------------------


class TestAnalyzeCompositionally:
    def test_agrees_with_monolithic_and_explores_fewer_states(self):
        monolithic = analyze_model(dual_island())
        composed = analyze_compositionally(dual_island(), workers=1)
        assert composed.compositional
        assert composed.verdict is monolithic.verdict
        # The whole point: sum of islands < product state space.
        assert composed.num_states < monolithic.num_states

    def test_unschedulable_island_surfaces_counterexample(self):
        composed = analyze_compositionally(
            dual_island(schedulable=False), workers=1
        )
        assert composed.verdict is Verdict.UNSCHEDULABLE
        culprit = composed.first_unschedulable()
        assert culprit.island.label == "island-1-cpu2"
        assert "deadline_miss" in culprit.rendered
        # ... and agrees with the monolithic answer.
        assert (
            analyze_model(dual_island(schedulable=False)).verdict
            is Verdict.UNSCHEDULABLE
        )

    def test_coupled_model_falls_back_with_reason(self):
        composed = analyze_compositionally(coupled_islands(), workers=1)
        assert not composed.compositional
        assert composed.mode == "monolithic-fallback"
        assert "coupled" in composed.fallback_reason
        assert composed.verdict is analyze_model(coupled_islands()).verdict

    def test_single_processor_falls_back(self):
        composed = analyze_compositionally(
            two_periodic_threads(), workers=1
        )
        assert not composed.compositional
        assert composed.verdict is Verdict.SCHEDULABLE

    def test_declarative_input_requires_root(self):
        from repro.aadl import parse_model

        model = parse_model(open("examples/dual_island.aadl").read())
        with pytest.raises(ValueError, match="root_impl"):
            analyze_compositionally(model)
        composed = analyze_compositionally(
            model, root_impl="DualIsland.impl", workers=1
        )
        assert composed.compositional

    def test_island_results_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = analyze_compositionally(
            dual_island(), workers=1, cache=cache_dir
        )
        assert all(not o.cached for o in first.outcomes)
        second = analyze_compositionally(
            dual_island(), workers=1, cache=cache_dir
        )
        assert all(o.cached for o in second.outcomes)
        assert second.verdict is first.verdict

    def test_quantum_pinned_to_full_model(self):
        """Islands must use the whole model's quantum even when their
        own GCD would be coarser."""
        b = SystemBuilder("Uneven")
        cpu1 = b.processor("cpu1")
        cpu2 = b.processor("cpu2")
        b.thread(
            "coarse",
            dispatch=DispatchProtocol.PERIODIC,
            period=ms(4),
            compute_time=(ms(2), ms(2)),
            deadline=ms(4),
            processor=cpu1,
        )
        b.thread(
            "fine",
            dispatch=DispatchProtocol.PERIODIC,
            period=ms(3),
            compute_time=(ms(1), ms(1)),
            deadline=ms(3),
            processor=cpu2,
        )
        composed = analyze_compositionally(b.instantiate(), workers=1)
        assert composed.compositional
        # Full-model GCD is 1 ms; a lone 'coarse' island would have
        # used 2 ms.  4 quanta per period proves the pin took.
        rendered = composed.outcomes[0].rendered
        assert "quantum: 1000000000 ps" in rendered

    def test_format_mentions_islands_and_verdict(self):
        text = analyze_compositionally(dual_island(), workers=1).format()
        assert "2 islands" in text
        assert "island-0-cpu1" in text
        assert "verdict: schedulable" in text

    def test_parallel_workers_match_inline(self):
        inline = analyze_compositionally(dual_island(), workers=1)
        pooled = analyze_compositionally(dual_island(), workers=2)
        assert pooled.verdict is inline.verdict
        assert [o.verdict for o in pooled.outcomes] == [
            o.verdict for o in inline.outcomes
        ]


class TestComposeTracing:
    def test_compose_spans_recorded(self):
        from repro.obs import COMPOSE_STAGES, Tracer, activate

        tracer = Tracer()
        with activate(tracer):
            analyze_compositionally(dual_island(), workers=1)
        names = {span.name for span in tracer.spans}
        for stage in COMPOSE_STAGES:
            assert stage in names, f"missing span {stage}"

    def test_fallback_records_partition_span(self):
        from repro.obs import Tracer, activate

        tracer = Tracer()
        with activate(tracer):
            analyze_compositionally(coupled_islands(), workers=1)
        partition_spans = [
            s for s in tracer.spans if s.name == "compose.partition"
        ]
        assert len(partition_spans) == 1
        assert partition_spans[0].attrs["decomposable"] is False
