"""State-space reduction: spec parsing, symmetry canonicalization
(property-tested), the partial-order ample filter, and the
reduced ≡ unreduced equivalence across every integration surface
(engine, analyze, compose, portfolio, batch cache keys, CLI)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.aadl import format_model
from repro.analysis import Verdict, analyze_model
from repro.analysis.request import AnalysisRequest, analyze
from repro.batch import AnalysisJob
from repro.batch.cache import cache_key
from repro.cli import main
from repro.engine import Budget, explore
from repro.engine.reduce import (
    PASS_NAMES,
    REDUCTION_FAULTS,
    ClusterMap,
    PartialOrderReduction,
    SymmetryReduction,
    build_cluster_map,
    build_reduction,
    detect_replica_classes,
    parse_reduction_spec,
    reduction_token,
    rename_term,
)
from repro.errors import AnalysisError
from repro.translate import translate
from repro.workloads import multiprocessor_system, replicated_system

SEED = 7


@pytest.fixture(scope="module")
def replicated():
    """Three identical single-thread replicas: the symmetric regime."""
    return replicated_system(3, 1, rng=np.random.default_rng(SEED))


@pytest.fixture(scope="module")
def jittered():
    """Same draw, but replica offsets differ: symmetry must not fire."""
    return replicated_system(
        3, 1, offset_jitter=True, rng=np.random.default_rng(SEED)
    )


@pytest.fixture(scope="module")
def translation(replicated):
    return translate(replicated)


@pytest.fixture(scope="module")
def classes(translation):
    return detect_replica_classes(translation)


@pytest.fixture(scope="module")
def sym_pass(classes):
    return SymmetryReduction(classes)


@pytest.fixture(scope="module")
def visited(translation):
    """Every reachable state of the unreduced replicated system."""
    result = explore(translation.system, stop_at_first_deadlock=False)
    assert result.completed
    # The parent map's keys are exactly the visited states.
    return list(result._parent)


class TestSpecParsing:
    def test_empty_specs(self):
        assert parse_reduction_spec(None) == ()
        assert parse_reduction_spec("") == ()
        assert parse_reduction_spec("none") == ()

    def test_order_is_normalized(self):
        assert parse_reduction_spec("sym,por") == ("sym", "por")
        assert parse_reduction_spec("por,sym") == ("sym", "por")
        assert parse_reduction_spec(["por"]) == ("por",)
        assert parse_reduction_spec(" sym , por ") == PASS_NAMES

    def test_unknown_pass_rejected(self):
        with pytest.raises(AnalysisError, match="unknown reduction pass"):
            parse_reduction_spec("sym,magic")

    def test_token_is_canonical(self):
        assert reduction_token("por,sym") == "sym,por"
        assert reduction_token(("por",)) == "por"
        assert reduction_token(None) is None
        assert reduction_token("none") is None


class TestReplicaDetection:
    def test_replicated_processors_detected(self, classes):
        assert classes, "identical replicas must yield a symmetry class"
        assert any(cls.size == 3 for cls in classes)

    def test_offset_jitter_blocks_symmetry(self, jittered):
        assert detect_replica_classes(translate(jittered)) == []

    def test_overeager_fault_merges_jittered_replicas(self, jittered):
        forced = detect_replica_classes(translate(jittered), overeager=True)
        assert forced, "the fault must pair units it cannot verify"

    def test_rename_maps_round_trip(self, classes):
        cls = classes[0]
        for index in range(cls.size):
            to_rep, from_rep = cls.to_rep[index], cls.from_rep[index]
            assert {to_rep[k]: k for k in to_rep} == from_rep


class TestRenameTerm:
    def test_empty_mapping_is_identity(self, visited):
        assert rename_term(visited[0], {}) is visited[0]

    def test_swap_is_an_involution(self, classes, visited):
        """Applying the unit-0/unit-1 transposition twice is the
        identity (renaming must be a genuine permutation action)."""
        cls = classes[0]
        swap = dict(zip(cls.units[0].names, cls.units[1].names))
        swap.update(zip(cls.units[1].names, cls.units[0].names))
        for state in visited[:25]:
            there = rename_term(state, swap)
            assert rename_term(there, swap) is state


def _permute(cls, perm, state):
    """Apply the unit permutation ``perm`` of ``cls`` to ``state``."""
    mapping = {}
    for index, target in enumerate(perm):
        mapping.update(zip(cls.units[index].names, cls.units[target].names))
    return rename_term(state, mapping)


class TestCanonicalizerProperties:
    @given(index=st.integers(min_value=0, max_value=10_000))
    def test_idempotent(self, sym_pass, visited, index):
        state = visited[index % len(visited)]
        canonical = sym_pass.canonicalize(state)
        assert sym_pass.canonicalize(canonical) is canonical

    @given(
        perm=st.permutations(list(range(3))),
        index=st.integers(min_value=0, max_value=10_000),
    )
    def test_permutation_invariant(
        self, classes, sym_pass, visited, perm, index
    ):
        """Every state of an orbit canonicalizes to the same
        representative: canonical(sigma . s) == canonical(s)."""
        state = visited[index % len(visited)]
        permuted = _permute(classes[0], perm, state)
        assert sym_pass.canonicalize(permuted) is sym_pass.canonicalize(
            state
        )

    def test_stable_across_instances(self, translation, sym_pass, visited):
        """A fresh pass (empty caches) picks the same representatives."""
        fresh = SymmetryReduction(detect_replica_classes(translation))
        for state in visited[:40]:
            assert fresh.canonicalize(state) is sym_pass.canonicalize(state)

    def test_canonicalization_actually_merges(self, sym_pass, visited):
        representatives = {sym_pass.canonicalize(s) for s in visited}
        assert len(representatives) < len(visited)


class TestPartialOrderFilter:
    def test_cluster_map_separates_unconnected_threads(self, translation):
        clusters = build_cluster_map(translation)
        assert clusters.n_clusters == 3

    def test_short_step_tuples_pass_through(self):
        por = PartialOrderReduction(ClusterMap({}, 0))
        assert por.filter(None, ()) == ()
        steps = (("label", "successor"),)
        assert por.filter(None, steps) is steps
        assert por.por_pruned == 0

    def test_non_event_steps_pass_through(self, visited):
        por = PartialOrderReduction(ClusterMap({"x": 0, "y": 1}, 2))
        steps = ((object(), visited[0]), (object(), visited[0]))
        assert por.filter(visited[0], steps) is steps

    def test_por_prunes_but_preserves_verdict(self, translation):
        full = explore(translation.system, stop_at_first_deadlock=False)
        reduction = build_reduction(translation, "por")
        assert reduction is not None
        reduced = explore(
            translation.system,
            stop_at_first_deadlock=False,
            reduction=reduction,
        )
        assert reduced.stats.counters["reduce.por_pruned"] > 0
        assert reduced.num_states < full.num_states
        assert reduced.deadlock_free == full.deadlock_free


class TestBuildReduction:
    def test_no_spec_is_none(self, translation):
        assert build_reduction(translation, None) is None
        assert build_reduction(translation, "none") is None

    def test_sym_declines_on_jittered_model(self, jittered):
        assert build_reduction(translate(jittered), "sym") is None

    def test_pass_names_in_order(self, translation):
        reduction = build_reduction(translation, "por,sym")
        assert reduction.pass_names == ("sym", "por")

    def test_unknown_fault_rejected(self, translation):
        with pytest.raises(AnalysisError, match="unknown reduction fault"):
            build_reduction(translation, "sym", fault="no-such-fault")

    def test_fault_registry_documents_each_fault(self):
        assert "overeager-sym" in REDUCTION_FAULTS
        for description in REDUCTION_FAULTS.values():
            assert description


class TestEngineIntegration:
    def test_reduced_run_reports_counters(self, translation):
        reduction = build_reduction(translation, "sym,por")
        result = explore(
            translation.system,
            stop_at_first_deadlock=False,
            reduction=reduction,
        )
        assert result.stats.counters["reduce.states_canonicalized"] > 0
        assert result.stats.counters["reduce.orbits_merged"] > 0

    def test_counters_are_per_run_deltas(self, translation):
        """Reusing one Reduction must not double-count earlier runs."""
        reduction = build_reduction(translation, "sym,por")
        first = explore(
            translation.system,
            stop_at_first_deadlock=False,
            reduction=reduction,
        )
        second = explore(
            translation.system,
            stop_at_first_deadlock=False,
            reduction=reduction,
        )
        assert second.num_states == first.num_states
        # The second run is served from the canonicalization cache, so
        # its own delta counts no new canonicalizations.
        assert second.stats.counters["reduce.states_canonicalized"] == 0


class TestAnalysisEquivalence:
    def test_analyze_model_reduced_matches_unreduced(self, replicated):
        unreduced = analyze_model(replicated, reduction="none")
        reduced = analyze_model(replicated, reduction="sym,por")
        assert reduced.verdict is unreduced.verdict
        assert reduced.num_states < unreduced.num_states
        stats = reduced.exploration.stats
        assert stats.counters["reduce.orbits_merged"] > 0

    def test_jittered_model_runs_unreduced(self, jittered):
        """When no pass applies the reduced path is the identity."""
        unreduced = analyze_model(jittered, reduction="none")
        reduced = analyze_model(jittered, reduction="sym")
        assert reduced.verdict is unreduced.verdict
        assert reduced.num_states == unreduced.num_states

    def test_compose_forwards_reduction(self, replicated):
        model = replicated.declarative
        composed = analyze(
            AnalysisRequest(
                source=format_model(model),
                decomposition="compose",
                reduce="sym,por",
            ),
            model=model,
            workers=1,
        )
        assert composed.verdict is analyze_model(replicated).verdict

    def test_portfolio_accepts_reduction(self, replicated):
        result = analyze_model(
            replicated, portfolio=True, reduction="sym,por"
        )
        assert result.verdict is analyze_model(replicated).verdict


def _benchmark_draw(index):
    """A shared-bus multiprocessor draw in the end-to-end benchmark's
    ``explore-multiproc`` shapes (2x3 and 3x2 processors x threads)."""
    rng = np.random.default_rng(index)
    processors, threads = ((2, 3), (3, 2))[index % 2]
    return multiprocessor_system(
        processors,
        threads,
        utilization_per_processor=float(rng.uniform(0.4, 0.95)),
        shared_bus=True,
        rng=rng,
    )


class TestDefaultReduction:
    """Partial-order reduction is on by default; a deadlock it finds is
    raised from an unreduced search."""

    def test_default_matches_unreduced_verdicts_and_scenarios(self):
        unschedulable = 0
        for index in range(40):
            instance = _benchmark_draw(index)
            default = analyze_model(instance)
            plain = analyze_model(instance, reduction="none")
            assert default.verdict is plain.verdict, index
            if plain.verdict is Verdict.UNSCHEDULABLE:
                unschedulable += 1
                assert default.scenario.format() == plain.scenario.format()
                assert default.num_states == plain.num_states
            else:
                assert default.num_states < plain.num_states
        assert unschedulable >= 2

    def test_stats_count_both_searches(self):
        instance = _benchmark_draw(4)
        default = analyze_model(instance)
        plain = analyze_model(instance, reduction="none")
        translation = translate(instance)
        reduced = explore(
            translation.system,
            stop_at_first_deadlock=True,
            reduction=build_reduction(translation, "por"),
        )
        assert default.verdict is Verdict.UNSCHEDULABLE
        assert default.stats.states == reduced.num_states + plain.num_states
        assert default.stats.counters["reduce.por_pruned"] > 0

    def test_truncated_rerun_keeps_the_reduced_witness(self):
        """Draw 4's reduced search meets a deadlock within 40 states,
        the unreduced one only after 177: at a 100-state budget the
        re-run truncates and the reduced witness is raised."""
        instance = _benchmark_draw(4)
        translation = translate(instance)
        reduced = explore(
            translation.system,
            budget=Budget(max_states=100, on_limit="truncate"),
            stop_at_first_deadlock=True,
            reduction=build_reduction(translation, "por"),
        )
        assert reduced.deadlock_states
        assert analyze_model(instance, reduction="none").num_states > 100
        result = analyze_model(instance, max_states=100)
        assert result.verdict is Verdict.UNSCHEDULABLE
        assert result.num_states == reduced.num_states
        trace = result.exploration.first_deadlock_trace()
        assert trace.labels() == reduced.first_deadlock_trace().labels()
        assert result.stats.states == reduced.num_states + 100


def _job(source, **fields):
    return AnalysisJob.from_request(AnalysisRequest(source=source, **fields))


class TestBatchCacheKeys:
    def test_reduced_jobs_get_distinct_cache_keys(self):
        source = "system S\nend S;\n"
        plain = _job(source, root="S.impl")
        reduced = _job(source, root="S.impl", reduce="sym,por")
        assert "reduce" not in plain.payload
        assert reduced.payload["reduce"] == "sym,por"
        assert cache_key(plain) != cache_key(reduced)

    def test_unreduced_key_is_unchanged_by_the_feature(self):
        """``reduce=None`` and ``reduce="none"`` are one unreduced
        request, sharing cache entries; the default (reduced) request
        keys apart from it."""
        source = "system S\nend S;\n"
        unreduced = _job(source, root="S.impl", reduce="none")
        explicit = _job(source, root="S.impl", reduce=None)
        default = _job(source, root="S.impl")
        assert unreduced.payload == explicit.payload
        assert cache_key(unreduced) == cache_key(explicit)
        assert cache_key(default) != cache_key(unreduced)


@pytest.fixture()
def replicated_file(tmp_path, replicated):
    path = tmp_path / "replicated.aadl"
    path.write_text(format_model(replicated.declarative))
    return str(path)


class TestCli:
    def test_analyze_reduce_flag(self, replicated_file, capsys):
        assert main(["analyze", replicated_file, "--reduce", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "verdict: schedulable" in out
        assert "orbits merged" in out

    def test_no_reduce_flag(self, replicated_file, capsys):
        assert (
            main(["analyze", replicated_file, "--reduce", "--no-reduce"])
            == 0
        )
        out = capsys.readouterr().out
        assert "orbits merged" not in out

    def test_reduce_spec_argument(self, replicated_file, capsys):
        assert (
            main(["analyze", replicated_file, "--reduce", "por", "--stats"])
            == 0
        )
        out = capsys.readouterr().out
        assert "transitions pruned" in out

    def test_bad_spec_is_a_usage_error(self, replicated_file, capsys):
        assert main(["analyze", replicated_file, "--reduce", "magic"]) == 2
        assert "unknown reduction pass" in capsys.readouterr().err

    def test_reduce_all_modes_needs_a_modal_root(
        self, replicated_file, capsys
    ):
        """--reduce composes with --all-modes now (the spec is forwarded
        to every per-mode run); a modeless root is still an error."""
        assert (
            main(
                ["analyze", replicated_file, "--reduce", "--all-modes"]
            )
            == 2
        )
        assert "declares no modes" in capsys.readouterr().err

    def test_acsr_has_no_reduce_flag(self, tmp_path):
        """Raw-ACSR exploration (and its walk/DOT traces) bypasses
        reduction entirely: no translation metadata, concrete traces."""
        path = tmp_path / "sys.acsr"
        path.write_text("P = NIL\nsystem P\n")
        with pytest.raises(SystemExit):
            main(["acsr", str(path), "--reduce"])

    def test_batch_run_with_reduction(self, replicated_file, capsys):
        assert (
            main(
                [
                    "batch", "run", replicated_file,
                    "--jobs", "1", "--reduce", "--stats",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "schedulable" in out
