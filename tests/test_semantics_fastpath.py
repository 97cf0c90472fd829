"""Differential tests of the fast successor path.

``ClosedSystem.prioritized_steps`` builds the steps of a parallel
composition, bare or under a restriction, with the compiled product
step of :mod:`repro.acsr.semantics`: per-component step tables and
the linear priority filter.  On every
reachable state its tuple must equal
``prioritized(transitions(state, env))`` exactly -- labels, successor
objects and order -- so verdicts, counterexample traces and BFS order
cannot depend on the fast path.
"""

import glob
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.aadl import gallery
from repro.aadl.builder import SystemBuilder
from repro.aadl.instance import infer_root, instantiate
from repro.aadl.parser import parse_model
from repro.aadl.properties import DispatchProtocol, SchedulingProtocol, ms
from repro.acsr.events import EventLabel
from repro.acsr.priority import prioritized
from repro.acsr.semantics import transitions
from repro.acsr.terms import Parallel, Restrict
from repro.analysis.schedulability import Verdict, analyze_model
from repro.engine import Budget, explore
from repro.oracle import ReproBundle
from repro.translate import translate
from repro.workloads import multiprocessor_system
from repro.workloads.generators import task_set_to_system
from repro.workloads.uunifast import integer_task_set

RM = SchedulingProtocol.RATE_MONOTONIC
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The ARINC-653 example binds threads to virtual processors; it is
# decided by repro.hier and has no direct ACSR translation.
EXAMPLES = [
    path
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.aadl")))
    if not path.endswith("arinc653.aadl")
]
BUNDLES = sorted(glob.glob(os.path.join(ROOT, "tests", "corpus", "*.json")))

GALLERY = {
    "cruise_control": gallery.cruise_control,
    "cruise_control_overloaded": lambda: gallery.cruise_control(
        overloaded=True
    ),
    "two_periodic_threads": gallery.two_periodic_threads,
    "two_periodic_unschedulable": lambda: gallery.two_periodic_threads(
        schedulable=False
    ),
    "sporadic_consumer": gallery.sporadic_consumer,
    "aperiodic_worker": gallery.aperiodic_worker,
    "shared_bus_pair": gallery.shared_bus_pair,
    "dual_island": gallery.dual_island,
    "coupled_islands": gallery.coupled_islands,
    "priority_inversion_trio": gallery.priority_inversion_trio,
    "fault_recovery": gallery.fault_recovery,
}

# Seed-relation sizes: (prioritized states, transitions) and the same
# for the unprioritized relation, which the fast path must not change.
PINNED_COUNTS = {
    "two_periodic_threads": ((15, 16), (99, 144)),
    "shared_bus_pair": ((32, 42), (394, 717)),
    "dual_island": ((35, 56), (1543, 3191)),
    "priority_inversion_trio": ((37, 45), (465, 792)),
    "aperiodic_worker": ((14, 14), (699, 1032)),
    "sporadic_consumer": ((67, 67), (713, 998)),
    "fault_recovery": ((31, 37), (616, 1063)),
}


def _restricted_out(label, names):
    return (
        isinstance(label, EventLabel)
        and not label.is_tau
        and label.name in names
    )


def assert_fast_path_matches(system, max_states=50_000):
    """Check every reachable state of ``system``."""
    result = explore(
        system, budget=Budget(max_states=max_states), store_transitions=True
    )
    env = system.env
    for state in result.states():
        fast = system.prioritized_steps(state)
        assert fast == result.transitions_of(state)
        assert fast == prioritized(transitions(state, env)), state
        if isinstance(state, Restrict) and isinstance(state.body, Parallel):
            # Restriction-aware interleaving equals filtering the body's
            # full parallel relation.
            names = state.names
            assert transitions(state, env) == tuple(
                (label, Restrict(succ, names))
                for label, succ in transitions(state.body, env)
                if not _restricted_out(label, names)
            )


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery_models(name):
    assert_fast_path_matches(translate(GALLERY[name]()).system)


@pytest.mark.parametrize(
    "path", EXAMPLES, ids=lambda path: os.path.basename(path)
)
def test_example_models(path):
    with open(path) as handle:
        model = parse_model(handle.read())
    instance = instantiate(model, infer_root(model))
    assert_fast_path_matches(translate(instance).system)


@pytest.mark.parametrize(
    "path", BUNDLES, ids=lambda path: os.path.basename(path)[:-5]
)
def test_corpus_bundles(path):
    case = ReproBundle.load(path).case
    instance = task_set_to_system(case.task_set(), scheduling=case.protocol())
    assert_fast_path_matches(translate(instance).system)


def offset_multiprocessor(processors, utilization, rng):
    """The shared-bus ``multiprocessor_system(processors, 2)`` shape,
    with processor ``p``'s first thread dispatched at an offset of
    ``p`` ms."""
    builder = SystemBuilder("Multi")
    bus = builder.bus("net")
    sink = builder.thread(
        "sink",
        dispatch=DispatchProtocol.PERIODIC,
        period=ms(8),
        compute_time=(ms(1), ms(1)),
        deadline=ms(8),
        processor=builder.processor("sink_cpu", scheduling=RM),
    )
    for p in range(processors):
        cpu = builder.processor(f"cpu{p}", scheduling=RM)
        tasks = integer_task_set(
            2, utilization, periods=(4, 8), rng=rng, name_prefix=f"p{p}t"
        )
        for index, task in enumerate(tasks):
            thread = builder.thread(
                task.name,
                dispatch=DispatchProtocol.PERIODIC,
                period=ms(task.period),
                compute_time=(ms(task.wcet), ms(task.wcet)),
                deadline=ms(task.deadline),
                processor=cpu,
                offset=ms(p) if index == 0 and p > 0 else None,
            )
            if index == 0:
                thread.out_data_port("out")
                sink.in_data_port(f"in_p{p}")
                builder.connect(thread, "out", sink, f"in_p{p}", bus=bus)
    return builder.instantiate()


@settings(max_examples=15)
@given(
    processors=st.integers(min_value=2, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    utilization=st.floats(min_value=0.3, max_value=0.95),
    offsets=st.booleans(),
)
def test_multiprocessor_draws(processors, seed, utilization, offsets):
    rng = np.random.default_rng(seed)
    if offsets:
        instance = offset_multiprocessor(processors, utilization, rng)
    else:
        instance = multiprocessor_system(
            processors,
            2,
            utilization_per_processor=utilization,
            shared_bus=True,
            rng=rng,
        )
    assert_fast_path_matches(translate(instance).system)


#: The explore benchmark's shapes: (processors, threads per processor).
BENCHMARK_SHAPES = ((2, 3), (3, 2))
#: Twelve draws in the benchmark's shape, U/cpu stepping through
#: [0.4, 0.95]; the last two are unschedulable.
BENCHMARK_DRAWS = [(index, 0.4 + 0.05 * index) for index in range(12)]


def benchmark_draw(index, utilization):
    return translate(
        multiprocessor_system(
            *BENCHMARK_SHAPES[index % 2],
            utilization_per_processor=utilization,
            shared_bus=True,
            rng=np.random.default_rng([2006, index]),
        )
    ).system


def test_benchmark_draws_include_unschedulable_models():
    deadlocked = [
        index
        for index, utilization in BENCHMARK_DRAWS
        if explore(benchmark_draw(index, utilization)).deadlock_states
    ]
    assert len(deadlocked) >= 2


@pytest.mark.parametrize(
    "index,utilization", BENCHMARK_DRAWS, ids=lambda value: f"{value:g}"
)
def test_benchmark_shape_draws(index, utilization):
    """The compiled product step on the benchmark's own state shape
    (a restriction over ~14 components, one shared bus)."""
    system = benchmark_draw(index, utilization)
    assert_fast_path_matches(system)
    first = explore(system, store_transitions=True)
    system.clear_cache()
    again = explore(system, store_transitions=True)
    assert again.states() == first.states()
    assert again.deadlock_states == first.deadlock_states
    for state in first.states():
        assert again.transitions_of(state) == first.transitions_of(state)


@pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
def test_relation_sizes_unchanged(name):
    system = translate(GALLERY[name]()).system
    pinned_prio, pinned_unprio = PINNED_COUNTS[name]
    prio = explore(system)
    unprio = explore(system, prioritized=False)
    assert (prio.num_states, prio.num_transitions) == pinned_prio
    assert (unprio.num_states, unprio.num_transitions) == pinned_unprio
    assert unprio.completed


class TestEnvironmentIsolation:
    """Component tables belong to the environment: terms are interned
    process-wide, but a ``ProcRef`` unfolds through its own definitions.
    The two variants generate the same process names with different
    WCETs, so a process-global table would hand one model's steps to
    the other."""

    @pytest.mark.parametrize("order", [(True, False), (False, True)])
    def test_verdicts_independent_of_order(self, order):
        expected = {
            True: Verdict.SCHEDULABLE,
            False: Verdict.UNSCHEDULABLE,
        }
        for schedulable in order + order:
            instance = gallery.two_periodic_threads(schedulable=schedulable)
            assert analyze_model(instance).verdict is expected[schedulable]

    def test_shared_term_steps_follow_their_env(self):
        ok = translate(gallery.two_periodic_threads()).system
        bad = translate(gallery.two_periodic_threads(schedulable=False)).system

        def components(system):
            return {
                child
                for state in explore(system).states()
                for child in state.body.children
            }

        shared = components(ok) & components(bad)
        differing = [
            term
            for term in shared
            if transitions(term, ok.env) != transitions(term, bad.env)
        ]
        assert differing, "fixture no longer exercises a name collision"
        for term in differing:
            assert ok.env.table_cache.get(term) != bad.env.table_cache.get(
                term
            )
