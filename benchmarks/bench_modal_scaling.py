"""T-MODAL: per-mode fan-out through the batch pool vs the serial loop.

The modal subsystem's scaling claim: the steady half of a
transition-aware analysis treats every reachable mode as one batch job
with a mode-keyed cache entry, so an 8-mode model re-analyzed after a
model-neutral change (new seeds elsewhere in a campaign, a re-run CI
job) is served from the verdict cache across workers instead of
re-exploring every mode in sequence.  The acceptance bar: the
parallel-cached fan-out beats the serial in-process loop by >= 3x at
8 modes.
"""

import time

import numpy as np

from repro.aadl import format_model
from repro.analysis import AnalysisRequest, Verdict, analyze
from repro.workloads import faulty_modal_system

from conftest import print_table

N_MODES = 8


def eight_mode_model():
    """A deterministic 8-mode fault/recovery draw; moderate per-mode
    utilization keeps each steady exploration non-trivial."""
    return faulty_modal_system(
        n_modes=N_MODES,
        threads_per_mode=5,
        utilization=(0.4, 0.6),
        periods=(16, 32, 64),
        rng=np.random.default_rng(42),
    )


def _all_modes(model, **fan_out):
    """Every reachable mode of ``model``, one per-mode job each."""
    request = AnalysisRequest(
        source=format_model(model), root="FaultyModal.impl", modes="all"
    )
    return analyze(request, model=model, **fan_out)


def test_parallel_cached_fanout_beats_serial_loop(benchmark, tmp_path):
    model = eight_mode_model()
    cache = str(tmp_path / "cache")

    started = time.perf_counter()
    serial = _all_modes(model)
    serial_elapsed = time.perf_counter() - started
    assert len(serial.per_mode) == N_MODES

    # Cold pooled run populates the mode-keyed verdict cache.
    cold = _all_modes(model, workers=4, cache=cache)
    assert not any(o.cached for o in cold.per_mode.values())

    def warm_run():
        return _all_modes(model, workers=4, cache=cache)

    warm = benchmark.pedantic(warm_run, rounds=3, iterations=1)
    started = time.perf_counter()
    warm = warm_run()
    warm_elapsed = time.perf_counter() - started

    assert all(o.cached for o in warm.per_mode.values())
    assert warm.verdict is serial.verdict
    assert {
        mode: o.verdict for mode, o in warm.per_mode.items()
    } == {mode: o.verdict for mode, o in serial.per_mode.items()}
    # The acceptance bar: >= 3x over the serial loop at 8 modes.
    speedup = serial_elapsed / max(warm_elapsed, 1e-9)
    assert speedup >= 3.0, (
        f"parallel-cached fan-out only {speedup:.2f}x over the serial "
        f"loop ({serial_elapsed:.3f}s vs {warm_elapsed:.3f}s)"
    )

    print_table(
        f"{N_MODES}-mode steady fan-out: serial loop vs pooled + "
        f"warm verdict cache",
        ["run", "verdict", "seconds", "speedup"],
        [
            (
                "serial loop",
                serial.verdict.value,
                f"{serial_elapsed:.4f}",
                "1.0x",
            ),
            (
                "pooled, warm cache",
                warm.verdict.value,
                f"{warm_elapsed:.4f}",
                f"{speedup:.1f}x",
            ),
        ],
    )


def test_cold_pool_matches_serial_verdicts(tmp_path):
    """Determinism across execution shapes: --jobs N with a cold cache
    must reproduce the serial per-mode verdicts exactly."""
    model = eight_mode_model()
    serial = _all_modes(model)
    pooled = _all_modes(model, workers=4, cache=str(tmp_path / "cold"))
    assert list(pooled.per_mode) == list(serial.per_mode)
    assert {
        mode: o.verdict for mode, o in pooled.per_mode.items()
    } == {mode: o.verdict for mode, o in serial.per_mode.items()}
    assert pooled.verdict in (
        Verdict.SCHEDULABLE, Verdict.UNSCHEDULABLE, Verdict.UNKNOWN
    )
