"""The engine-stats counter registry and the ``--stats`` text it renders.

``tests/data/stats_golden.json`` holds the ``--stats`` output of one
command per analysis layer, timing numbers masked, as printed before the
feature counters moved from typed ``EngineStats`` fields into the
namespaced ``counters`` map.  Regenerate it only on purpose::

    PYTHONPATH=src python tests/test_stats_registry.py --write

It differs from that record in two places only, both bug fixes:

* portfolio tier lines are listed in sorted tier-name order; before,
  their order followed dict insertion and flipped when the verdict
  cache (which stores JSON with sorted keys) served the run;
* ``analyze --compose --stats`` prints the islands' aggregate under
  ``engine stats:``; before, the compositional path dropped it.

The record describes unreduced exploration, so every exploring case
but ``reduce`` spells out ``--no-reduce``; the ``default`` case records
the partial-order-reduced default run.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.aadl import format_model
from repro.analysis.request import DEFAULT_TIERS, AnalysisRequest, analyze
from repro.cli import main
from repro.engine.stats import EngineStats
from repro.workloads import replicated_system

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "examples"
GOLDEN = Path(__file__).parent / "data" / "stats_golden.json"

#: One command per layer that writes counters; ``{replicated}`` and
#: ``{cache}`` are filled in per run.
CASES = {
    "plain": ["analyze", "cruise_control.aadl", "--no-reduce", "--stats"],
    "default": ["analyze", "cruise_control.aadl", "--stats"],
    "portfolio": ["analyze", "dual_island.aadl", "--portfolio", "--stats"],
    "portfolio-escalated": [
        "analyze", "cruise_control.aadl", "--portfolio", "--no-reduce",
        "--stats",
    ],
    "reduce": ["analyze", "{replicated}", "--reduce", "sym,por", "--stats"],
    "hier": ["analyze", "arinc653.aadl", "--hier", "--stats"],
    "all-modes-portfolio": [
        "analyze", "fault_recovery.aadl", "--all-modes", "--portfolio",
        "--stats",
    ],
    "modal-async": [
        "analyze", "fault_recovery.aadl", "--modal", "--protocol",
        "asynchronous", "--no-reduce", "--stats",
    ],
    "compose": [
        "analyze", "dual_island.aadl", "--compose", "--no-reduce", "--stats",
    ],
    "batch": [
        "batch", "run", "cruise_control.aadl", "dual_island.aadl",
        "arinc653.aadl", "--jobs", "1", "--portfolio", "--no-reduce",
        "--stats", "--cache-dir", "{cache}",
    ],
}

_SECONDS = re.compile(r"\d+\.\d+s\b")
_RATE = re.compile(r"\([\d,]+ states/s\)")


def mask(text: str) -> str:
    """Blank out the wall-clock figures, which differ run to run."""
    return _RATE.sub("(<rate> states/s)", _SECONDS.sub("<t>s", text))


def run_case(argv, tmp: Path):
    """Run one CLI command; return its exit code and masked stdout."""
    replicated = tmp / "replicated.aadl"
    if not replicated.exists():
        replicated.write_text(
            format_model(
                replicated_system(
                    3, 1, rng=np.random.default_rng(7)
                ).declarative
            )
        )
    cache = tmp / "cache"
    resolved = []
    for arg in argv:
        if arg.endswith(".aadl") and "{" not in arg:
            arg = str(EXAMPLES / arg)
        resolved.append(
            arg.format(replicated=replicated, cache=cache)
        )
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(resolved)
    return code, mask(buffer.getvalue().replace(str(cache), "<cache>"))


def _stats_block(text: str) -> str:
    return text[text.index("engine stats:"):]


class TestGolden:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_stats_text(self, case, tmp_path):
        golden = json.loads(GOLDEN.read_text())[case]
        code, out = run_case(CASES[case], tmp_path)
        assert (code, out) == (golden["exit"], golden["out"])

    def test_cold_and_warm_stats_agree(self, tmp_path):
        """A verdict-cache hit counts as a hit and adds none of the work
        stored with it, and each mode's stored stats list the portfolio
        tiers in the same order as the run that filled the cache."""
        argv = [
            "analyze", "fault_recovery.aadl", "--all-modes", "--portfolio",
            "--stats", "--cache-dir", "{cache}",
        ]
        run_case(argv, tmp_path)
        _, warm = run_case(argv, tmp_path)
        assert "[cached]" in warm
        block = _stats_block(warm)
        assert "states: 0  transitions: 0" in block
        assert "verdict cache: 3 hits / 0 misses" in block
        assert "portfolio tiers:" not in block
        request = AnalysisRequest(
            source=(EXAMPLES / "fault_recovery.aadl").read_text(),
            modes="all",
            tiers=DEFAULT_TIERS,
        )
        cache = str(tmp_path / "modes")
        cold, warm = (analyze(request, cache=cache) for _ in range(2))
        assert all(o.cached for o in warm.per_mode.values())
        assert [o.stats.format() for o in cold.per_mode.values()] == [
            o.stats.format() for o in warm.per_mode.values()
        ]
        assert "portfolio tiers:" in cold.per_mode["nominal"].stats.format()


class TestOneStatsRule:
    """Every composite verdict folds its children's stats the way the
    batch pool does: a child that ran adds its stats, a cached child
    adds one verdict-cache hit and nothing else."""

    def test_compose_under_all_modes_keeps_its_stats(self, tmp_path):
        _, out = run_case(
            ["analyze", "fault_recovery.aadl", "--all-modes", "--compose",
             "--no-reduce", "--stats"],
            tmp_path,
        )
        assert "    states: 94  transitions: 111" in _stats_block(out)

    def test_job_result_of_a_composition_stores_stats(self):
        from repro.batch.jobs import AnalysisJob, _job_result

        request = AnalysisRequest(
            source=(EXAMPLES / "dual_island.aadl").read_text(),
            decomposition="compose",
            reduce="none",
        )
        result = analyze(request)
        stored = _job_result(AnalysisJob.from_request(request), result)
        assert stored.stats is not None
        assert stored.stats["states"] == result.num_states == 30

    @pytest.mark.parametrize(
        "argv, hits",
        [
            (["analyze", "dual_island.aadl", "--compose"], 2),
            (["analyze", "fault_recovery.aadl", "--modal", "--protocol",
              "asynchronous"], 3),
        ],
        ids=["compose", "modal-async"],
    )
    def test_warm_run_counts_cached_children_as_hits(
        self, argv, hits, tmp_path
    ):
        argv = argv + ["--stats", "--cache-dir", "{cache}"]
        _, cold = run_case(argv, tmp_path)
        _, warm = run_case(argv, tmp_path)
        assert "states: 0  transitions: 0" not in cold
        assert "states: 0  transitions: 0  expanded: 0" in warm
        assert f"verdict cache: {hits} hits / 0 misses" in warm

    @pytest.mark.parametrize(
        "argv, misses",
        [
            (["analyze", "dual_island.aadl", "--compose"], 2),
            (["analyze", "fault_recovery.aadl", "--all-modes"], 3),
            (["analyze", "fault_recovery.aadl", "--modal", "--protocol",
              "asynchronous"], 3),
        ],
        ids=["compose", "all-modes", "modal-async"],
    )
    def test_cold_run_counts_its_misses(self, argv, misses, tmp_path):
        """A fan-out that consulted the cache reports its misses, the
        way ``batch run`` does, and one without a cache reports none."""
        _, cold = run_case(argv + ["--stats", "--cache-dir", "{cache}"],
                           tmp_path)
        assert f"verdict cache: 0 hits / {misses} misses" in cold
        _, uncached = run_case(argv + ["--stats"], tmp_path)
        assert "verdict cache:" not in uncached


def _stats(counters, **core):
    return EngineStats(strategy="bfs", counters=counters, **core)


_COUNTERS = st.dictionaries(
    st.sampled_from(
        [
            "portfolio.attempts.rta",
            "portfolio.hits.rta",
            "portfolio.escalations",
            "reduce.orbits_merged",
            "hier.partitions_checked",
            "modal.transitions_checked",
            "batch.verdict_cache_hits",
        ]
    ),
    st.integers(min_value=0, max_value=10**6),
)
_COUNT = st.integers(min_value=0, max_value=10**6)


class TestRegistry:
    @given(a=_COUNTERS, b=_COUNTERS, fa=_COUNT, fb=_COUNT, sa=_COUNT,
           sb=_COUNT)
    def test_aggregate_of_round_trip_sums_every_key(
        self, a, b, fa, fb, sa, sb
    ):
        first = _stats(
            a, states=sa, frontier_peak=fa, elapsed=0.5, limit_hit="states"
        )
        second = _stats(b, states=sb, frontier_peak=fb, elapsed=0.25)
        restored = EngineStats.from_dict(first.as_dict())
        total = EngineStats.aggregate([restored, second])
        for key in set(a) | set(b):
            assert total.counters[key] == a.get(key, 0) + b.get(key, 0)
        assert set(total.counters) == set(a) | set(b)
        assert total.states == sa + sb
        assert total.frontier_peak == max(fa, fb)
        assert total.elapsed == 0.75
        assert total.limit_hit is None

    def test_incr_creates_and_adds(self):
        stats = EngineStats(strategy="hier")
        stats.incr("hier.partitions_checked", 2)
        stats.incr("hier.partitions_checked")
        assert stats.counters == {"hier.partitions_checked": 3}

    def test_counters_are_copied_not_shared(self):
        source = {"reduce.por_pruned": 4}
        stats = EngineStats(strategy="bfs", counters=source)
        stats.incr("reduce.por_pruned")
        assert source == {"reduce.por_pruned": 4}

    def test_core_counts_default_to_zero(self):
        stats = EngineStats(strategy="portfolio")
        assert (stats.states, stats.transitions, stats.cache_hits) == (
            0, 0, 0,
        )
        assert stats.limit_hit is None
        assert stats.counters == {}


def write_golden() -> None:
    """Record every case's masked output (see the module docstring)."""
    record = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            code, out = run_case(CASES[case], Path(tmp))
        record[case] = {"exit": code, "out": out}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write_golden()
    else:
        sys.exit("usage: test_stats_registry.py --write")
