"""Outside-in layer wrappers.  Run: pytest benchmarks/e2e"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import probes  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    probe = probes.Probe(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        wrapped_leaf()
        wrapped_leaf()
        clock.now += 0.5

    def outer():
        clock.now += 3.0
        wrapped_middle()

    wrapped_leaf = probe.wrap("leaf", leaf)
    wrapped_middle = probe.wrap("middle", middle)
    probe.wrap("outer", outer)()

    snap = probe.snapshot()
    assert snap["leaf"]["calls"] == 2
    assert snap["leaf"]["self_s"] == pytest.approx(4.0)
    assert snap["middle"]["total_s"] == pytest.approx(5.5)
    assert snap["middle"]["self_s"] == pytest.approx(1.5)
    assert snap["outer"]["total_s"] == pytest.approx(8.5)
    assert snap["outer"]["self_s"] == pytest.approx(3.0)


def test_self_time_survives_an_exception():
    clock = FakeClock()
    probe = probes.Probe(clock=clock)

    def failing():
        clock.now += 1.0
        raise ValueError("boom")

    def outer():
        clock.now += 1.0
        with pytest.raises(ValueError):
            wrapped_failing()

    wrapped_failing = probe.wrap("failing", failing)
    probe.wrap("outer", outer)()
    snap = probe.snapshot()
    assert snap["failing"]["calls"] == 1
    assert snap["outer"]["self_s"] == pytest.approx(1.0)


def test_install_rebinds_from_imports_and_uninstall_restores():
    import repro.hier.analysis
    import repro.hier.flatten
    from repro.portfolio.tiers import RtaTier

    original = repro.hier.flatten.simulate_partition
    original_decide = RtaTier.__dict__["decide"]
    # ``from repro.hier.flatten import simulate_partition`` copied the
    # binding into repro.hier.analysis.
    assert repro.hier.analysis.simulate_partition is original

    probe = probes.Probe()
    probe.install()
    try:
        assert repro.hier.flatten.simulate_partition is not original
        assert (
            repro.hier.analysis.simulate_partition
            is repro.hier.flatten.simulate_partition
        )
        assert repro.hier.analysis.simulate_partition.__wrapped__ is original
        assert RtaTier.__dict__["decide"] is not original_decide
    finally:
        probe.uninstall()
    assert repro.hier.flatten.simulate_partition is original
    assert repro.hier.analysis.simulate_partition is original
    assert RtaTier.__dict__["decide"] is original_decide


def test_wrapped_entry_point_is_counted_through_from_imports():
    import numpy as np

    import repro.hier.analysis
    from repro.workloads import partitioned_system

    instance = partitioned_system(
        2, 2, supply_factor=0.9, rng=np.random.default_rng(3)
    )
    probe = probes.Probe()
    probe.install()
    try:
        repro.hier.analysis.analyze_hier(instance)
    finally:
        probe.uninstall()
    layers = probe.snapshot()
    assert layers["hier.analyze_hier"]["calls"] == 1
    assert layers["hier.check_partition"]["calls"] == 2
    assert layers["portfolio.build_context"]["calls"] == 1
    metrics = probes.layer_metrics(layers, 1)
    assert metrics["hier.analyze_hier.calls_per_input"] == 1
    assert 0.0 <= metrics["hier.interface_hit_ratio"] <= 1.0
    assert metrics["engine.states_per_s"] == 0.0  # never explored
