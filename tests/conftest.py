"""Shared fixtures, helpers and Hypothesis configuration.

Hypothesis settings live here once, as registered profiles, instead of
being repeated per file:

* ``dev`` (default) -- moderate example counts for local iteration;
* ``ci`` -- what the CI workflow runs (``HYPOTHESIS_PROFILE=ci``);
* ``nightly`` -- deep example counts for the scheduled nightly job.

All profiles disable the per-example deadline (ACSR explorations have
high variance), tolerate slow data generation, and print the
``@reproduce_failure`` blob so any shrunk failure can be replayed
exactly.  Individual tests override only ``max_examples`` when their
cost profile genuinely differs.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from repro.acsr import (
    ProcessEnv,
    action,
    idle,
    nil,
    proc,
    recv,
    restrict,
    parallel,
    send,
)

_COMMON = dict(
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)

settings.register_profile("dev", max_examples=50, **_COMMON)
settings.register_profile("ci", max_examples=100, **_COMMON)
settings.register_profile("nightly", max_examples=400, **_COMMON)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def env() -> ProcessEnv:
    return ProcessEnv()


@pytest.fixture
def simple_system(env: ProcessEnv):
    """The paper's Figure 2 'Simple' process with an idling receiver:
    Simple = {(cpu,1)} : {(cpu,1),(bus,1)} : (done!,1) . Simple
    Recv   = (done?,1) . Recv + idle : Recv
    """
    env.define(
        "Simple",
        (),
        action({"cpu": 1})
        >> action({"cpu": 1, "bus": 1})
        >> send("done", 1)
        >> proc("Simple"),
    )
    env.define(
        "Recv",
        (),
        recv("done", 1).then(proc("Recv")) + idle().then(proc("Recv")),
    )
    root = restrict(parallel(proc("Simple"), proc("Recv")), ["done"])
    return env.close(root)


def labels_of(system, term=None):
    """Formatted prioritized labels of a state (test convenience)."""
    from repro.acsr.printer import format_label

    return sorted(
        format_label(label) for label, _ in system.prioritized_steps(term)
    )


_TIMES = re.compile(r"\d+\.\d+s\b|\([\d,]+ states/s\)")


def _mask_times(text: str) -> str:
    return _TIMES.sub("<t>", text)


@pytest.fixture(scope="session")
def mask_times():
    """``mask(text)``: ``text`` with its wall-clock figures, which
    differ run to run, blanked out."""
    return _mask_times


@pytest.fixture(scope="session")
def cli_here():
    """``run(argv)``: the CLI's stdout, times masked, run in this
    process."""
    from repro.cli import main

    def run(argv) -> str:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            main([str(arg) for arg in argv])
        return _mask_times(buffer.getvalue())

    return run


#: Quietly analyze every argument but the last, then run the last one
#: (a ``;``-joined CLI argument list) and let it print.
_WARM_THEN_RUN = """
import contextlib, io, sys
from repro.cli import main
*warm, argv = sys.argv[1:]
for path in warm:
    with contextlib.redirect_stdout(io.StringIO()):
        main(["analyze", path])
main(argv.split(";"))
"""


@pytest.fixture(scope="session")
def history_models(tmp_path_factory):
    """AADL files of models whose first-deadlock search meets states in
    child order: smoke-profile oracle cases ``seed30`` ... ``seed39``
    (``seed33`` explored 160 or 156 states, and raised a different
    scenario, depending on what the process had analyzed before, when
    children were ordered by creation) and ``replicated``, an
    overloaded pair of identical processors that symmetry reduces."""
    import numpy as np

    from repro.aadl import format_model
    from repro.oracle.campaign import PROFILES, draw_case
    from repro.workloads import replicated_system

    folder = tmp_path_factory.mktemp("history")
    texts = {
        f"seed{seed}": draw_case(PROFILES["smoke"], seed, seed).aadl_text()
        for seed in range(30, 40)
    }
    texts["replicated"] = format_model(
        replicated_system(
            2, 2, utilization_per_replica=1.1, rng=np.random.default_rng(0)
        ).declarative
    )
    paths = {}
    for name, text in texts.items():
        paths[name] = folder / f"{name}.aadl"
        paths[name].write_text(text)
    return paths


@pytest.fixture(scope="session")
def fresh_cli():
    """``run(argv, warm=(), hash_seed="0")``: the CLI's stdout, times
    masked, from a new interpreter that first analyzes the ``warm``
    files quietly."""
    src = str(Path(__file__).resolve().parents[1] / "src")

    def run(argv, warm=(), hash_seed="0") -> str:
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
        done = subprocess.run(
            [
                sys.executable, "-c", _WARM_THEN_RUN,
                *map(str, warm), ";".join(map(str, argv)),
            ],
            env=env, capture_output=True, text=True, check=False,
        )
        assert not done.stderr, done.stderr
        return _mask_times(done.stdout)

    return run
