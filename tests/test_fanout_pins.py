"""What the fan-out layers print and what jobs they ship, pinned.

``tests/data/fanout_pins.json`` holds, for one ``analyze`` command per
fan-out path (compose with and without its monolithic fallback, the
per-mode fan-out over compose and hier), the CLI's stdout with timings
masked, its exit code, and the ``to_dict()`` of every job
:func:`repro.batch.run_batch` received during the run, nested fan-outs
included.  A job's dict is its verdict-cache key material, so a change
here splits the cache.  Regenerate the file only on purpose::

    PYTHONPATH=src python tests/test_fanout_pins.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "data" / "fanout_pins.json"

CASES = {
    "compose-coupled-fallback": ["coupled_islands.aadl", "--compose"],
    "compose-partitioned-fallback": ["arinc653.aadl", "--compose"],
    "compose-islands": ["dual_island.aadl", "--compose"],
    "all-modes-compose": ["fault_recovery.aadl", "--all-modes", "--compose"],
    "all-modes-hier": ["fault_recovery.aadl", "--all-modes", "--hier"],
}


def _capture(argv, patch):
    """``(stdout, exit code, job dicts)`` of ``repro analyze argv``;
    ``patch(module, name, value)`` rebinds a module global."""
    import repro.batch.pool
    import repro.compose
    import repro.modal
    from repro.cli import main

    original = repro.batch.pool.run_batch
    jobs = []

    def recording(batch, **kwargs):
        jobs.extend(job.to_dict() for job in batch)
        return original(batch, **kwargs)

    # ``from repro.batch.pool import run_batch`` copies the binding, so
    # every loaded module holding the original gets the recording
    # wrapper (the fan-out layers are imported above for that).
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(
            module, "run_batch", None
        ) is original:
            patch(module, "run_batch", recording)
    argv = ["analyze", str(ROOT / "examples" / argv[0]), *argv[1:]]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(
        io.StringIO()
    ):
        code = main(argv)
    return buffer.getvalue(), code, jobs


@pytest.mark.parametrize("case", sorted(CASES))
def test_fanout_matches_pin(case, monkeypatch, mask_times):
    golden = json.loads(GOLDEN.read_text())[case]
    stdout, code, jobs = _capture(CASES[case], monkeypatch.setattr)
    assert mask_times(stdout) == golden["stdout"]
    assert code == golden["exit"]
    assert jobs == golden["jobs"]


def _write() -> None:
    from conftest import _mask_times

    restore = []

    def patch(module, name, value):
        restore.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    record = {}
    for case, argv in sorted(CASES.items()):
        stdout, code, jobs = _capture(argv, patch)
        for module, name, value in reversed(restore):
            setattr(module, name, value)
        restore.clear()
        record[case] = {
            "stdout": _mask_times(stdout), "exit": code, "jobs": jobs,
        }
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        sys.path.insert(0, str(Path(__file__).parent))
        _write()
    else:
        sys.exit("usage: test_fanout_pins.py --write")
