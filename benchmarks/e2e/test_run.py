"""Answer-file checks and a smoke run of the benchmark.

Run: pytest benchmarks/e2e
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent


def _report(hashes, samples=()):
    return {
        "hashes": dict(enumerate(hashes)),
        "samples": [list(s) for s in samples],
        "errors": [],
        "mismatches": [],
    }


@pytest.fixture
def answers(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ANSWERS", tmp_path)

    def write(workload, seed, rows):
        with open(tmp_path / f"{workload}.{seed}.json", "w") as handle:
            json.dump(
                {"workload": workload, "seed": seed, "inputs": rows}, handle
            )

    return write


def test_changed_input_hash_is_a_hard_error(answers):
    answers("hier-partitions", 7, [["a" * 64, "schedulable"]])
    with pytest.raises(run.HarnessError, match="no longer matches"):
        run.check("hier-partitions", 7, [_report(["b" * 64])])


def test_more_inputs_than_the_answer_file_is_a_hard_error(answers):
    answers("hier-partitions", 7, [["a" * 64, "schedulable"]])
    with pytest.raises(run.HarnessError, match="no longer matches"):
        run.check("hier-partitions", 7, [_report(["a" * 64, "c" * 64])])


def test_wrong_verdict_counts_as_failed(answers):
    answers(
        "hier-partitions",
        7,
        [["a" * 64, "schedulable"], ["b" * 64, "unschedulable"]],
    )
    outcome = run.check(
        "hier-partitions",
        7,
        [
            _report(
                ["a" * 64, "b" * 64],
                [[0, "schedulable", 1.0], [1, "schedulable", 1.0]],
            )
        ],
    )
    assert outcome["attempted"] == 2
    assert outcome["failed"] == 1
    assert "answer file says unschedulable" in outcome["problems"][0]


def test_verdict_that_changes_between_rounds_counts_as_failed(answers):
    outcome = run.check(
        "hier-partitions",
        8,  # no answer file: only consistency and the reference apply
        [
            _report(["a" * 64], [[0, "schedulable", 1.0]]),
            _report(["a" * 64], [[0, "unschedulable", 1.0]]),
        ],
    )
    assert outcome["failed"] == 2


def test_quick_run_is_correct_and_fast():
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick"],
        cwd=HERE.parents[1],
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert set(result["workloads"]) == set(run.inputs.WORKLOADS)
    assert elapsed < 60
