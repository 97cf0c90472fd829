"""The one scheduler-simulation kernel against a golden corpus.

``tests/data/sim_golden.json`` was recorded from the three unit-step
loops that :func:`repro.sched.simulation.run_schedule` replaced (the
plain simulator, the flattened partition run and the mode-switch
transient).  Each case stores its inputs and the old outputs, so the
comparison needs no copy of the old loops.  Regenerate the file only
on purpose::

    PYTHONPATH=src python tests/test_sim_kernel.py --write

The one recorded exception: an offset-bearing partition whose
utilization exceeds its server share ``Q/P`` has no exact finite
window.  The old loop simulated ``O_max + 2 lcm(H, P)`` and could pass
it; the horizon rule now returns None and the partition is reported
unschedulable without a run.

The Hypothesis properties pin the kernel's three inputs against each
other: a full-budget server is the plain simulator, a switch past the
window is the plain run of the old mode, and a switch from an empty
mode is the new mode shifted in time.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.hier.flatten import simulate_partition
from repro.modal.transient import check_transition, simulate_transition
from repro.sched.simulation import simulate
from repro.sched.taskmodel import PeriodicTask, TaskSet

GOLDEN = Path(__file__).parent / "data" / "sim_golden.json"
POLICIES = ("rate", "deadline", "explicit", "edf", "llf")
PERIODS = (2, 3, 4, 5, 6, 8, 10, 12)


# -- seeded cases ----------------------------------------------------------


def _draw_task(rng: random.Random, name: str, offsets: bool) -> list:
    period = rng.choice(PERIODS)
    wcet = rng.randint(1, max(1, period // rng.choice((1, 2, 3))))
    deadline = rng.randint(wcet, period)
    offset = rng.randrange(period) if offsets else 0
    return [name, wcet, period, deadline, rng.randint(1, 9), offset]


def _draw_tasks(rng, names, offsets):
    return [_draw_task(rng, name, offsets) for name in names]


def _tasks(rows) -> list:
    return [
        PeriodicTask(n, c, t, deadline=d, priority=p, offset=o)
        for n, c, t, d, p, o in rows
    ]


def draw_cases(seed: int = 2006, per_entry: int = 320) -> dict:
    """Inputs for every entry point, ``per_entry`` cases each, cycling
    through the policies and alternating offsets."""
    rng = random.Random(seed)
    cases = {"simulate": [], "partition": [], "transition": [], "check": []}
    for i in range(per_entry):
        policy = POLICIES[i % len(POLICIES)]
        offsets = (i // len(POLICIES)) % 2 == 1
        n = rng.randint(1, 4)
        cases["simulate"].append(
            {
                "tasks": _draw_tasks(rng, "abcd"[:n], offsets),
                "policy": policy,
                "horizon": rng.choice((None, None, rng.randint(1, 60))),
                "stop": rng.random() < 0.3,
            }
        )
        period = rng.randint(2, 7)
        cases["partition"].append(
            {
                "tasks": _draw_tasks(rng, "abc"[: rng.randint(1, 3)], offsets),
                "policy": policy,
                "server": [period, rng.randint(1, period)],
                "max_window": rng.choice((1 << 20, 1 << 20, 100)),
            }
        )
        old = _draw_tasks(rng, "abc"[: rng.randint(0, 3)], offsets)
        # "b" and "c" may continue into the new mode under new
        # parameters; "x"/"y" are new-mode only.
        new_names = rng.sample("bcxy", rng.randint(0 if old else 1, 3))
        new = _draw_tasks(rng, sorted(new_names), rng.random() < 0.5)
        old_hyper = TaskSet(_tasks(old)).hyperperiod if old else 1
        switch = rng.randrange(old_hyper)
        cases["transition"].append(
            {
                "old": old,
                "new": new,
                "policy": policy,
                "switch": switch,
                "window": switch + rng.randint(1, 60),
            }
        )
        # A thread continuing across a real mode switch keeps its
        # parameters (the union check rejects conflicting ones).
        check_old = _draw_tasks(rng, "abc"[: rng.randint(0, 3)], offsets)
        check_new = [row for row in check_old if rng.random() < 0.3]
        check_new += _draw_tasks(
            rng,
            "xy"[: rng.randint(0 if check_old else 1, 2)],
            rng.random() < 0.5,
        )
        cases["check"].append(
            {
                "old": check_old,
                "new": check_new,
                "policy": policy,
                "max_phasings": rng.choice((512, 512, 6)),
                "max_window": rng.choice((1 << 15, 1 << 15, 40)),
                "fault": rng.choice(
                    (None, None, None, "shrink-transient-window")
                ),
            }
        )
    return cases


# -- the public entry points, recorded field by field ----------------------


def run_simulate(case) -> dict:
    result = simulate(
        TaskSet(_tasks(case["tasks"])),
        policy=case["policy"],
        horizon=case["horizon"],
        stop_at_first_miss=case["stop"],
    )
    return {
        "horizon": result.horizon,
        "schedule": "".join(slot or "." for slot in result.schedule),
        "misses": [list(miss) for miss in result.misses],
        "response_times": result.response_times,
    }


def run_partition(case) -> dict:
    period, budget = case["server"]
    run = simulate_partition(
        TaskSet(_tasks(case["tasks"])),
        period,
        budget,
        policy=case["policy"],
        max_window=case["max_window"],
    )
    return {
        "horizon": run.horizon,
        "misses": [list(miss) for miss in run.misses],
        "schedulable": run.schedulable,
        "supply_slots": run.supply_slots,
    }


def run_transition(case) -> dict:
    ok, detail = simulate_transition(
        _tasks(case["old"]),
        _tasks(case["new"]),
        switch=case["switch"],
        policy=case["policy"],
        window=case["window"],
    )
    return {"ok": ok, "detail": detail}


def _check_kwargs(policy: str) -> dict:
    if policy == "edf":
        return {"edf": True, "policy": "edf"}
    if policy == "llf":
        return {"policy": "llf"}
    return {"ordering": policy, "policy": policy}


def run_check(case) -> dict:
    check = check_transition(
        _tasks(case["old"]),
        _tasks(case["new"]),
        max_phasings=case["max_phasings"],
        max_window=case["max_window"],
        fault=case["fault"],
        **_check_kwargs(case["policy"]),
    )
    return {
        "schedulable": check.schedulable,
        "decided_by": check.decided_by,
        "detail": check.detail,
        "escalated": check.escalated,
    }


RUNNERS = {
    "simulate": run_simulate,
    "partition": run_partition,
    "transition": run_transition,
    "check": run_check,
}


def write_golden() -> None:
    cases = draw_cases()
    golden = {
        entry: [
            {"input": case, "output": RUNNERS[entry](case)}
            for case in entry_cases
        ]
        for entry, entry_cases in cases.items()
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, separators=(",", ":")) + "\n")


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _over_share(rows, share: Fraction) -> bool:
    """Offsets and U > share: the one case without an exact window."""
    utilization = sum((Fraction(r[1], r[2]) for r in rows), Fraction(0))
    return any(r[5] for r in rows) and utilization > share


def test_golden_covers_every_policy_with_and_without_offsets():
    golden = _golden()
    for entry, cases in golden.items():
        assert len(cases) >= 300, entry
        assert {c["input"]["policy"] for c in cases} == set(POLICIES)
    offsets = [
        any(row[5] for row in c["input"]["tasks"])
        for c in golden["simulate"]
    ]
    assert any(offsets) and not all(offsets)
    assert {c["input"]["fault"] for c in golden["check"]} == {
        None,
        "shrink-transient-window",
    }


def test_inputs_are_the_seeded_draw():
    cases = draw_cases()
    for entry, golden_cases in _golden().items():
        assert [c["input"] for c in golden_cases] == cases[entry]


@pytest.mark.parametrize("entry", ["simulate", "transition"])
def test_kernel_matches_golden(entry):
    for index, case in enumerate(_golden()[entry]):
        assert RUNNERS[entry](case["input"]) == case["output"], index


def test_partition_matches_golden():
    for index, case in enumerate(_golden()["partition"]):
        got = run_partition(case["input"])
        period, budget = case["input"]["server"]
        if _over_share(case["input"]["tasks"], Fraction(budget, period)):
            assert got == {
                "horizon": 0,
                "misses": [],
                "schedulable": False,
                "supply_slots": 0,
            }, index
            # This corpus holds no false pass of the old window; the
            # regression case is in tests/test_hier.py.
            assert case["output"]["schedulable"] is not True, index
        else:
            assert got == case["output"], index


def test_check_transition_matches_golden():
    for index, case in enumerate(_golden()["check"]):
        got = run_check(case["input"])
        expected = case["output"]
        if got != expected:
            # Only an over-utilized offset-bearing new mode may differ:
            # it is now unschedulable, where the old window guessed.
            assert _over_share(case["input"]["new"], Fraction(1)), index
            assert got["schedulable"] is False, index
            assert "backlog grows without bound" in got["detail"], index


# -- the kernel's inputs against each other --------------------------------


@st.composite
def task_rows(draw, names="abc", *, min_size=1):
    chosen = draw(
        st.lists(
            st.sampled_from(names), min_size=min_size, unique=True
        )
    )
    rows = []
    for name in sorted(chosen):
        period = draw(st.sampled_from(PERIODS))
        wcet = draw(st.integers(1, period))
        deadline = draw(st.integers(wcet, period))
        priority = draw(st.integers(1, 9))
        offset = draw(st.integers(0, period - 1))
        rows.append([name, wcet, period, deadline, priority, offset])
    return rows


@given(
    rows=task_rows(),
    policy=st.sampled_from(POLICIES),
    period=st.integers(1, 7),
    max_window=st.sampled_from((1 << 20, 50)),
)
def test_full_budget_server_is_the_plain_simulator(
    rows, policy, period, max_window
):
    tasks = TaskSet(_tasks(rows))
    run = simulate_partition(
        tasks, period, period, policy=policy, max_window=max_window
    )
    if _over_share(rows, Fraction(1)):
        assert run.schedulable is False and run.horizon == 0
        return
    if run.schedulable is None:
        assert run.horizon > max_window
        return
    plain = simulate(tasks, policy=policy, horizon=run.horizon)
    assert run.misses == plain.misses
    assert run.supply_slots == run.horizon


@given(
    old=task_rows("abc"),
    new=task_rows("bxy", min_size=0),
    policy=st.sampled_from(POLICIES),
    window=st.integers(1, 60),
    late=st.integers(0, 10),
)
def test_switch_past_the_window_is_the_old_mode(
    old, new, policy, window, late
):
    ok, detail = simulate_transition(
        _tasks(old),
        _tasks(new),
        switch=window + late,
        policy=policy,
        window=window,
    )
    plain = simulate(
        TaskSet(_tasks(old)),
        policy=policy,
        horizon=window,
        stop_at_first_miss=True,
    )
    assert ok == plain.schedulable
    if not ok:
        name, time = plain.misses[0]
        switch = window + late
        assert detail == f"{name} misses at t={time} (switch at t={switch})"


@given(
    new=task_rows("xyz"),
    policy=st.sampled_from(POLICIES),
    window=st.integers(1, 60),
    switch=st.integers(0, 30),
)
def test_switch_from_an_empty_mode_shifts_the_new_one(
    new, policy, window, switch
):
    ok, detail = simulate_transition(
        [],
        _tasks(new),
        switch=switch,
        policy=policy,
        window=switch + window,
    )
    plain = simulate(
        TaskSet(_tasks(new)),
        policy=policy,
        horizon=window,
        stop_at_first_miss=True,
    )
    assert ok == plain.schedulable
    if not ok:
        name, time = plain.misses[0]
        shifted = time + switch
        assert detail == f"{name} misses at t={shifted} (switch at t={switch})"


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write_golden()
    else:
        sys.exit("usage: test_sim_kernel.py --write")
