"""Seeded end-to-end benchmark of the AADL schedulability pipeline.

Run from the repository root::

    python benchmarks/e2e/run.py                      # every workload
    python benchmarks/e2e/run.py --workload hier-partitions --seed 653
    python benchmarks/e2e/run.py --trace              # per-layer numbers
    python benchmarks/e2e/run.py --quick              # smoke run
    python benchmarks/e2e/run.py --out parent.json    # append the run
    python benchmarks/e2e/run.py compare parent.json change.json
    python benchmarks/e2e/run.py write-answers

Each workload is a closed loop with one caller: the next model is
submitted only after the previous verdict.  A run has 3 rounds; in each
round every workload runs once, in its own fresh interpreter
(``one_round.py``), one process at a time, and the workload order
rotates from round to round.  Every metric is printed by name with its
unit, and the last line of standard output is one JSON object.  The
run exits non-zero when a verdict is wrong (against the answer file of
the seed, or else against an independent reference) and, without a
result, when the inputs no longer hash to the answer file's.

The metric names, units and bounds live in ``BENCHMARK.json`` at the
repository root; see ``benchmarks/e2e/README.md`` for what each one
means and which workload it is meant to move on.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import inputs
import one_round
import probes
import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
ANSWERS = HERE / "answers"

ROUNDS = 3
#: untraced/traced round pairs of a --trace run
TRACE_PAIRS = 2
DEFAULT_SEED = 2006
HELD_OUT_SEED = 653
QUICK_SHARE = 0.05
#: a run (one workload) must end within 180 s; leave room to report
RUN_DEADLINE_S = 170.0


class HarnessError(Exception):
    """The benchmark cannot produce a trustworthy result at all."""


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def answer_path(workload: str, seed: int) -> Path:
    return ANSWERS / f"{workload}.{seed}.json"


def load_answers(workload: str, seed: int) -> Optional[List[list]]:
    """``[[sha256, verdict], ...]`` of the seed's answer file, if any."""
    path = answer_path(workload, seed)
    if not path.exists():
        return None
    with open(path) as handle:
        return json.load(handle)["inputs"]


# -- rounds ---------------------------------------------------------------


def run_round(
    workload: str,
    seed: int,
    *,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    size: Optional[int] = None,
    trace: bool = False,
    reference: bool = False,
    hash_seed: int = 0,
    deadline: Optional[float] = None,
) -> dict:
    """Run one round in a fresh interpreter and return its report."""
    command = [
        sys.executable,
        str(HERE / "one_round.py"),
        "--workload", workload,
        "--seed", str(seed),
    ]
    command += ["--seconds", str(seconds)] if count is None else [
        "--count", str(count)
    ]
    if size is not None:
        command += ["--size", str(size)]
    if trace:
        command.append("--trace")
    if reference:
        command.append("--reference")
    # A fixed hash seed per (seed, round) keeps dict and set layouts the
    # same on both commits of a comparison while still varying them
    # across rounds.
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed % 2**32))
    timeout = None
    if deadline is not None:
        timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(
            command,
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            timeout=timeout,
            text=True,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(
            f"{workload}: round did not finish within {timeout:.0f} s"
        ) from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise HarnessError(
            f"{workload}: round exited with code {done.returncode}"
        )
    report = json.loads(lines[-1])
    report["hashes"] = {int(i): h for i, h in report["hashes"].items()}
    return report


def measure(
    names: List[str],
    seed: int,
    *,
    seconds: float,
    quick: bool,
    deadline: Optional[float],
) -> Dict[str, List[dict]]:
    """The rounds of every workload, with the order rotating per round.
    ``seconds`` is each workload's measured time over all rounds."""
    rounds: Dict[str, List[dict]] = {name: [] for name in names}
    for r in range(1 if quick else ROUNDS):
        for name in names[r % len(names):] + names[: r % len(names)]:
            reference = load_answers(name, seed) is None
            if quick:
                size = max(
                    one_round.WARMUP + 2,
                    math.ceil(inputs.WORKLOADS[name].size * QUICK_SHARE),
                )
                report = run_round(
                    name, seed, count=size, size=size, reference=reference,
                    hash_seed=seed, deadline=deadline,
                )
            else:
                report = run_round(
                    name, seed, seconds=seconds / ROUNDS,
                    reference=reference, hash_seed=seed * ROUNDS + r,
                    deadline=deadline,
                )
            rounds[name].append(report)
    return rounds


# -- checks and metrics ---------------------------------------------------


def check(name: str, seed: int, reports: List[dict]) -> Dict[str, object]:
    """Check the rounds' outputs; returns attempted/failed counts and
    the problems found.  Raises :class:`HarnessError` on input drift."""
    hashes: Dict[int, str] = {}
    for report in reports:
        for index, sha in report["hashes"].items():
            if hashes.setdefault(index, sha) != sha:
                raise HarnessError(f"{name}: rounds drew different inputs")
    answers = load_answers(name, seed)
    if answers is not None:
        for index in sorted(hashes):
            if index >= len(answers) or answers[index][0] != hashes[index]:
                raise HarnessError(
                    f"{name}: input {index} of seed {seed} no longer "
                    f"matches answers/{answer_path(name, seed).name}: "
                    f"the generators or the AADL printer changed the "
                    f"benchmark's inputs"
                )

    problems: List[str] = []
    bad = set()
    verdicts: Dict[int, str] = {}
    for report in reports:
        problems += report["errors"]
        for index, expected, got in report["mismatches"]:
            bad.add(index)
            problems.append(
                f"input {index}: {got}, the independent reference says "
                f"{expected}"
            )
        for index, verdict, _ in report["samples"]:
            if verdicts.setdefault(index, verdict) != verdict:
                bad.add(index)
                problems.append(
                    f"input {index}: {verdict} here, {verdicts[index]} "
                    f"in another run"
                )
            if answers is not None and verdict != answers[index][1]:
                bad.add(index)
                problems.append(
                    f"input {index}: {verdict}, the answer file says "
                    f"{answers[index][1]}"
                )
    samples = [s for report in reports for s in report["samples"]]
    failed = sum(1 for index, verdict, _ in samples
                 if verdict == "error" or index in bad)
    return {
        "attempted": len(samples),
        "failed": failed,
        "problems": problems,
        "pinned_decided_share": (
            sum(v != inputs.UNKNOWN for _, v in answers) / len(answers)
            if answers is not None else None
        ),
    }


def end_to_end(reports: List[dict]) -> Dict[str, float]:
    """Every end-to-end metric of one workload's rounds."""
    times = list(
        summary.per_input_ms([r["samples"] for r in reports]).values()
    )
    samples = [s for report in reports for s in report["samples"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "verdict_p50_ms": summary.percentile(times, 50),
        "verdict_p90_ms": summary.percentile(times, 90),
        "verdicts_per_s": 1000 * len(times) / sum(times),
        "decided_share": sum(
            verdict not in (inputs.UNKNOWN, "error")
            for _, verdict, _ in samples
        ) / len(samples),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reports),
    }


def per_layer(untraced: List[dict], traced: List[dict]) -> Dict[str, float]:
    """Per-layer metrics of the traced rounds, with the tracing overhead
    measured against the untraced rounds over the same inputs."""
    layers = probes.merge([r["layers"] for r in traced])
    metrics = probes.layer_metrics(
        layers, sum(len(r["samples"]) for r in traced)
    )
    plain = summary.per_input_ms([r["samples"] for r in untraced])
    timed = summary.per_input_ms([r["samples"] for r in traced])
    common = set(plain) & set(timed)
    metrics["trace_overhead"] = (
        sum(timed[i] for i in common) / sum(plain[i] for i in common) - 1
    )
    return metrics


# -- reporting ------------------------------------------------------------


def _emit(declared: List[dict], values: Dict[str, float]) -> Dict[str, dict]:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise HarnessError(f"metrics declared but not measured: {missing}")
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }


def _print_table(title: str, metrics: Dict[str, dict]) -> None:
    print(title)
    for name, metric in metrics.items():
        print(f"  {name:<52} {metric['value']:>14.6g} {metric['unit']}")


def _print_shares(traced: List[dict]) -> None:
    """Each wrapped function's share of the traced verdict time."""
    total_ms = sum(ms for r in traced for _, _, ms in r["samples"])
    layers = probes.merge([r["layers"] for r in traced])
    print("  self-time share of verdict time:")
    for name, data in sorted(
        layers.items(), key=lambda kv: kv[1]["self_s"], reverse=True
    ):
        if data["calls"]:
            share = 100 * data["self_s"] * 1000 / total_ms
            print(f"    {name:<50} {share:6.1f} %")


def run_benchmark(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        raise HarnessError(
            f"no program to measure: {ROOT / 'src' / 'repro'} is missing"
        )
    spec = benchmark_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [args.workload] if args.workload else list(inputs.WORKLOADS)
    unknown = [n for n in names if n not in inputs.WORKLOADS]
    if unknown:
        raise HarnessError(
            f"unknown workload {unknown[0]!r}; choose from "
            f"{list(inputs.WORKLOADS)}"
        )
    deadline = time.monotonic() + RUN_DEADLINE_S * len(names)
    results: Dict[str, dict] = {}
    if args.trace:
        for name in names:
            # Untraced and traced rounds alternate, so that both kinds
            # see the same drift in machine speed.
            untraced, traced = [], []
            reference = load_answers(name, args.seed) is None
            for r in range(2 * TRACE_PAIRS):
                (traced if r % 2 else untraced).append(
                    run_round(
                        name, args.seed,
                        seconds=args.seconds / (2 * TRACE_PAIRS),
                        trace=bool(r % 2), reference=reference,
                        hash_seed=args.seed + r // 2, deadline=deadline,
                    )
                )
            outcome = check(name, args.seed, untraced + traced)
            metrics = _emit(spec["per_layer"], per_layer(untraced, traced))
            _print_table(
                f"{name} (seed {args.seed}, {TRACE_PAIRS} traced round(s), "
                f"{sum(len(r['samples']) for r in traced)} inputs)",
                metrics,
            )
            _print_shares(traced)
            results[name] = dict(outcome, metrics=metrics)
    else:
        rounds = measure(
            names, args.seed, seconds=args.seconds, quick=args.quick,
            deadline=deadline,
        )
        for name in names:
            outcome = check(name, args.seed, rounds[name])
            metrics = _emit(spec["end_to_end"], end_to_end(rounds[name]))
            timed = len(
                summary.per_input_ms([r["samples"] for r in rounds[name]])
            )
            tail = summary.tail_percentile(timed)
            pinned = outcome["pinned_decided_share"]
            _print_table(
                f"{name} (seed {args.seed}, {len(rounds[name])} round(s), "
                f"{outcome['attempted']} verdicts, {timed} timed inputs; "
                f"highest percentile with {summary.TAIL_SAMPLES}+ of them "
                f"beyond it: {'none' if tail is None else f'p{tail:g}'}"
                + ("" if pinned is None else f"; pinned decided share "
                   f"{pinned:.4f}")
                + ")",
                metrics,
            )
            if tail is None or tail < 90:
                print(
                    f"  note: verdict_p90_ms rests on fewer than "
                    f"{summary.TAIL_SAMPLES} inputs beyond it"
                )
            results[name] = dict(outcome, metrics=metrics)

    problems = [
        f"{name}: {problem}"
        for name, result in results.items()
        for problem in result["problems"]
    ]
    for problem in problems[:20]:
        print(f"WRONG {problem}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0 and not problems
    if args.out:
        _append_run(args.out, args, results)
    final = {"correct": correct, "attempted": attempted, "failed": failed}
    if args.workload:
        final["metrics"] = results[args.workload]["metrics"]
    else:
        final["workloads"] = {
            name: result["metrics"] for name, result in results.items()
        }
    print(json.dumps(final))
    return 0 if correct else 1


def _append_run(path: str, args, results: Dict[str, dict]) -> None:
    runs = []
    if os.path.exists(path):
        with open(path) as handle:
            runs = json.load(handle)["runs"]
    runs.append(
        {
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "workloads": {
                name: {
                    metric: value["value"]
                    for metric, value in result["metrics"].items()
                }
                for name, result in results.items()
            },
        }
    )
    with open(path, "w") as handle:
        json.dump({"runs": runs}, handle, indent=1)


# -- compare --------------------------------------------------------------


def compare(parent_path: str, change_path: str) -> int:
    """One row per workload: each gated metric ok, worse or unresolved."""
    spec = benchmark_spec()

    def values(path: str) -> Dict[str, Dict[str, List[float]]]:
        with open(path) as handle:
            runs = json.load(handle)["runs"]
        table: Dict[str, Dict[str, List[float]]] = {}
        for run in runs:
            if run.get("trace"):
                continue
            for name, metrics in run["workloads"].items():
                for metric, value in metrics.items():
                    table.setdefault(name, {}).setdefault(metric, []).append(
                        value
                    )
        return table

    parent, change = values(parent_path), values(change_path)
    worse = False
    for name in [n for n in inputs.WORKLOADS if n in parent and n in change]:
        cells = []
        for metric in spec["end_to_end"]:
            a = parent[name].get(metric["name"])
            b = change[name].get(metric["name"])
            if not a or not b:
                continue
            status = summary.classify(
                a, b, better=metric["better"], bound=metric["bound"]
            )
            worse |= status == "worse"
            delta = statistics.median(b) / statistics.median(a) - 1
            cells.append(f"{metric['name']}={status}({delta:+.1%})")
        runs = len(next(iter(parent[name].values())))
        print(f"{name} [{runs} vs {len(next(iter(change[name].values())))} "
              f"runs]: " + "  ".join(cells))
    return 1 if worse else 0


# -- answer files ---------------------------------------------------------


def write_answers(seeds: List[int]) -> int:
    """Analyze every input of each seed once and pin its verdict and
    hash.  Every verdict must agree with the independent reference."""
    ANSWERS.mkdir(exist_ok=True)
    for name, workload in inputs.WORKLOADS.items():
        for seed in seeds:
            report = run_round(
                name, seed, count=workload.size, reference=True,
                hash_seed=seed,
            )
            if report["errors"] or report["mismatches"]:
                raise HarnessError(
                    f"{name} seed {seed}: "
                    f"{(report['errors'] + report['mismatches'])[:3]}"
                )
            verdicts = {index: v for index, v, _ in report["samples"]}
            rows = [
                json.dumps([report["hashes"][index], verdicts[index]])
                for index in range(workload.size)
            ]
            header = json.dumps({"workload": name, "seed": seed})[:-1]
            with open(answer_path(name, seed), "w") as handle:
                handle.write(
                    header + ', "inputs": [\n' + ",\n".join(rows) + "\n]}\n"
                )
            decided = sum(v != inputs.UNKNOWN for v in verdicts.values())
            print(f"{name} seed {seed}: {len(rows)} inputs, "
                  f"{decided / len(rows):.4f} decided")
    return 0


# -- command line ---------------------------------------------------------


def _terminate(signum, frame) -> None:
    # Unwinding through subprocess.run kills and reaps the running round.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    signal.signal(signal.SIGTERM, _terminate)
    try:
        if argv[:1] == ["compare"]:
            parser = argparse.ArgumentParser(prog="run.py compare")
            parser.add_argument("parent")
            parser.add_argument("change")
            args = parser.parse_args(argv[1:])
            return compare(args.parent, args.change)
        if argv[:1] == ["write-answers"]:
            parser = argparse.ArgumentParser(prog="run.py write-answers")
            parser.add_argument(
                "--seed", type=int, action="append",
                help=f"default: {DEFAULT_SEED} and {HELD_OUT_SEED}",
            )
            args = parser.parse_args(argv[1:])
            return write_answers(args.seed or [DEFAULT_SEED, HELD_OUT_SEED])

        parser = argparse.ArgumentParser(
            description=__doc__.splitlines()[0]
        )
        parser.add_argument("--workload", help="default: every workload")
        parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
        parser.add_argument(
            "--seconds", type=float,
            help="measured seconds per workload, over all rounds "
            "(default: run_seconds of BENCHMARK.json)",
        )
        parser.add_argument(
            "--trace", type=int, nargs="?", const=1, default=0,
            choices=(0, 1),
            help="report per-layer metrics from one traced round",
        )
        parser.add_argument(
            "--quick", action="store_true",
            help="1 round over 5%% of the inputs, each analyzed once",
        )
        parser.add_argument("--out", help="append this run to a JSON file")
        return run_benchmark(parser.parse_args(argv))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
