"""One round of one workload, in a fresh interpreter (``run.py`` starts it).

Usage::

    python benchmarks/e2e/one_round.py --workload NAME --seed N
        (--seconds S | --count C) [--trace] [--reference]

The round imports the program (timed), analyzes the seed's first 3
inputs as warm-up (timed; imports plus warm-up are the round's set-up
time), then analyzes inputs 3, 4, ... (wrapping around the workload's
list) one at a time until ``--seconds`` of measuring have passed or
``--count`` inputs are done.  Each input is drawn when first needed,
outside the clock, and timed from AADL text to verdict.  The round
prints one JSON object on stdout: the hash of every input it drew,
``[index, verdict, ms]`` per measured input, set-up and memory
readings, and -- with ``--trace`` -- the per-layer records of
:class:`probes.Probe`.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

WARMUP = 3

_ROOT = Path(__file__).resolve().parents[2]


def _rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    limit = parser.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--count", type=int)
    parser.add_argument("--size", type=int, help="inputs in the list")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(_ROOT / "src"))
    import inputs
    import probes

    workload = inputs.WORKLOADS[args.workload]
    inputs.load()
    size = args.size or workload.size
    drawn = {}
    drawing = 0.0

    def item(index: int) -> "inputs.Item":
        nonlocal drawing
        if index not in drawn:
            began = time.perf_counter()
            drawn[index] = workload.draw(args.seed, index)
            drawing += time.perf_counter() - began
        return drawn[index]

    for index in range(WARMUP):
        workload.analyze(item(index))
    setup_s = time.perf_counter() - started - drawing

    probe = probes.Probe() if args.trace else None
    if probe is not None:
        probe.install()

    samples = []
    errors = []
    rss_mb = None
    drawing = 0.0
    loop_started = time.perf_counter()
    position = WARMUP
    while True:
        if args.count is not None and len(samples) >= args.count:
            break
        busy = time.perf_counter() - loop_started - drawing
        if args.seconds is not None and busy >= args.seconds:
            break
        index = position % size
        position += 1
        model = item(index)
        began = time.perf_counter()
        try:
            verdict = workload.analyze(model)
        except Exception as exc:  # reported per input, the round goes on
            verdict = "error"
            errors.append(f"input {index}: {type(exc).__name__}: {exc}")
        samples.append([index, verdict, (time.perf_counter() - began) * 1000])
        if len(samples) == workload.rss_after:
            rss_mb = _rss_mb()
    loop_s = time.perf_counter() - loop_started - drawing

    if probe is not None:
        probe.uninstall()

    from repro.obs.tracer import NullTracer, current_tracer

    if not isinstance(current_tracer(), NullTracer):
        errors.append(
            f"the in-program tracer was left as {current_tracer()!r}"
        )

    mismatches = []
    if args.reference:
        seen = {}
        for index, verdict, _ in samples:
            seen.setdefault(index, verdict)
        for index in sorted(seen):
            expected = workload.reference(drawn[index])
            if expected is not None and seen[index] != expected:
                mismatches.append([index, expected, seen[index]])

    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "hashes": {i: model.sha256 for i, model in drawn.items()},
                "samples": samples,
                "errors": errors,
                "mismatches": mismatches,
                "setup_s": setup_s,
                "loop_s": loop_s,
                "rss_mb": rss_mb if rss_mb is not None else _rss_mb(),
                "layers": probe.snapshot() if probe is not None else None,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
