"""Command-line interface: the OSATE-plugin workflow without Eclipse.

The paper's tool runs as three steps behind a button (S5): translate the
AADL model to VERSA input, run the deadlock search, raise the failing
scenario.  The CLI exposes each step plus the baselines::

    repro analyze model.aadl --root Sys.impl        # full pipeline
    repro analyze a.aadl b.aadl --jobs 4 --cache    # parallel batch
    repro analyze model.aadl --root Sys.impl --all-modes
    repro analyze model.aadl --modal --protocol asynchronous
    repro oracle modal --seeds 50                   # transient soundness
    repro validate model.aadl --root Sys.impl       # S4.1 checks only
    repro translate model.aadl --root Sys.impl      # emit ACSR source
    repro acsr system.acsr                          # explore raw ACSR
    repro simulate model.aadl --root Sys.impl       # Cheddar-style Gantt
    repro batch run models/*.aadl --jobs 4 --cache  # pooled + cached
    repro batch cache                               # inspect the cache
    repro analyze model.aadl --compose              # island decomposition
    repro compose plan model.aadl                   # partition, no analysis
    repro oracle run --seeds 200 --profile smoke    # differential campaign
    repro analyze model.aadl --no-reduce            # unreduced exploration
    repro oracle request --seeds 60 --jobs 2        # layered =? plain, pooled
    repro oracle replay artifacts/oracle/x.json     # re-run a repro bundle
    repro analyze model.aadl --trace out.jsonl      # record a span trace
    repro trace summary out.jsonl                   # per-stage profile

``--trace [PATH]`` records a structured span trace of the whole
pipeline (JSONL under ``artifacts/traces/`` by default) and
``--profile`` prints the per-stage summary table after the run; both
are available on ``analyze``, ``acsr``, ``batch run`` and every
``oracle`` campaign verb (there as ``--span-profile``, since
``--profile`` names the ``run`` campaign's envelope).  See
docs/observability.md.

Every ``oracle`` campaign verb is one record of
:data:`repro.oracle.relations.RELATIONS`, built by one loop: the
shared flags ``--seeds --base-seed --progress --jobs --cache
--cache-dir --trace --span-profile`` plus the record's own parameters
(see docs/oracle.md).

(Equivalently: ``python -m repro ...``.)

Exit status (every verdict-producing subcommand): 0 schedulable /
valid / no deadlock, 1 violation or deadlock found, 2 usage or model
error, 3 verdict unknown (state budget exhausted before an answer).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError

#: The exit-code contract, shared by every verdict-producing
#: subcommand.  UNKNOWN is deliberately not 2: "the budget ran out" is
#: an answer about the model, not a usage error, and scripts gating on
#: analyze must be able to tell the two apart.
EXIT_SCHEDULABLE = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2
EXIT_UNKNOWN = 3

EXIT_STATUS_EPILOG = """\
exit status:
  0  schedulable / valid / no deadlock / campaign agreed
  1  unschedulable, deadlock, violation or disagreement found
  2  usage or model error
  3  verdict unknown (state budget exhausted before an answer)

State-space reduction (partial-order by default, --reduce PASSES to
choose, --no-reduce to turn it off) shrinks how many states exploration
visits, never the exit contract: a reduced run that exhausts its budget
still exits 3 (unknown) rather than reading the covered quotient space
as proof, and a deadlock found in the reduced space is raised from an
unreduced search, so the failing scenario is the one --no-reduce prints.
"""


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _quantum(args):
    from repro.aadl.properties import TimeValue

    if args.quantum is None:
        return None
    return TimeValue(args.quantum, "us")


def _load_instance(args):
    from repro.aadl import infer_root, instantiate, parse_model

    model = parse_model(_read(args.file))
    if args.root is None:
        args.root = infer_root(model)
    return model, instantiate(model, args.root)


def _cache_spec(args):
    """--cache-dir wins; --cache means the default directory; else off."""
    if getattr(args, "cache_dir", None):
        return args.cache_dir
    return True if getattr(args, "cache", False) else None


def _default_trace_path(command: str) -> str:
    import os
    import time

    from repro.obs.tracer import DEFAULT_TRACES_DIR

    stamp = time.strftime("%Y%m%d-%H%M%S")
    return os.path.join(
        DEFAULT_TRACES_DIR, f"{command}-{stamp}-{os.getpid()}.jsonl"
    )


def _dispatch(args) -> int:
    """Run the selected subcommand, wrapped in a recording tracer when
    ``--trace``/``--profile`` ask for one (otherwise the no-op tracer
    stays installed and tracing costs nothing)."""
    trace_arg = getattr(args, "trace", None)
    profiling = getattr(args, "span_profile", False)
    if trace_arg is None and not profiling:
        return args.func(args)

    from repro.obs import Tracer, activate, summarize

    tracer = Tracer()
    with activate(tracer):
        status = args.func(args)
    if trace_arg is not None:
        path = trace_arg or _default_trace_path(args.command)
        tracer.write_jsonl(path)
        print(
            f"wrote trace ({len(tracer.spans)} spans) to {path}",
            file=sys.stderr,
        )
    if profiling:
        print(summarize(tracer.records()).format(), file=sys.stderr)
    return status


#: The analysis flags as ``(args attribute, flag)``; the first four
#: pick a layer.
ANALYSIS_FLAGS = (
    ("modal", "--modal"),
    ("all_modes", "--all-modes"),
    ("compose", "--compose"),
    ("hier", "--hier"),
    ("portfolio", "--portfolio"),
    ("reduce", "--reduce"),
    ("protocol", "--protocol"),
    ("max_window", "--max-window"),
    ("max_phasings", "--max-phasings"),
)


def _request_fields(args) -> dict:
    """The :class:`~repro.analysis.request.AnalysisRequest` fields the
    analysis flags spell out (everything but the source)."""
    from repro.analysis.request import DEFAULT_TIERS

    flag = lambda name: getattr(args, name, None)  # noqa: E731
    if flag("compose") and flag("hier"):
        raise ReproError(
            "--compose and --hier are alternative decompositions; pick one"
        )
    modes = "modal" if args.modal else "all" if flag("all_modes") else None
    decomposition = (
        "compose" if flag("compose") else "hier" if flag("hier") else None
    )
    return dict(
        root=args.root,
        modes=modes,
        protocol=args.protocol,
        quantum_ps=None if args.quantum is None else args.quantum * 1_000_000,
        max_states=args.max_states,
        decomposition=decomposition,
        tiers=DEFAULT_TIERS if args.portfolio else None,
        reduce=args.reduce,
        max_window=flag("max_window"),
        max_phasings=flag("max_phasings"),
    )


def _flags(args, count: int = len(ANALYSIS_FLAGS)) -> str:
    """The flags among the first ``count`` analysis flags that the
    command line sets away from their defaults."""
    from repro.engine.reduce import DEFAULT_REDUCTION

    unset = (None, False, "synchronous", DEFAULT_REDUCTION)
    flags = []
    for name, flag in ANALYSIS_FLAGS[:count]:
        value = getattr(args, name, None)
        if value not in unset:
            flags.append("--no-reduce" if value == "none" else flag)
    return " ".join(flags)


def _run_file_batch(args, paths: List[str]) -> int:
    """Shared by ``analyze <files...>`` and ``batch run``: fan the
    inputs across the worker pool and honour the batch exit contract."""
    from repro.batch import AnalysisJob, run_batch

    fields = _request_fields(args)
    report = run_batch(
        [AnalysisJob.from_file(path, **fields) for path in paths],
        workers=args.jobs,
        cache=_cache_spec(args),
    )
    print(report.format(show_stats=args.stats))
    return report.exit_code()


def cmd_analyze(args) -> int:
    """One request through the :func:`repro.analysis.request.analyze`
    planner, or -- for several files or a verdict cache without a layer
    flag -- one batch job per file."""
    from repro.analysis import Verdict, compare_with_baselines
    from repro.analysis.request import AnalysisRequest, analyze
    from repro.errors import RequestError

    layers = _flags(args, 4)
    if not layers and (len(args.files) > 1 or _cache_spec(args) is not None):
        return _run_file_batch(args, args.files)
    if len(args.files) != 1:
        raise ReproError(f"{layers} analyzes exactly one model at a time")
    try:
        request = AnalysisRequest(
            source=_read(args.files[0]), **_request_fields(args)
        )
    except RequestError as exc:
        raise ReproError(f"{_flags(args)}: {exc}") from None
    result = analyze(request, workers=args.jobs, cache=_cache_spec(args))
    single = request.modes is None
    compose = request.decomposition == "compose"
    if compose and single and not result.compositional:
        print(
            f"compose: monolithic fallback: {result.fallback_reason}",
            file=sys.stderr,
        )
    print(result.format(show_stats=args.stats))
    if request.decomposition == "hier" and single:
        for line in result.tier_trail:
            print(line)
    if layers:
        return result.verdict.exit_code
    if args.response_times and result.verdict is Verdict.SCHEDULABLE:
        from repro.analysis.response import response_time_report

        print()
        print(
            response_time_report(
                result.translation, max_states=args.max_states
            )
        )
    if args.baselines:
        print()
        print("baselines:")
        args.file = args.files[0]
        _, instance = _load_instance(args)
        for row in compare_with_baselines(instance, max_states=args.max_states):
            print(f"  {row!r}")
    return result.verdict.exit_code


def cmd_compose_plan(args) -> int:
    from repro.compose import plan

    _, instance = _load_instance(args)
    print(plan(instance).format())
    return 0


def cmd_validate(args) -> int:
    from repro.aadl.validation import collect_violations

    _, instance = _load_instance(args)
    violations = collect_violations(instance)
    if not violations:
        print(
            f"{instance.qualified_name}: satisfies the translation "
            f"assumptions (S4.1)"
        )
        return 0
    print(f"{instance.qualified_name}: {len(violations)} violation(s):")
    for violation in violations:
        print(f"  - {violation}")
    return 1


def cmd_translate(args) -> int:
    from repro.acsr.printer import format_env
    from repro.translate import TranslationOptions, translate

    _, instance = _load_instance(args)
    result = translate(
        instance, TranslationOptions(quantum=_quantum(args))
    )
    source = format_env(result.env, result.root)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(source)
        print(
            f"wrote {len(result.env)} process definitions to {args.output} "
            f"({result.num_thread_processes} threads, "
            f"{result.num_dispatchers} dispatchers, "
            f"{result.num_queue_processes} queues)"
        )
    else:
        print(source, end="")
    return 0


def cmd_acsr(args) -> int:
    from repro.engine import Budget, ProgressObserver, explore
    from repro.acsr import parse_env
    from repro.obs.tracer import current_tracer

    with current_tracer().span("acsr.parse", file=args.file):
        env, root = parse_env(_read(args.file))
    if root is None:
        raise ReproError(f"{args.file}: no 'system' declaration")
    system = env.close(root)
    if args.walk:
        from repro.versa import random_walk

        trace = random_walk(
            system, max_steps=args.walk, seed=args.seed
        )
        print(f"walk of {len(trace)} step(s), {trace.duration} quanta:")
        print(trace.format(show_states=args.show_states))
        # The trace records whether its final state is stuck; trace
        # length alone cannot tell a deadlock at exactly --walk steps
        # from a truncated healthy run.
        if trace.deadlocked:
            print("walk ended in a deadlock")
            return EXIT_VIOLATION
        return EXIT_SCHEDULABLE
    observers = []
    if args.progress:
        observers.append(ProgressObserver(every_states=args.progress))
    result = explore(
        system,
        strategy=args.strategy,
        budget=Budget(max_states=args.max_states, on_limit="truncate"),
        store_transitions=bool(args.dot),
        stop_at_first_deadlock=not args.full and not args.dot,
        observers=observers,
    )
    print(
        f"states: {result.num_states}  transitions: "
        f"{result.num_transitions}  completed: {result.completed}"
    )
    if args.stats and result.stats is not None:
        print("engine stats:")
        for line in result.stats.format().splitlines():
            print(f"  {line}")
    if args.dot:
        from repro.versa import LTS

        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(LTS.from_exploration(result).to_dot())
        print(f"wrote DOT graph to {args.dot}")
    trace = result.first_deadlock_trace()
    if trace is None:
        if not result.completed:
            print(
                "no deadlock found within the state budget "
                "(verdict unknown)"
            )
            return EXIT_UNKNOWN
        print("no deadlock found")
        return EXIT_SCHEDULABLE
    print(f"deadlock after {trace.duration} time units:")
    print(trace.format(show_states=args.show_states))
    return EXIT_VIOLATION


def cmd_oracle_relation(args) -> int:
    from repro.oracle import RELATIONS, run_relation

    relation = RELATIONS[args.oracle_command]
    report = run_relation(
        relation.name,
        seeds=args.seeds,
        base_seed=args.base_seed,
        progress=args.progress,
        jobs=args.jobs,
        cache=_cache_spec(args),
        **{p.name: getattr(args, p.name) for p in relation.params},
    )
    print(report.format())
    # A campaign's verdict is about agreement, not schedulability:
    # disagreement is the only failure (CI gates on it); UNKNOWN cases
    # are counted in the report but do not fail the run.
    return EXIT_VIOLATION if report.disagreements else EXIT_SCHEDULABLE


def cmd_batch_run(args) -> int:
    return _run_file_batch(args, args.files)


def cmd_batch_cache(args) -> int:
    import json

    from repro.batch import DEFAULT_CACHE_DIR, VerdictCache

    store = VerdictCache(args.dir or DEFAULT_CACHE_DIR)
    if args.clear:
        removed = store.clear()
        print(f"removed {removed} cached verdict(s) from {store.directory}")
        return 0
    paths = list(store.entries())
    print(
        f"verdict cache at {store.directory}: {len(paths)} entries, "
        f"{store.size_bytes()} bytes"
    )
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        result = entry.get("result") or {}
        print(
            f"  {entry.get('key', '?')[:16]}  "
            f"{result.get('verdict', '?'):<14} "
            f"{entry.get('job_id', '?')}"
        )
    return 0


def cmd_trace_summary(args) -> int:
    from repro.obs import summarize_file

    print(summarize_file(args.path, top=args.top).format())
    return 0


def cmd_oracle_replay(args) -> int:
    from repro.oracle import ReproBundle, replay_bundle

    bundle = ReproBundle.load(args.bundle)
    result = replay_bundle(
        bundle,
        max_states=args.max_states,
        fault=bundle.fault if args.with_fault else None,
    )
    print(result.format())
    return 0 if result.verdict_matches else 1


def cmd_simulate(args) -> int:
    from repro.aadl.properties import SCHEDULING_PROTOCOL
    from repro.sched import extract_task_set, simulate
    from repro.translate.quantum import TimingQuantizer

    _, instance = _load_instance(args)
    processors = [
        p
        for p in instance.processors()
        if any(t.bound_processor is p for t in instance.threads())
    ]
    quantizer = TimingQuantizer.natural(instance)
    status = 0
    for processor in processors:
        tasks = extract_task_set(instance, processor, quantizer)
        if len(tasks) == 0:
            continue
        result = simulate(tasks, policy=args.policy)
        print(f"{processor.qualified_name} [{args.policy}] "
              f"(quantum {quantizer.quantum}):")
        print(result.gantt([t.name for t in tasks]))
        if result.misses:
            status = 1
            for name, when in result.misses:
                print(f"  MISS: {name} at t={when}")
        print()
    return status


def cmd_serve(args) -> int:
    from repro.serve import DEFAULT_ARTIFACTS_DIR, run_server

    cache = None
    if not args.no_cache:
        from repro.batch import DEFAULT_CACHE_DIR, VerdictCache

        cache = VerdictCache(
            args.cache_dir or DEFAULT_CACHE_DIR,
            max_entries=args.cache_max_entries,
            max_bytes=args.cache_max_bytes,
        )
    return run_server(
        host=args.host,
        port=args.port,
        cache=cache,
        workers=args.workers,
        backlog=args.backlog,
        executor=args.executor,
        artifacts_dir=(
            None
            if args.no_bundles
            else (args.artifacts or DEFAULT_ARTIFACTS_DIR)
        ),
        trace=not args.no_trace,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Schedulability analysis of AADL models via translation to "
            "the ACSR process algebra (Sokolsky, Lee & Clarke, IPDPS 2006)"
        ),
        epilog=EXIT_STATUS_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def pool_options(p):
        p.add_argument(
            "--jobs",
            type=int,
            default=None,
            metavar="N",
            help="worker processes (default: one per CPU core)",
        )
        p.add_argument(
            "--cache",
            action="store_true",
            help="consult/populate the persistent verdict cache "
            "(artifacts/cache)",
        )
        p.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="verdict-cache directory (implies --cache)",
        )

    def portfolio_options(p):
        p.add_argument(
            "--portfolio",
            dest="portfolio",
            action="store_true",
            help="try the analytic tier chain (utilization cap/bounds, "
            "RTA, EDF demand, simulation) before exhaustive "
            "exploration; the result reports the deciding tier",
        )
        p.add_argument(
            "--no-portfolio",
            dest="portfolio",
            action="store_false",
            help="force pure exhaustive exploration (the default)",
        )
        p.set_defaults(portfolio=False)

    def reduce_options(p):
        from repro.engine.reduce import DEFAULT_REDUCTION

        p.add_argument(
            "--reduce",
            dest="reduce",
            nargs="?",
            const="sym,por",
            default=DEFAULT_REDUCTION,
            metavar="PASSES",
            help="state-space reduction passes: prune commuting "
            "interleavings (por) and canonicalize states under replica "
            "symmetry (sym); a comma list, bare --reduce enables both "
            f"(default: {DEFAULT_REDUCTION}).  Verdict-preserving: same "
            "exit status as the unreduced run, and a failing scenario "
            "is raised from an unreduced search (see docs/reduction.md)",
        )
        p.add_argument(
            "--no-reduce",
            dest="reduce",
            action="store_const",
            const="none",
            help="explore unreduced: the state counts of the paper's "
            "plain deadlock search",
        )

    def tracing_options(p, profile_flag="--profile"):
        p.add_argument(
            "--trace",
            nargs="?",
            const="",
            default=None,
            metavar="PATH",
            help="record a JSONL span trace of the run (default PATH "
            "under artifacts/traces/)",
        )
        p.add_argument(
            profile_flag,
            dest="span_profile",
            action="store_true",
            help="print the per-stage span profile to stderr after "
            "the run",
        )

    def common(p, needs_root=True, multi=False):
        if multi:
            p.add_argument(
                "files",
                nargs="+",
                help="input files (several fan out across the worker pool)",
            )
        else:
            p.add_argument("file", help="input file")
        if needs_root:
            p.add_argument(
                "--root",
                help="root system implementation (e.g. Sys.impl); "
                "inferred when the model has exactly one",
            )
        p.add_argument(
            "--quantum",
            type=int,
            default=None,
            metavar="MICROSECONDS",
            help="scheduling quantum (default: GCD of all durations)",
        )
        p.add_argument(
            "--max-states",
            type=int,
            default=1_000_000,
            help="state budget for exploration",
        )

    p_analyze = sub.add_parser(
        "analyze",
        help="translate, explore, raise failing scenarios",
        epilog=EXIT_STATUS_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common(p_analyze, multi=True)
    pool_options(p_analyze)
    tracing_options(p_analyze)
    p_analyze.add_argument(
        "--all-modes",
        action="store_true",
        help="analyze every mode of a multi-modal root separately",
    )
    p_analyze.add_argument(
        "--compose",
        action="store_true",
        help="decompose into processor islands and analyze each "
        "separately (falls back to monolithic analysis, with the "
        "reason, when the islands are coupled)",
    )
    p_analyze.add_argument(
        "--hier",
        action="store_true",
        help="hierarchical analysis: check threads bound to virtual "
        "processors against each partition's bounded-delay (BDR) "
        "supply interface (escalates to a supply-aware flattened "
        "simulation per partition)",
    )
    p_analyze.add_argument(
        "--max-window",
        type=int,
        default=None,
        metavar="QUANTA",
        help="simulation window cap for --hier (flattened simulation) "
        "and --modal (transient window); verdict demotes to unknown "
        "past it",
    )
    p_analyze.add_argument(
        "--modal",
        action="store_true",
        help="transition-aware modal analysis: every reachable steady "
        "mode plus every mode transition's transient under the "
        "--protocol mode-change protocol (unreachable modes are "
        "skipped, with a note)",
    )
    p_analyze.add_argument(
        "--protocol",
        choices=("synchronous", "asynchronous"),
        default="synchronous",
        help="mode-change protocol for --modal: synchronous defers the "
        "switch to the old mode's hyperperiod boundary (steady "
        "verdicts govern); asynchronous switches at any instant "
        "(union analytic test, then exhaustive switch-phasing "
        "transient simulation)",
    )
    p_analyze.add_argument(
        "--max-phasings",
        type=int,
        default=None,
        metavar="N",
        help="switch-phasing cap for --modal transient simulation "
        "(verdict demotes to unknown past it)",
    )
    p_analyze.add_argument(
        "--baselines",
        action="store_true",
        help="also run the classical schedulability baselines",
    )
    p_analyze.add_argument(
        "--response-times",
        action="store_true",
        help="report observed worst-case response times (schedulable "
        "models only)",
    )
    p_analyze.add_argument(
        "--stats",
        action="store_true",
        help="print engine statistics (states/sec, cache hit rate, ...)",
    )
    portfolio_options(p_analyze)
    reduce_options(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_validate = sub.add_parser(
        "validate", help="check the paper S4.1 translation assumptions"
    )
    common(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    p_translate = sub.add_parser(
        "translate", help="emit the ACSR translation (VERSA-like syntax)"
    )
    common(p_translate)
    p_translate.add_argument(
        "-o", "--output", help="write the ACSR source to a file"
    )
    p_translate.set_defaults(func=cmd_translate)

    # Deliberately no reduce_options here: reduction passes are built
    # from translation metadata (replica name tables, cluster owners),
    # which a raw ACSR file does not carry, and walk/--dot traces must
    # stay concrete rather than quotient-space representatives.
    p_acsr = sub.add_parser(
        "acsr", help="explore a raw ACSR file (process/system declarations)"
    )
    common(p_acsr, needs_root=False)
    p_acsr.add_argument(
        "--full",
        action="store_true",
        help="explore the full space instead of stopping at the first "
        "deadlock",
    )
    p_acsr.add_argument(
        "--show-states",
        action="store_true",
        help="print the intermediate states of the counterexample",
    )
    p_acsr.add_argument(
        "--walk",
        type=int,
        default=0,
        metavar="STEPS",
        help="take one random walk instead of exploring exhaustively",
    )
    p_acsr.add_argument(
        "--seed", type=int, default=None, help="random-walk seed"
    )
    p_acsr.add_argument(
        "--dot",
        metavar="FILE",
        help="export the explored state space as a Graphviz DOT file",
    )
    p_acsr.add_argument(
        "--strategy",
        default="bfs",
        choices=["bfs", "dfs"],
        help="search strategy (bfs finds shortest counterexamples)",
    )
    p_acsr.add_argument(
        "--stats",
        action="store_true",
        help="print engine statistics (states/sec, cache hit rate, ...)",
    )
    p_acsr.add_argument(
        "--progress",
        type=int,
        default=0,
        metavar="N",
        help="report progress to stderr every N expanded states",
    )
    tracing_options(p_acsr)
    p_acsr.set_defaults(func=cmd_acsr)

    p_batch = sub.add_parser(
        "batch",
        help="parallel batch analysis with the persistent verdict cache",
    )
    batch_sub = p_batch.add_subparsers(dest="batch_command", required=True)

    p_batch_run = batch_sub.add_parser(
        "run",
        help="analyze many inputs (.aadl models, .json oracle cases or "
        "bundles) across a worker pool",
        epilog=EXIT_STATUS_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common(p_batch_run, multi=True)
    pool_options(p_batch_run)
    p_batch_run.add_argument(
        "--stats",
        action="store_true",
        help="print aggregated engine statistics for the whole batch",
    )
    p_batch_run.add_argument(
        "--modal",
        action="store_true",
        help="run every .aadl input as a transition-aware modal job",
    )
    p_batch_run.add_argument(
        "--protocol",
        choices=("synchronous", "asynchronous"),
        default="synchronous",
        help="mode-change protocol for --modal jobs",
    )
    portfolio_options(p_batch_run)
    reduce_options(p_batch_run)
    tracing_options(p_batch_run)
    p_batch_run.set_defaults(func=cmd_batch_run)

    p_batch_cache = batch_sub.add_parser(
        "cache", help="inspect or clear the persistent verdict cache"
    )
    p_batch_cache.add_argument(
        "--dir",
        default=None,
        metavar="DIR",
        help="cache directory (default artifacts/cache)",
    )
    p_batch_cache.add_argument(
        "--clear",
        action="store_true",
        help="delete every cached verdict",
    )
    p_batch_cache.set_defaults(func=cmd_batch_cache)

    p_compose = sub.add_parser(
        "compose",
        help="compositional analysis: processor-island decomposition",
    )
    compose_sub = p_compose.add_subparsers(
        dest="compose_command", required=True
    )
    p_compose_plan = compose_sub.add_parser(
        "plan",
        help="print the coupling graph and island partition without "
        "analyzing anything",
    )
    common(p_compose_plan)
    p_compose_plan.set_defaults(func=cmd_compose_plan)

    p_oracle = sub.add_parser(
        "oracle",
        help="differential-testing oracle: seeded campaigns against the "
        "classical analyses, with shrinking and replayable bundles",
    )
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)

    from repro.oracle import RELATIONS

    for relation in RELATIONS.values():
        p_relation = oracle_sub.add_parser(
            relation.name,
            help=relation.help,
            epilog=EXIT_STATUS_EPILOG,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p_relation.add_argument(
            "--seeds",
            type=int,
            default=50,
            help="number of seeded cases to draw (default 50)",
        )
        p_relation.add_argument(
            "--base-seed",
            type=int,
            default=0,
            help="first seed of the campaign (case i uses base-seed + i)",
        )
        for param in relation.params:
            p_relation.add_argument(
                param.flag,
                type=param.type
                or (str if param.default is None else type(param.default)),
                default=param.default,
                help=param.help,
            )
        p_relation.add_argument(
            "--progress",
            action="store_true",
            help="report per-case progress to stderr",
        )
        pool_options(p_relation)
        # --profile names the run campaign's envelope, so the span
        # profiler rides under --span-profile (same dest as --profile
        # elsewhere) on every oracle verb.
        tracing_options(p_relation, profile_flag="--span-profile")
        p_relation.set_defaults(func=cmd_oracle_relation)

    p_replay = oracle_sub.add_parser(
        "replay", help="re-run a persisted repro bundle"
    )
    p_replay.add_argument("bundle", help="path to a bundle JSON file")
    p_replay.add_argument(
        "--max-states",
        type=int,
        default=None,
        help="override the bundle's recorded exploration budget",
    )
    p_replay.add_argument(
        "--with-fault",
        action="store_true",
        help="re-inject the fault recorded in the bundle (reproduce the "
        "historical failure instead of checking the fix)",
    )
    p_replay.set_defaults(func=cmd_oracle_replay)

    p_trace = sub.add_parser(
        "trace",
        help="inspect recorded span traces (see --trace / --profile)",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_trace_summary = trace_sub.add_parser(
        "summary",
        help="validate a JSONL trace and render per-stage totals, span "
        "counts and the slowest spans",
    )
    p_trace_summary.add_argument("path", help="trace file (JSONL)")
    p_trace_summary.add_argument(
        "--top",
        type=int,
        default=5,
        metavar="N",
        help="number of slowest spans to list (default 5)",
    )
    p_trace_summary.set_defaults(func=cmd_trace_summary)

    p_serve = sub.add_parser(
        "serve",
        help="run the analysis service: HTTP/JSON submissions, SSE "
        "progress, shared verdict cache, crash-isolated workers",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default local)"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=8787,
        help="bind port (0 picks an ephemeral port)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="concurrent analysis workers (default 2)",
    )
    p_serve.add_argument(
        "--backlog",
        type=int,
        default=16,
        metavar="N",
        help="bounded queue depth; a full queue answers 429 (default 16)",
    )
    p_serve.add_argument(
        "--executor",
        choices=["process", "thread"],
        default="process",
        help="worker isolation: 'process' survives hard worker crashes "
        "(default); 'thread' is cheaper but shares the interpreter",
    )
    p_serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="verdict-cache directory (default artifacts/cache)",
    )
    p_serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the shared verdict cache (every request re-proves)",
    )
    p_serve.add_argument(
        "--cache-max-entries",
        type=int,
        default=None,
        metavar="N",
        help="LRU-evict the cache beyond N entries",
    )
    p_serve.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="LRU-evict the cache beyond BYTES on disk",
    )
    p_serve.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="replayable bundle directory (default artifacts/serve)",
    )
    p_serve.add_argument(
        "--no-bundles",
        action="store_true",
        help="do not persist result bundles",
    )
    p_serve.add_argument(
        "--no-trace",
        action="store_true",
        help="skip per-job span tracing (no 'span' SSE events)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_sim = sub.add_parser(
        "simulate",
        help="Cheddar-style scheduler simulation (one run per processor)",
    )
    common(p_sim)
    p_sim.add_argument(
        "--policy",
        default="rate",
        choices=["rate", "deadline", "explicit", "edf", "llf"],
        help="scheduling policy for the simulation",
    )
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
