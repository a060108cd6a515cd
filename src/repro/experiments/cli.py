"""Command-line interface: ``repro`` / ``python -m repro``.

Examples::

    repro list                      # show available experiments
    repro run figure2               # regenerate Figure 2
    repro run table1 --quick        # fast, smaller version of Table 1
    repro run all --seed 7          # everything, custom seed
    repro run obs22 -o obs22.md     # write the markdown report to a file
    repro lint                      # static verification of all protocols
    repro lint OptimalSilentSSR     # ... of one protocol
    repro lint --audit-states       # + Table 1 state-count audit CSV
    repro verify                    # exact-chain check of both engines
    repro verify SluggishRankingSSR # quantitative mutant: exits 1
    repro synth                     # exact parameter synthesis (all specs)
    repro synth loose-tmax --grid 1 2 3 4 5
    repro chaos                     # adversarial recovery sweep
    repro chaos --adversary leader --n 64 128 --json chaos.json
    repro chaos --metrics m.json --trace t.jsonl   # + observability
    repro tail t.jsonl              # render a recorded trace as charts
    repro tail t.jsonl --follow     # stream the trace as it grows
    repro top                       # live dashboard over a running service
    repro top --once                # one headless frame (CI smoke)
    repro bench --suite engine      # run a benchmark suite (ledgered)
    repro bench --suite engine --update-baseline   # store the baseline
    repro bench --suite engine --compare-baseline  # statistical gate
    repro report                    # render the run ledger + deltas
    repro serve                     # async job API with crash recovery
    repro submit chaos --spec '{"ns": [16], "trials": 2}' --wait
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import ExitStack
from typing import Any, List, Optional

from repro.core.countsim import CHAOS_PARAMS, ENGINES
from repro.core.parallel import check_counts
from repro.core.rng import DEFAULT_SEED
from repro.experiments.registry import all_experiments, run_experiment


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared observability flags (``repro run`` / ``repro chaos``)."""
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="record sampled/event/aggregate metrics and write them to "
        "PATH as JSON",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="stream a schema-versioned JSONL trace to PATH "
        "(render it later with 'repro tail')",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="additionally time engine stages and individual trials "
        "(implies recording)",
    )
    shards = parser.add_mutually_exclusive_group()
    shards.add_argument(
        "--keep-shards",
        dest="keep_shards",
        action="store_true",
        default=True,
        help="keep per-worker trace shard files after they are merged "
        "into the parent trace (the default)",
    )
    shards.add_argument(
        "--no-keep-shards",
        dest="keep_shards",
        action="store_false",
        help="delete per-worker trace shard files once merged; the "
        "merged parent trace is byte-identical either way",
    )


def _add_ledger_arguments(parser: argparse.ArgumentParser) -> None:
    """The run-ledger flags (``repro run`` / ``repro chaos`` / ``repro bench``)."""
    parser.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="append a stamped entry to this run ledger "
        "(default: reports/ledger/ledger.jsonl)",
    )
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not append a run-ledger entry for this invocation",
    )


def _ledger_path(args: argparse.Namespace) -> Optional[str]:
    """The ledger to append to, or ``None`` when stamping is off."""
    if args.no_ledger:
        return None
    if args.ledger:
        return args.ledger
    from repro.obs.ledger import DEFAULT_LEDGER_PATH

    return DEFAULT_LEDGER_PATH


def _add_output_argument(parser: argparse.ArgumentParser, report: str) -> None:
    """``-o/--output``: where the verb writes its ``report`` instead of stdout."""
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help=f"write the {report} report to this file instead of stdout",
    )


def _add_url_argument(parser: argparse.ArgumentParser) -> None:
    """``--url``: the running service a client verb talks to."""
    parser.add_argument(
        "--url",
        default="http://127.0.0.1:8642",
        help="service base URL (default: http://127.0.0.1:8642)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction harness for 'Time-Optimal Self-Stabilizing "
            "Leader Election in Population Protocols' (PODC 2021)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name: str, handler: Any, help: str) -> argparse.ArgumentParser:
        """One subcommand; ``main`` dispatches to its ``handler``."""
        verb_parser = sub.add_parser(name, help=help)
        verb_parser.set_defaults(handler=handler)
        return verb_parser

    verb("list", _cmd_list, "list available experiments")

    run_parser = verb("run", _cmd_run, "run one experiment (or 'all')")
    run_parser.add_argument(
        "experiment",
        help=f"experiment id, one of: {', '.join(all_experiments())}, or 'all'",
    )
    run_parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="root RNG seed"
    )
    run_parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller sizes/trial counts (what CI and the benchmarks use)",
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="fan independent trials out over N worker processes "
        "(experiments that support it; results are bit-identical)",
    )
    run_parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="simulation engine for experiments that support selection "
        "(e.g. table1, frontier); 'vector' is the count engine with "
        "batched numpy sampling (unbatched without numpy)",
    )
    _add_output_argument(run_parser, "markdown")
    run_parser.add_argument(
        "--csv",
        default=None,
        metavar="DIR",
        help="additionally write rows/checks CSVs and a manifest to DIR",
    )
    _add_obs_arguments(run_parser)
    _add_ledger_arguments(run_parser)

    lint_parser = verb(
        "lint",
        _cmd_lint,
        "statically verify protocols (schemas, model checking, sanitizer)",
    )
    lint_parser.add_argument(
        "protocols",
        nargs="*",
        metavar="protocol",
        help="protocol names to lint (default: all registered, mutants excluded)",
    )
    lint_parser.add_argument(
        "--audit-states",
        action="store_true",
        help="emit per-protocol state counts and check them against Table 1",
    )
    lint_parser.add_argument(
        "--audit-path",
        default=None,
        metavar="CSV",
        help="where --audit-states writes its CSV "
        "(default: reports/csv/statecount_audit.csv)",
    )
    _add_output_argument(lint_parser, "findings")

    verify_parser = verb(
        "verify",
        _cmd_verify,
        "quantitative verification: exact Markov-chain expected "
        "stabilization times vs both simulation engines",
    )
    verify_parser.add_argument(
        "protocols",
        nargs="*",
        metavar="protocol",
        help="verify targets (default: the clean Table 1 protocols; "
        "mutants addressable explicitly)",
    )
    verify_parser.add_argument(
        "--n", type=int, default=4, help="population size (default: 4)"
    )
    verify_parser.add_argument(
        "--trials",
        type=int,
        default=None,
        metavar="N",
        help="Monte-Carlo trials per engine (default: 400)",
    )
    verify_parser.add_argument(
        "--seed", type=int, default=None, help="root RNG seed for the trials"
    )
    verify_parser.add_argument(
        "--z",
        type=float,
        default=None,
        metavar="Z",
        help="confidence-band width in exact standard errors (default: 4)",
    )
    verify_parser.add_argument(
        "--solver",
        choices=("auto", "scipy", "gauss-seidel"),
        default="auto",
        help="linear solver for the exact chain (default: auto)",
    )
    _add_output_argument(verify_parser, "findings")
    _add_ledger_arguments(verify_parser)

    synth_parser = verb(
        "synth",
        _cmd_synth,
        "exact parameter synthesis: sweep a protocol parameter, solve "
        "each chain, emit the optimum plus the objective curve",
    )
    synth_parser.add_argument(
        "specs",
        nargs="*",
        metavar="spec",
        help="synthesis specs to run (default: all registered)",
    )
    synth_parser.add_argument(
        "--n",
        type=int,
        default=None,
        help="population size (default: each spec's own)",
    )
    synth_parser.add_argument(
        "--grid",
        nargs="+",
        type=int,
        default=None,
        metavar="VALUE",
        help="parameter values to sweep (default: each spec's own grid)",
    )
    synth_parser.add_argument(
        "--solver",
        choices=("auto", "scipy", "gauss-seidel"),
        default="auto",
        help="linear solver for the exact chains (default: auto)",
    )
    _add_output_argument(synth_parser, "synthesis")
    _add_ledger_arguments(synth_parser)

    chaos_parser = verb(
        "chaos",
        _cmd_chaos,
        "adversarial fault sweep: recovery time and availability vs n",
    )
    for param in CHAOS_PARAMS:
        chaos_parser.add_argument(
            param.flag,
            dest=param.name,
            type=None if param.value_type is str else param.value_type,
            nargs="+" if param.many else None,
            default=param.default,
            metavar=param.metavar,
            choices=param.choices,
            help=param.help,
        )
    chaos_parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        dest="json_path",
        help="additionally write the machine-readable report to PATH",
    )
    chaos_parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="durable trial journal: an interrupted sweep re-run with the "
        "same arguments resumes from it (bit-identical results)",
    )
    _add_obs_arguments(chaos_parser)
    _add_ledger_arguments(chaos_parser)

    tail_parser = verb(
        "tail", _cmd_tail, "render a recorded JSONL trace as ascii time-series"
    )
    tail_parser.add_argument(
        "trace_file", metavar="TRACE", help="JSONL trace written by --trace"
    )
    tail_parser.add_argument(
        "--series",
        nargs="+",
        default=None,
        metavar="NAME",
        help="sampled fields to chart (default: the standard series "
        "present in the trace)",
    )
    tail_parser.add_argument(
        "--width", type=int, default=60, help="chart width (default: 60)"
    )
    tail_parser.add_argument(
        "--height", type=int, default=8, help="chart height (default: 8)"
    )
    tail_parser.add_argument(
        "--validate",
        action="store_true",
        help="validate the trace against the record schema first; "
        "exit non-zero on any problem",
    )
    tail_parser.add_argument(
        "-f",
        "--follow",
        action="store_true",
        help="stream records as the trace file grows (one line per "
        "record), reopening when it is truncated or replaced; "
        "Ctrl-C to stop",
    )
    tail_parser.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="with --follow: idle poll interval (default: 0.5)",
    )

    bench_parser = verb(
        "bench",
        _cmd_bench,
        "run benchmark suites with repeats and a statistical "
        "regression gate against stored baselines",
    )
    bench_parser.add_argument(
        "--suite",
        nargs="+",
        default=None,
        metavar="NAME",
        help="suite names to run (default: every discovered suite)",
    )
    bench_parser.add_argument(
        "--list", action="store_true", help="list discovered suites and exit"
    )
    bench_parser.add_argument(
        "--cells",
        nargs="+",
        default=None,
        metavar="CELL",
        help="run only these cells of the selected suite(s)",
    )
    bench_parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="root RNG seed"
    )
    bench_parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        metavar="N",
        help="override every cell's repeat count",
    )
    bench_parser.add_argument(
        "--compare-baseline",
        action="store_true",
        help="compare against the stored baseline; exit non-zero when a "
        "regression is flagged outside measurement noise",
    )
    bench_parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="store this run as the new baseline (after any comparison)",
    )
    bench_parser.add_argument(
        "--baseline-dir",
        default=None,
        metavar="DIR",
        help="where baselines live (default: reports/ledger)",
    )
    bench_parser.add_argument(
        "--bench-dir",
        default="benchmarks",
        metavar="DIR",
        help="directory scanned for bench_*.py suites (default: benchmarks)",
    )
    bench_parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        dest="json_path",
        help="additionally write the full results (and comparison) to PATH",
    )
    _add_ledger_arguments(bench_parser)

    report_parser = verb(
        "report",
        _cmd_report,
        "render the run ledger and benchmark-vs-baseline deltas as "
        "markdown; exit non-zero on flagged regressions",
    )
    report_parser.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="ledger to render (default: reports/ledger/ledger.jsonl)",
    )
    report_parser.add_argument(
        "--baseline-dir",
        default=None,
        metavar="DIR",
        help="where baselines live (default: reports/ledger)",
    )
    report_parser.add_argument(
        "--limit",
        type=int,
        default=20,
        metavar="N",
        help="history rows to show (default: 20)",
    )
    _add_output_argument(report_parser, "markdown")

    serve_parser = verb(
        "serve",
        _cmd_serve,
        "run the simulation service: async job API with crash "
        "recovery, admission control and SSE event streaming",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8642,
        help="bind port; 0 picks an ephemeral port (default: 8642)",
    )
    serve_parser.add_argument(
        "--store",
        default=os.path.join("reports", "service"),
        metavar="DIR",
        help="durable state root: job journal, result cache, checkpoints "
        "(default: reports/service)",
    )
    serve_parser.add_argument(
        "--max-queue",
        type=int,
        default=16,
        metavar="N",
        help="bounded queue capacity in queued jobs; a full queue answers "
        "429 + Retry-After (default: 16)",
    )
    serve_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="concurrent jobs: one worker loop per slot over the FIFO "
        "queue; per-job recorder contexts keep event streams disjoint "
        "(default: 1)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="W",
        help="default worker processes for jobs that do not specify their own",
    )
    serve_parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="stderr log verbosity for the service's job-id-correlated "
        "structured logs (default: info)",
    )
    _add_ledger_arguments(serve_parser)

    submit_parser = verb(
        "submit",
        _cmd_submit,
        "submit a job to a running service and optionally wait for it",
    )
    submit_parser.add_argument(
        "kind", choices=("run", "chaos", "bench"), help="job kind"
    )
    _add_url_argument(submit_parser)
    submit_parser.add_argument(
        "--spec",
        default="{}",
        metavar="JSON",
        help="job parameters as inline JSON, e.g. "
        "'{\"protocols\": [\"ciw\"], \"ns\": [16], \"trials\": 2}'",
    )
    submit_parser.add_argument(
        "--wait",
        action="store_true",
        help="poll until the job reaches a terminal state; exit non-zero "
        "unless it completed ok",
    )
    submit_parser.add_argument(
        "--follow",
        action="store_true",
        help="stream the job's server-sent events to stdout (implies --wait)",
    )
    submit_parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="how long --wait/--follow may block (default: 600)",
    )
    submit_parser.add_argument(
        "--result",
        default=None,
        metavar="PATH",
        dest="result_path",
        help="with --wait: write the full result document to PATH",
    )

    top_parser = verb(
        "top",
        _cmd_top,
        "live fleet dashboard over a running service: health, "
        "lifetime counters with trial throughput, and per-job "
        "progress bars fed by trial spans",
    )
    _add_url_argument(top_parser)
    top_parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh interval (default: 2)",
    )
    top_parser.add_argument(
        "--once",
        action="store_true",
        help="render a single frame without clearing the screen and "
        "exit (headless/CI mode); exit non-zero if unreachable",
    )

    cancel_parser = verb(
        "cancel",
        _cmd_cancel,
        "cancel a submitted job (queued: instant; running: unwinds at "
        "its next recorder hook, checkpoint preserved)",
    )
    cancel_parser.add_argument("job_id", help="the job id (job-<key16>)")
    _add_url_argument(cancel_parser)
    return parser


def _install_recorder(args: argparse.Namespace, stack: ExitStack) -> Optional[Any]:
    """Install the ambient recorder requested by the observability flags.

    Returns ``None`` when no flag asked for recording, keeping the
    unrecorded paths entirely hook-free.
    """
    if not (args.metrics or args.trace or args.profile):
        return None
    from repro.obs import MetricsRecorder, TraceWriter, recording

    trace = stack.enter_context(TraceWriter(args.trace)) if args.trace else None
    recorder = MetricsRecorder(
        trace=trace,
        profile=args.profile,
        keep_shards=getattr(args, "keep_shards", True),
    )
    stack.enter_context(recording(recorder))
    return recorder


def _finish_recorder(args: argparse.Namespace, recorder: Optional[Any]) -> None:
    """Flush the post-run aggregate record and the metrics JSON."""
    if recorder is None:
        return
    if recorder.trace is not None:
        recorder.trace.write("aggregate", recorder.aggregates())
    if args.metrics:
        recorder.write(args.metrics)
        print(f"obs: wrote metrics to {args.metrics}")
    if args.trace:
        print(f"obs: wrote trace to {args.trace}")


def _write_json(path: str, document: Any) -> None:
    """Write ``document`` to ``path`` as indented, key-sorted JSON."""
    with open(path, "w", encoding="utf8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


class _Stamp:
    """Wall and CPU clocks of one ledgered invocation, started on creation.

    perf_counter, not time.time: elapsed is a duration, and time.time
    can step backwards under clock adjustment (wall-clock timestamps
    live in results.build_manifest and the ledger's provenance stamp).
    """

    def __init__(self) -> None:
        self.wall_started = time.perf_counter()
        self.cpu_started = time.process_time()

    def elapsed(self) -> float:
        return time.perf_counter() - self.wall_started

    def record(self, kind: str, path: Optional[str], **fields: Any) -> None:
        """Append ``kind``'s ledger entry, timed to now (no-op without a path)."""
        if not path:
            return
        from repro.obs.ledger import record_invocation

        record_invocation(
            kind,
            path=path,
            **fields,
            wall_seconds=round(self.elapsed(), 6),
            cpu_seconds=round(time.process_time() - self.cpu_started, 6),
        )


def _run_one(
    args: argparse.Namespace, experiment_id: str, recorder: Optional[Any]
) -> bool:
    """One experiment of ``repro run``: run, ledger, write; True iff it passed."""
    seed, quick, csv_dir, output = args.seed, args.quick, args.csv, args.output
    stamp = _Stamp()
    report = run_experiment(
        experiment_id, seed=seed, quick=quick, workers=args.workers, engine=args.engine
    )
    elapsed = stamp.elapsed()
    stamp.record(
        "run",
        _ledger_path(args),
        recorder=recorder,
        experiment=experiment_id,
        seed=seed,
        quick=quick,
        workers=args.workers,
        engine=args.engine,
        all_passed=report.all_passed,
    )
    if csv_dir:
        from repro.experiments.results import write_artifacts

        created = write_artifacts(
            report, csv_dir, seed=seed, quick=quick, elapsed_seconds=elapsed
        )
        print(f"{experiment_id}: wrote {len(created)} artifacts to {csv_dir}")
    text = report.render_markdown()
    text += f"\n_(generated in {elapsed:.1f}s, seed={seed}, quick={quick})_\n"
    if output:
        with open(output, "a", encoding="utf8") as handle:
            handle.write(text + "\n")
        print(f"{experiment_id}: wrote report to {output} ({elapsed:.1f}s)")
    else:
        print(text)
    if not report.all_passed:
        failed = [name for name, c in report.checks.items() if not c.passed]
        print(f"{experiment_id}: FAILED checks: {', '.join(failed)}", file=sys.stderr)
    return report.all_passed


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


def _counts_ok(verb: str, n: Optional[int] = None, **counts: Optional[int]) -> bool:
    """Whether every count is unset or >= 1, and the population size
    ``n`` unset or >= 2; else prints the reason as a job spec gets it
    from the service (``check_counts``)."""
    try:
        check_counts(**counts)
        if n is not None and n < 2:
            raise ValueError(f"'n' must be >= 2, got {n}")
    except ValueError as exc:
        print(f"{verb}: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_list(args: argparse.Namespace) -> int:
    """``repro list``: the experiment ids."""
    for experiment_id in all_experiments():
        print(experiment_id)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: one experiment (or all of them), ledgered."""
    if not _counts_ok("run", workers=args.workers):
        return 2
    targets = all_experiments() if args.experiment == "all" else [args.experiment]
    if args.engine is not None and args.experiment == "all":
        # Most experiments pick their engine themselves; a blanket
        # override across the registry would be a silent no-op for them.
        print("run: --engine applies to a single experiment, not 'all'",
              file=sys.stderr)
        return 2
    ok = True
    with ExitStack() as stack:
        recorder = _install_recorder(args, stack)
        for experiment_id in targets:
            try:
                one = _run_one(args, experiment_id, recorder)
            except ValueError as exc:
                if args.engine is None:
                    raise  # not an engine-selection problem; surface it
                print(f"run: {exc}", file=sys.stderr)
                return 2
            ok = one and ok
        _finish_recorder(args, recorder)
    return 0 if ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint``: the static verifier."""
    # Imported lazily: lint pulls in the whole protocol package.
    from repro.statics.lint import DEFAULT_AUDIT_PATH, main as lint_main

    return lint_main(
        args.protocols or None,
        audit_states=args.audit_states,
        audit_path=args.audit_path or DEFAULT_AUDIT_PATH,
        output=args.output,
    )


def _cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: the adversarial recovery sweep, ledgered."""
    # Imported lazily: the sweep pulls in the chaos + count machinery.
    from repro.experiments.chaos import run_chaos

    params = {param.name: getattr(args, param.name) for param in CHAOS_PARAMS}
    with ExitStack() as stack:
        recorder = _install_recorder(args, stack)
        stamp = _Stamp()
        try:
            result = run_chaos(**params, checkpoint=args.checkpoint)
        except ValueError as exc:
            print(f"chaos: {exc}", file=sys.stderr)
            return 2
        stamp.record(
            "chaos",
            _ledger_path(args),
            recorder=recorder,
            protocols=list(args.protocols),
            n=list(args.ns),
            adversary=args.adversary,
            trials=args.trials,
            seed=args.seed,
            engine=args.engine,
            workers=args.workers,
            all_recovered=result.all_recovered,
        )
        print(result.render())
        if args.json_path:
            _write_json(args.json_path, result.to_json())
            print(f"chaos: wrote JSON report to {args.json_path}")
        _finish_recorder(args, recorder)
    return 0 if result.all_recovered else 1


def _cmd_tail(args: argparse.Namespace) -> int:
    """``repro tail``: render, validate or follow a recorded trace."""
    from repro.obs.tail import follow_trace, format_record, render_trace
    from repro.obs.trace import validate_trace

    if args.validate:
        problems = validate_trace(args.trace_file)
        if problems:
            for problem in problems:
                print(f"tail: {problem}", file=sys.stderr)
            return 1
        print(f"tail: {args.trace_file} validates")
    if args.follow:
        try:
            for record in follow_trace(args.trace_file, poll=args.poll):
                print(format_record(record), flush=True)
        except KeyboardInterrupt:
            pass
        return 0
    print(render_trace(
        args.trace_file,
        series=args.series,
        width=args.width,
        height=args.height,
    ))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """``repro top``: the live dashboard over a running service."""
    from repro.obs.top import run_top

    return run_top(args.url, interval=args.interval, once=args.once)


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the self-stabilizing simulation service.

    Runs until SIGINT/SIGTERM; both exit gracefully (queued jobs stay
    journaled and a restart resumes them, which is the whole point).
    """
    if not _counts_ok(
        "serve", max_queue=args.max_queue, jobs=args.jobs, workers=args.workers
    ):
        return 2
    import asyncio
    import logging

    from repro.obs.log import configure_logging
    from repro.service.api import serve

    configure_logging(getattr(logging, args.log_level.upper()))
    try:
        asyncio.run(
            serve(
                host=args.host,
                port=args.port,
                store_root=args.store,
                max_queue=args.max_queue,
                concurrency=args.jobs,
                ledger_path=_ledger_path(args),
                workers=args.workers,
            )
        )
    except KeyboardInterrupt:
        print("serve: interrupted; journaled jobs resume on restart")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """``repro submit``: send one job to a running service."""
    from repro.service import client

    try:
        spec = json.loads(args.spec)
    except json.JSONDecodeError as exc:
        print(f"submit: --spec is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(spec, dict):
        print("submit: --spec must be a JSON object", file=sys.stderr)
        return 2
    try:
        document = client.submit_job(args.url, args.kind, spec)
    except client.QueueFullError as exc:
        print(
            f"submit: queue full, retry after ~{exc.retry_after:.0f}s",
            file=sys.stderr,
        )
        return 3
    except client.ServiceClientError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"submit: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 2
    job_id = document["id"]
    print(json.dumps(document, indent=2, sort_keys=True))
    if not (args.wait or args.follow):
        return 0
    if args.follow:
        try:
            for event in client.iter_events(args.url, job_id, timeout=args.timeout):
                print(json.dumps(event, sort_keys=True))
        except OSError as exc:
            print(f"submit: event stream ended: {exc}", file=sys.stderr)
    try:
        document = client.wait_for_job(args.url, job_id, timeout=args.timeout)
    except TimeoutError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 1
    if document.get("state") == "cancelled":
        print(f"submit: job {job_id} was cancelled", file=sys.stderr)
    print(json.dumps(document, indent=2, sort_keys=True))
    if args.result_path and document.get("state") == "done":
        result = client.get_result(args.url, job_id)
        _write_json(args.result_path, result)
        print(f"submit: wrote result to {args.result_path}")
    return 0 if document.get("state") == "done" and document.get("ok") is not False else 1


def _cmd_cancel(args: argparse.Namespace) -> int:
    """``repro cancel``: cancel one job on a running service."""
    from repro.service import client

    try:
        document = client.cancel_job(args.url, args.job_id)
    except client.ServiceClientError as exc:
        print(f"cancel: {exc}", file=sys.stderr)
        return 1 if exc.status == 409 else 2
    except OSError as exc:
        print(f"cancel: cannot reach {args.url}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """``repro verify``: exact-chain oracle over both engines, ledgered."""
    if not _counts_ok("verify", n=args.n, trials=args.trials):
        return 2
    # Imported lazily: the oracle pulls in the protocol + engine stack.
    from repro.statics import oracle

    kwargs = {
        name: getattr(args, name)
        for name in ("trials", "seed", "z")
        if getattr(args, name) is not None
    }
    stamp = _Stamp()
    code = oracle.main(
        args.protocols or None,
        n=args.n,
        solver=args.solver,
        output=args.output,
        **kwargs,
    )
    stamp.record(
        "verify",
        _ledger_path(args),
        protocols=args.protocols or None,
        n=args.n,
        trials=args.trials,
        seed=args.seed,
        z=args.z,
        solver=args.solver,
        ok=code == 0,
    )
    return code


def _cmd_synth(args: argparse.Namespace) -> int:
    """``repro synth``: exact parameter synthesis, ledgered."""
    if not _counts_ok("synth", n=args.n):
        return 2
    # Imported lazily: synthesis pulls in the protocol stack.
    from repro.statics import synth

    stamp = _Stamp()
    code = synth.main(
        args.specs or None,
        n=args.n,
        grid=args.grid,
        solver=args.solver,
        output=args.output,
    )
    stamp.record(
        "synth",
        _ledger_path(args),
        specs=args.specs or None,
        n=args.n,
        grid=args.grid,
        solver=args.solver,
        ok=code == 0,
    )
    return code


def _cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench``: run suites, gate against baselines, ledger it all."""
    if not _counts_ok("bench", repeats=args.repeats):
        return 2
    from repro.obs import bench as bench_mod
    from repro.obs.ledger import record_invocation

    baseline_dir = args.baseline_dir or bench_mod.DEFAULT_BASELINE_DIR
    suites = bench_mod.discover_suites(args.bench_dir)
    if args.list:
        for name in sorted(suites):
            suite = suites[name]
            print(f"{name:<12} {len(suite.cells):>2} cell(s)  {suite.description}")
        return 0
    try:
        selected = bench_mod.select_suites(
            suites, args.suite or sorted(suites), args.cells
        )
    except ValueError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    ledger_path = _ledger_path(args)
    flagged = 0
    missing_baseline = False
    documents = []
    for suite in selected:
        name = suite.name
        result = bench_mod.run_suite(
            suite, seed=args.seed, repeats=args.repeats, cells=args.cells
        )
        print(bench_mod.render_suite_result(result))
        comparison = None
        if args.compare_baseline:
            baseline = bench_mod.load_baseline(name, baseline_dir)
            if baseline is None:
                print(
                    f"bench: no stored baseline for suite {name!r} in "
                    f"{baseline_dir}; store one with --update-baseline",
                    file=sys.stderr,
                )
                missing_baseline = True
            else:
                comparison = bench_mod.compare_suites(baseline, result)
                print(bench_mod.render_comparison(comparison))
                flagged += comparison["regressions"]
        if args.update_baseline:
            path = bench_mod.save_baseline(result, baseline_dir)
            print(f"bench: stored baseline at {path}")
        if ledger_path:
            record_invocation(
                "bench",
                path=ledger_path,
                **bench_mod.ledger_fields(result, comparison),
            )
        documents.append({"result": result, "comparison": comparison})
    if args.json_path:
        _write_json(args.json_path, documents)
        print(f"bench: wrote JSON results to {args.json_path}")
    if flagged:
        print(
            f"bench: FAILED — {flagged} statistical regression(s) flagged",
            file=sys.stderr,
        )
        return 1
    if missing_baseline:
        return 2
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """``repro report``: render the ledger; red when regressions stand."""
    from repro.obs import bench as bench_mod
    from repro.obs.ledger import DEFAULT_LEDGER_PATH
    from repro.obs.report import render_report

    text, flagged = render_report(
        args.ledger or DEFAULT_LEDGER_PATH,
        baseline_dir=args.baseline_dir or bench_mod.DEFAULT_BASELINE_DIR,
        limit=args.limit,
    )
    if args.output:
        with open(args.output, "w", encoding="utf8") as handle:
            handle.write(text)
        print(f"report: wrote {args.output}")
    else:
        print(text)
    if flagged:
        print(
            f"report: {flagged} flagged regression(s) in the latest bench entries",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
