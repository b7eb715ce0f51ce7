"""Command-line interface: solve, verify, and extract cores from files.

The paper's workflow is inherently two-process — a solver writes the
proof to disk, an *independent* checker validates it — so the library
ships a CLI making that workflow literal::

    python -m repro solve formula.cnf --proof formula.ccp
    python -m repro verify formula.cnf formula.ccp
    python -m repro core formula.cnf formula.ccp --output core.cnf

Exit codes: ``solve`` exits 10 for SAT and 20 for UNSAT (the SAT
competition convention); ``verify`` exits 0 when the proof is correct
and 1 when it is not.  A run that exhausts its ``--timeout``/
``--max-props`` budget exits 3 (no verdict either way); malformed
input files exit 65 (``EX_DATAERR``) and every other operational
error exits 2 — always as a one-line ``c error:`` diagnostic, never a
traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.core.dimacs import read_dimacs, write_dimacs
from repro.core.exceptions import (
    DimacsParseError,
    ProofFormatError,
    ReproError,
)
from repro.obs import Obs, run_summary, stats_footer
from repro.obs.insight.history import (
    DEFAULT_HISTORY_DIR,
    default_history_dir,
)
from repro.proofs.conflict_clause import ConflictClauseProof
from repro.proofs.sizes import compare_proof_sizes
from repro.proofs.trace_format import read_proof, write_proof
from repro.solver.cdcl import SolverOptions, solve
from repro.verify.budget import CheckBudget
from repro.verify.verification import verify_proof

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_UNKNOWN = 30
EXIT_PROOF_BAD = 1
EXIT_ERROR = 2
EXIT_RESOURCE_LIMIT = 3
EXIT_PARSE_ERROR = 65   # sysexits.h EX_DATAERR: malformed input file
EXIT_INTERRUPT = 130    # 128 + SIGINT


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Conflict clause proofs of unsatisfiability "
                    "(Goldberg & Novikov, DATE 2003).")
    sub = parser.add_subparsers(dest="command", required=True)

    solve_cmd = sub.add_parser(
        "solve", help="solve a DIMACS CNF, optionally logging a proof")
    solve_cmd.add_argument("cnf", help="input DIMACS CNF file")
    solve_cmd.add_argument("--proof", metavar="FILE",
                           help="write the conflict clause proof here "
                                "when UNSAT")
    solve_cmd.add_argument("--drup", metavar="FILE",
                           help="write a DRUP trace (with deletion "
                                "lines) here when UNSAT")
    solve_cmd.add_argument("--learning", default="adaptive",
                           choices=["1uip", "decision", "hybrid",
                                    "adaptive"])
    solve_cmd.add_argument("--heuristic", default="berkmin",
                           choices=["vsids", "berkmin"])
    solve_cmd.add_argument("--max-conflicts", type=int, default=None)
    solve_cmd.add_argument("--minimize", action="store_true",
                           help="minimize learned clauses")
    solve_cmd.add_argument("--preprocess", action="store_true",
                           help="simplify first (units, probing, "
                                "subsumption, variable elimination); "
                                "the proof is lifted back to the "
                                "original formula")
    solve_cmd.add_argument("--stats", action="store_true",
                           help="print solver statistics")

    verify_cmd = sub.add_parser(
        "verify", help="verify a conflict clause proof")
    verify_cmd.add_argument("cnf", help="the original DIMACS CNF file")
    verify_cmd.add_argument("proof", help="the proof trace file")
    verify_cmd.add_argument("--procedure", default="verification2",
                            choices=["verification1", "verification2"])
    verify_cmd.add_argument("--order", default="backward",
                            choices=["backward", "forward"],
                            help="check order (verification1 only; the "
                                 "verdict is order-independent)")
    verify_cmd.add_argument("--mode", default="incremental",
                            choices=["rebuild", "incremental"],
                            help="checker state management: keep a "
                                 "persistent root trail (incremental, "
                                 "default) or re-assert units per check")
    verify_cmd.add_argument("--jobs", type=int, default=1, metavar="N",
                            help="worker processes for verification1 "
                                 "(default 1: sequential)")
    verify_cmd.add_argument("--engine", default=None,
                            choices=["watched", "counting", "arena"],
                            help="BCP engine (default: watched, or "
                                 "counting when --depgraph-out needs "
                                 "deterministic reasons); arena is the "
                                 "flat-pool engine the shared-memory "
                                 "parallel backend uses")
    strictness = verify_cmd.add_mutually_exclusive_group()
    strictness.add_argument("--strict", action="store_true",
                            help="require a DIMACS header whose counts "
                                 "match the body exactly")
    strictness.add_argument("--lenient", action="store_false",
                            dest="strict",
                            help="accept header-less or miscounted "
                                 "DIMACS (default)")
    _add_budget_arguments(verify_cmd)
    _add_obs_arguments(verify_cmd, insight=True)

    core_cmd = sub.add_parser(
        "core", help="extract an unsat core from a verified proof")
    core_cmd.add_argument("cnf")
    core_cmd.add_argument("proof")
    core_cmd.add_argument("--output", metavar="FILE",
                          help="write the core as DIMACS here")

    drup_cmd = sub.add_parser(
        "verify-drup", help="forward-check a DRUP trace (with "
                            "deletions)")
    drup_cmd.add_argument("cnf")
    drup_cmd.add_argument("drup")
    drup_cmd.add_argument("--engine", default=None,
                          choices=["watched", "arena"],
                          help="BCP engine (counting is rejected: it "
                               "cannot honor deletions)")
    _add_budget_arguments(drup_cmd)
    _add_obs_arguments(drup_cmd)

    stream_cmd = sub.add_parser(
        "verify-stream",
        help="forward-check a DRUP trace in one bounded-memory "
             "streaming pass (chunked parse, deletion-aware "
             "eviction, checkpoint/resume)")
    stream_cmd.add_argument("cnf")
    stream_cmd.add_argument("drup")
    stream_cmd.add_argument("--engine", default=None,
                            choices=["watched", "arena"],
                            help="BCP engine (counting is rejected: "
                                 "streaming lives on deletion events)")
    _add_budget_arguments(stream_cmd)
    stream_cmd.add_argument("--max-live-clauses", type=int,
                            default=None, metavar="N",
                            help="abort with exit code 3 (and a resume "
                                 "token, with --checkpoint) when the "
                                 "live proof-added clause set would "
                                 "exceed N")
    stream_cmd.add_argument("--max-bytes", type=int, default=None,
                            metavar="BYTES",
                            help="same, for the live set's estimated "
                                 "resident footprint in bytes")
    stream_cmd.add_argument("--checkpoint", metavar="FILE",
                            default=None,
                            help="flush a resume token here (schema "
                                 "repro.obs.checkpoint/v1) every "
                                 "--checkpoint-every events and on "
                                 "interrupt/budget exhaustion; "
                                 "deleted once a verdict is reached")
    stream_cmd.add_argument("--checkpoint-every", type=int,
                            default=None, metavar="N",
                            help="checkpoint cadence in trace events "
                                 "(default 5000)")
    stream_cmd.add_argument("--resume", action="store_true",
                            help="continue from the --checkpoint "
                                 "token instead of starting over")
    stream_cmd.add_argument("--lenient-deletions", action="store_true",
                            help="skip (with a warning) deletions of "
                                 "unknown clauses instead of failing "
                                 "with exit code 65")
    stream_cmd.add_argument("--chunk-bytes", type=int, default=None,
                            metavar="BYTES",
                            help="trace read granularity (default "
                                 "65536)")
    _add_obs_arguments(stream_cmd)

    obs_cmd = sub.add_parser(
        "obs", help="inspect run history, timelines, and live runs; "
                    "detect regressions")
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)

    history_cmd = obs_sub.add_parser(
        "history", help="list recorded run fingerprints")
    history_cmd.add_argument("--history-dir", metavar="DIR",
                             default=default_history_dir())
    history_cmd.add_argument("--limit", type=int, default=20,
                             metavar="N",
                             help="show at most the N newest runs "
                                  "(default 20)")
    history_sub = history_cmd.add_subparsers(dest="history_command",
                                             required=False)
    prune_cmd = history_sub.add_parser(
        "prune", help="drop all but the newest N fingerprints "
                      "(atomic rewrite)")
    prune_cmd.add_argument("--keep", type=int, required=True,
                           metavar="N",
                           help="fingerprints to keep (newest first)")
    # SUPPRESS so a --history-dir given before 'prune' survives the
    # subparser's defaults pass.
    prune_cmd.add_argument("--history-dir", metavar="DIR",
                           default=argparse.SUPPRESS)

    timeline_cmd = obs_sub.add_parser(
        "timeline",
        help="reconstruct a trace into a global timeline: lanes, "
             "utilization, shard skew, critical path, attribution")
    timeline_cmd.add_argument("trace", metavar="TRACE.jsonl",
                              help="a repro.obs.trace/v1 file "
                                   "(--trace-out of a run)")
    timeline_cmd.add_argument("--html", metavar="PATH", default=None,
                              help="write a self-contained Gantt+"
                                   "critical-path HTML rendering here")
    timeline_cmd.add_argument("--top", type=int, default=5, metavar="N",
                              help="straggler rows in the attribution "
                                   "section (default 5)")
    timeline_cmd.add_argument("--quiet", action="store_true",
                              help="suppress the text rendering on "
                                   "stdout")

    top_cmd = obs_sub.add_parser(
        "top", help="show in-flight runs from their live status files")
    top_cmd.add_argument("--live-dir", metavar="DIR",
                         default=None,
                         help="live status directory (default: "
                              "$REPRO_LIVE_DIR or .repro/live)")
    top_cmd.add_argument("--follow", action="store_true",
                         help="keep refreshing until every run is "
                              "done or stale (Ctrl-C to stop)")
    top_cmd.add_argument("--interval", type=float, default=2.0,
                         metavar="SECONDS",
                         help="refresh interval with --follow "
                              "(default 2.0)")
    top_cmd.add_argument("--stale-after", type=float, default=30.0,
                         metavar="SECONDS",
                         help="mark a run stale after this long "
                              "without a heartbeat (default 30)")

    compare_cmd = obs_sub.add_parser(
        "compare", help="per-metric delta table between two runs")
    compare_cmd.add_argument("a", help="baseline run: history index "
                                       "(e.g. -2) or run-id prefix")
    compare_cmd.add_argument("b", help="candidate run: history index "
                                       "(e.g. -1) or run-id prefix")
    compare_cmd.add_argument("--history-dir", metavar="DIR",
                             default=default_history_dir())

    regress_cmd = obs_sub.add_parser(
        "check-regression",
        help="compare a run against a baseline; exit 3 past thresholds")
    regress_cmd.add_argument("--baseline", required=True,
                             metavar="FILE|SELECTOR",
                             help="baseline fingerprint: a JSON file "
                                  "(committed baseline) or a history "
                                  "selector")
    regress_cmd.add_argument("--current", default="-1",
                             metavar="SELECTOR",
                             help="run under test (default: the newest "
                                  "history entry)")
    regress_cmd.add_argument("--history-dir", metavar="DIR",
                             default=default_history_dir())
    regress_cmd.add_argument("--max-wall-pct", type=float, default=None,
                             metavar="PCT",
                             help="fail when wall time grew more than "
                                  "PCT%% over the baseline")
    regress_cmd.add_argument("--max-props-drop-pct", type=float,
                             default=None, metavar="PCT",
                             help="fail when props/s throughput dropped "
                                  "more than PCT%%")
    regress_cmd.add_argument("--max-phase-pct", type=float, default=None,
                             metavar="PCT",
                             help="fail when any phase time grew more "
                                  "than PCT%%")
    regress_cmd.add_argument("--min-utilization", type=float,
                             default=None, metavar="PCT",
                             help="fail when the current run's "
                                  "recorded worker utilization is "
                                  "below PCT%% (parallel runs with an "
                                  "attribution section)")
    regress_cmd.add_argument("--max-peak-rss-growth", type=float,
                             default=None, metavar="PCT",
                             help="fail when measured peak RSS grew "
                                  "more than PCT%% over the baseline "
                                  "(runs whose fingerprints carry a "
                                  "memory section)")
    return parser


def _add_budget_arguments(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="abort with exit code 3 (no verdict) once "
                          "this much wall-clock time has elapsed")
    cmd.add_argument("--max-props", type=int, default=None, metavar="N",
                     help="abort with exit code 3 (no verdict) once "
                          "the engines have performed N propagation "
                          "work units")


def _budget_from(args: argparse.Namespace) -> CheckBudget | None:
    max_live = getattr(args, "max_live_clauses", None)
    max_bytes = getattr(args, "max_bytes", None)
    if args.timeout is None and args.max_props is None \
            and max_live is None and max_bytes is None:
        return None
    return CheckBudget(timeout=args.timeout, max_props=args.max_props,
                       max_live_clauses=max_live, max_bytes=max_bytes)


def _add_obs_arguments(cmd: argparse.ArgumentParser,
                       insight: bool = False) -> None:
    group = cmd.add_argument_group("observability")
    group.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write a JSONL span/event trace here "
                            "(schema repro.obs.trace/v1), closed by a "
                            "run_summary event with the run's metrics, "
                            "stats, memory, and analytics")
    group.add_argument("--progress", action="store_true",
                       help="heartbeat 'c progress:' lines on stderr")
    group.add_argument("--stats", action="store_true",
                       help="print a 'c stats:' footer with per-phase "
                            "times, props, and slowest checks")
    group.add_argument("--profile", metavar="PATH", default=None,
                       help="wrap the run in cProfile; writes PATH "
                            "(pstats), PATH.folded (flamegraph "
                            "collapsed stacks) and PATH.phases.json")
    group.add_argument("--history-dir", metavar="DIR",
                       default=default_history_dir(),
                       help="run-history store directory (default: "
                            f"$REPRO_HISTORY_DIR or "
                            f"{DEFAULT_HISTORY_DIR}; see 'repro obs "
                            "history')")
    group.add_argument("--no-history", action="store_true",
                       help="do not append this run's fingerprint to "
                            "the history store")
    group.add_argument("--live-dir", metavar="DIR",
                       default=os.environ.get("REPRO_LIVE_DIR"),
                       help="write a live status file here on every "
                            "progress beat, for 'repro obs top' "
                            "(default: $REPRO_LIVE_DIR)")
    group.add_argument("--mem-sample-period", type=float, default=None,
                       metavar="SECONDS",
                       help="also sample RSS on a background thread "
                            "every SECONDS (default: one sample per "
                            "progress heartbeat only)")
    group.add_argument("--mem-profile", action="store_true",
                       help="attribute allocation peaks to phases "
                            "with tracemalloc (expensive — adds a "
                            "tracemalloc section to the trace's "
                            "run_summary and the history fingerprint)")
    if insight:
        group.add_argument("--depgraph-out", metavar="PATH",
                           default=None,
                           help="write the proof dependency graph here "
                                "as JSONL (schema repro.obs.depgraph/v1)")
        group.add_argument("--depgraph-dot", metavar="PATH",
                           default=None,
                           help="write the proof dependency graph here "
                                "in Graphviz DOT")


def _wants_insight(args: argparse.Namespace) -> bool:
    return (getattr(args, "depgraph_out", None) is not None
            or getattr(args, "depgraph_dot", None) is not None)


def _obs_from(args: argparse.Namespace) -> Obs | None:
    """Build the instrumentation bundle the flags ask for (or None).

    A metrics registry comes only with ``--trace-out`` (the trace's
    ``run_summary`` carries its snapshot), ``--stats`` (the footer's
    props and slowest-check lines come from the instrumented per-check
    path) and the memory flags (the arena gauges the history's memory
    section reads live in it).  Any insight output flag attaches a
    dependency-graph recorder (the analytics are computed from its
    records).
    """
    from repro.obs import DepGraphRecorder, MetricsRegistry, Tracer

    mem_profile = getattr(args, "mem_profile", False)
    wants_metrics = (args.trace_out is not None or args.stats
                     or mem_profile
                     or getattr(args, "mem_sample_period", None)
                     is not None)
    # Parallel runs that will record history also get a tracer: its
    # shard-granularity spans are what the history ``attribution``
    # section (utilization / skew gating) is computed from, at a cost
    # of a few events per shard — nothing on the per-check hot path.
    wants_trace = (args.trace_out is not None
                   or ((getattr(args, "jobs", 1) or 1) > 1
                       and not getattr(args, "no_history", True)))
    wants_depgraph = _wants_insight(args)
    live_dir = getattr(args, "live_dir", None)
    if not (wants_metrics or wants_trace or args.progress
            or wants_depgraph or live_dir is not None):
        return None
    # Any instrumented run gets the RSS sampler: it only fires on
    # progress beats (or its own --mem-sample-period thread), so it
    # costs nothing on runs without a heartbeat, and it is what feeds
    # the live view's RSS columns, the timeline memory lane, and the
    # fingerprint's memory section.
    from repro.obs.mem import MemProfiler, MemSampler

    return Obs(
        metrics=MetricsRegistry() if wants_metrics else None,
        tracer=Tracer() if wants_trace else None,
        progress_stream=sys.stderr if args.progress else None,
        depgraph=DepGraphRecorder() if wants_depgraph else None,
        live_dir=live_dir,
        live_meta={"command": args.command,
                   "instance": getattr(args, "cnf", None)},
        mem=MemSampler(),
        mem_profiler=MemProfiler() if mem_profile else None)


def _write_trace(obs: Obs | None, args: argparse.Namespace, report,
                 analytics=None) -> None:
    """Close the trace with its ``run_summary`` event and write it to
    --trace-out.

    ``report`` may be None (interrupted run): whatever the registry
    and tracer collected so far is still flushed — atomically, so the
    trace on disk is always complete and schema-valid.
    """
    if obs is None or args.trace_out is None:
        return
    obs.event("run_summary",
              **run_summary(obs, args.command, report, analytics))
    obs.tracer.write_jsonl(args.trace_out)
    print(f"c trace written to {args.trace_out}")


def _write_insight_artifacts(obs: Obs | None, args: argparse.Namespace,
                             report, formula, proof):
    """Write --depgraph-out/--depgraph-dot artifacts.

    Returns the computed :class:`ProofShapeAnalytics` (or None), so
    the stats footer, the trace summary and the history fingerprint
    reuse it.  Tolerates ``report=None`` (interrupted run): the
    partial dependency graph is still flushed; analytics need a report
    and are skipped.
    """
    if obs is None or obs.depgraph is None:
        return None
    from repro.obs import write_depgraph_dot, write_depgraph_jsonl
    from repro.obs.insight import analyze_proof_shape

    run = {"id": obs.run_id, "command": args.command,
           "cnf": args.cnf, "interrupted": report is None}
    meta = dict(
        num_input=formula.num_clauses, num_proof=len(proof),
        procedure=(report.procedure if report is not None
                   else args.procedure),
        mode=report.mode if report is not None else args.mode,
        jobs=report.jobs if report is not None
        else getattr(args, "jobs", 1))
    lines = None
    if args.depgraph_out is not None:
        lines = write_depgraph_jsonl(args.depgraph_out, obs.depgraph,
                                     run, **meta)
        print(f"c depgraph written to {args.depgraph_out} "
              f"({obs.depgraph.num_checks} checks, "
              f"{obs.depgraph.num_edges} edges)")
    if args.depgraph_dot is not None:
        if lines is None:
            from repro.obs.insight.depgraph import depgraph_header
            lines = [depgraph_header(run, **meta)] \
                + obs.depgraph.sorted_checks()
        write_depgraph_dot(args.depgraph_dot, lines)
        print(f"c depgraph DOT written to {args.depgraph_dot}")
    if report is None:
        return None
    return analyze_proof_shape(proof, report, obs.depgraph)


def _record_history(obs: Obs | None, args: argparse.Namespace, report,
                    analytics=None) -> None:
    """Append this run's fingerprint to the history store.

    Parallel runs that traced their shards also get an ``attribution``
    section (utilization, skew, per-shard cost, top stragglers), so
    ``obs compare``/``check-regression`` can gate on pool efficiency,
    not just wall time.
    """
    if report is None or getattr(args, "no_history", True):
        return
    from repro.obs import HistoryStore, fingerprint, make_run_id

    attribution = None
    if obs is not None and obs.tracer is not None:
        from repro.obs.timeline import attribution_summary

        attribution = attribution_summary(obs.tracer.events)
    record = fingerprint(
        report,
        run_id=obs.run_id if obs is not None else make_run_id(),
        command=args.command, instance=args.cnf, analytics=analytics,
        attribution=attribution, memory=_mem_history_section(obs))
    HistoryStore(args.history_dir).append(record)


def _mem_history_section(obs: Obs | None) -> dict | None:
    """The fingerprint's ``memory`` section: measured peak RSS (the
    ``--max-peak-rss-growth`` gate input), arena peak, and the top
    tracemalloc sites when ``--mem-profile`` captured them.  None when
    the run had no sampler or it never produced a reading — an
    unmeasured run must not gate."""
    if obs is None or obs.mem is None:
        return None
    summary = obs.mem.summary()
    if summary["peak_rss_bytes"] is None:
        return None
    memory = {"peak_rss_bytes": summary["peak_rss_bytes"],
              "rss_bytes": summary["rss_bytes"],
              "source": summary["source"],
              "num_samples": summary["num_samples"]}
    # The arena gauge's max-merge already folded worker peaks in.
    pool = (obs.metrics.snapshot().get("repro_mem_arena_pool_bytes")
            if obs.metrics is not None else None)
    if pool is not None:
        memory["arena_peak_bytes"] = int(pool["value"]["max"])
    if obs.mem_profiler is not None:
        profile = obs.mem_profiler.document()
        if profile is not None:
            memory["tracemalloc_top"] = profile["top"][:5]
    return memory


def _run_instrumented(args: argparse.Namespace, obs: Obs | None, run,
                      formula=None, proof=None):
    """Run a verification thunk with ``--profile`` wrapping and
    interrupt-safe artifact flushing.

    Returns the report, or None when the run was interrupted — in
    which case every requested artifact (trace, partial depgraph,
    profile) has already been flushed atomically, so a ^C
    never leaves a truncated or missing artifact behind.
    """
    profiler = None
    if getattr(args, "profile", None) is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    _start_mem(args, obs)
    try:
        report = run()
    except KeyboardInterrupt:
        if profiler is not None:
            profiler.disable()
        _finish_mem(obs)
        print("c error: interrupted", file=sys.stderr)
        if formula is not None and proof is not None:
            _write_insight_artifacts(obs, args, None, formula, proof)
        _write_trace(obs, args, None)
        if profiler is not None:
            _write_profile(args, profiler, None)
        return None
    _finish_mem(obs)
    if profiler is not None:
        profiler.disable()
        _write_profile(args, profiler, report)
    return report


def _start_mem(args: argparse.Namespace, obs: Obs | None) -> None:
    """Arm the memory facilities for one run: a first sample (so even
    a heartbeat-less run records a baseline), the optional background
    sampling thread, and the optional tracemalloc profiler."""
    if obs is None:
        return
    if obs.mem_profiler is not None:
        obs.mem_profiler.start()
    if obs.mem is not None:
        obs.mem.sample()
        period = getattr(args, "mem_sample_period", None)
        if period is not None and period > 0:
            obs.mem.start(period)


def _finish_mem(obs: Obs | None) -> None:
    """Disarm them: stop the thread, take a final sample (the peak a
    short run would otherwise miss), stop tracemalloc."""
    if obs is None:
        return
    if obs.mem is not None:
        obs.mem.stop()
        obs.mem.sample()
    if obs.mem_profiler is not None:
        obs.mem_profiler.stop()


def _write_profile(args: argparse.Namespace, profiler, report) -> None:
    from repro.obs.insight import write_profile

    written = write_profile(
        args.profile, profiler,
        phase_times=(report.stats.phase_times
                     if report is not None and report.stats is not None
                     else None),
        total_time=(report.verification_time
                    if report is not None else None))
    print(f"c profile written to {written[0]} "
          f"(+{len(written) - 1} sidecar(s))")


def _print_stats_footer(args: argparse.Namespace, report,
                        bcp_counters: dict | None,
                        analytics=None) -> None:
    if not args.stats:
        return
    stats = report.stats.as_dict() if report.stats is not None else None
    for line in stats_footer(stats, bcp_counters):
        print(line)
    if analytics is not None:
        from repro.obs.insight import analytics_footer

        for line in analytics_footer(analytics):
            print(line)


def _cmd_solve(args: argparse.Namespace) -> int:
    formula = read_dimacs(args.cnf)
    options = SolverOptions(
        learning=args.learning, heuristic=args.heuristic,
        max_conflicts=args.max_conflicts,
        minimize_clauses=args.minimize,
        log_proof=args.proof is not None or args.drup is not None)
    lifted_proof = None
    if args.preprocess:
        from repro.preprocess.lifting import solve_with_preprocessing

        result, pre, lifted_proof = solve_with_preprocessing(
            formula, options, eliminate=True)
        print(f"c preprocess: {len(pre.derived_units)} units, "
              f"{len(pre.removed_clause_indices)} clauses removed, "
              f"{len(pre.eliminations)} vars eliminated")
    else:
        result = solve(formula, options)
    print(f"s {result.status}")
    if args.stats:
        stats = result.stats
        print(f"c conflicts={stats.conflicts} decisions={stats.decisions}"
              f" propagations={stats.propagations}"
              f" restarts={stats.restarts} time={stats.solve_time:.3f}s")
    if result.is_sat:
        literals = [var if value else -var
                    for var, value in sorted(result.model.items())]
        print("v " + " ".join(map(str, literals)) + " 0")
        return EXIT_SAT
    if result.is_unsat:
        if args.proof:
            if lifted_proof is not None:
                proof = lifted_proof
                extra = " (lifted across preprocessing)"
            else:
                proof = ConflictClauseProof.from_log(result.log)
                sizes = compare_proof_sizes(result.log)
                extra = (f" (resolution graph: "
                         f"{sizes.resolution_graph_nodes} nodes)")
            write_proof(proof, args.proof,
                        comment=f"refutation of {args.cnf}")
            print(f"c proof written to {args.proof}: {len(proof)} "
                  f"clauses, {proof.literal_count()} literals{extra}")
        if args.drup and lifted_proof is not None:
            print("c --drup is not supported together with "
                  "--preprocess (deletion lines would reference the "
                  "simplified formula); skipping")
        elif args.drup:
            from repro.proofs.drup import DrupProof, write_drup
            trace = DrupProof.from_log(result.log)
            write_drup(trace, args.drup,
                       comment=f"refutation of {args.cnf}")
            print(f"c DRUP trace written to {args.drup}: "
                  f"{trace.num_additions} additions, "
                  f"{trace.num_deletions} deletions")
        return EXIT_UNSAT
    return EXIT_UNKNOWN


def _cmd_verify(args: argparse.Namespace) -> int:
    formula = read_dimacs(args.cnf, strict=args.strict)
    proof = read_proof(args.proof)
    if args.jobs < 1:
        print("c error: --jobs must be >= 1", file=sys.stderr)
        return EXIT_ERROR
    if args.procedure == "verification2" and (args.order != "backward"
                                              or args.jobs != 1):
        print("c error: --order/--jobs require --procedure "
              "verification1", file=sys.stderr)
        return EXIT_ERROR
    obs = _obs_from(args)
    report = _run_instrumented(
        args, obs, lambda: verify_proof(
            formula, proof, procedure=args.procedure,
            engine_cls=args.engine,
            order=args.order, mode=args.mode, jobs=args.jobs,
            budget=_budget_from(args), obs=obs),
        formula, proof)
    if report is None:
        return EXIT_INTERRUPT
    print(f"s {report.outcome.upper()}")
    print(f"c checked={report.num_checked} skipped={report.num_skipped}"
          f" time={report.verification_time:.3f}s"
          f" mode={report.mode} engine={report.engine}"
          f" jobs={report.jobs}")
    for warning in report.warnings:
        print(f"c warning: {warning}")
    if report.worker_failures:
        print(f"c warning: {report.worker_failures} worker failure(s) "
              "were recovered")
    if report.bcp_counters is not None:
        pairs = " ".join(f"{key}={value}"
                         for key, value in report.bcp_counters.items())
        print(f"c bcp: {pairs}")
    analytics = _write_insight_artifacts(obs, args, report, formula,
                                         proof)
    _print_stats_footer(args, report, report.bcp_counters, analytics)
    _write_trace(obs, args, report, analytics)
    _record_history(obs, args, report, analytics)
    if report.exhausted:
        print(f"c budget exhausted: {report.failure_reason}")
        return EXIT_RESOURCE_LIMIT
    if not report.ok:
        print(f"c questionable clause at chronological index "
              f"{report.failed_clause_index}: "
              f"{proof[report.failed_clause_index]}")
        return EXIT_PROOF_BAD
    if report.core is not None:
        print(f"c unsat core: {report.core.size}/"
              f"{formula.num_clauses} clauses "
              f"({report.core.fraction:.1%})")
    return 0


def _cmd_core(args: argparse.Namespace) -> int:
    formula = read_dimacs(args.cnf)
    proof = read_proof(args.proof)
    report = verify_proof(formula, proof)
    if not report.ok:
        print(f"s {report.outcome.upper()}")
        return 1
    core = report.core
    print(f"c core: {core.size}/{formula.num_clauses} clauses "
          f"({core.fraction:.1%})")
    print("c indices: " + " ".join(map(str, core.clause_indices)))
    if args.output:
        write_dimacs(core.as_formula(), args.output,
                     comment=f"unsat core of {args.cnf}")
        print(f"c written to {args.output}")
    return 0


def _cmd_verify_drup(args: argparse.Namespace) -> int:
    from repro.proofs.drup import read_drup
    from repro.verify.forward import check_drup

    formula = read_dimacs(args.cnf)
    trace = read_drup(args.drup)
    obs = _obs_from(args)
    report = _run_instrumented(
        args, obs, lambda: check_drup(formula, trace,
                                      budget=_budget_from(args),
                                      obs=obs,
                                      engine_cls=args.engine))
    if report is None:
        return EXIT_INTERRUPT
    print(f"s {report.outcome.upper()}")
    print(f"c additions={report.num_additions} "
          f"deletions={report.num_deletions} "
          f"peak_active={report.peak_active_clauses} "
          f"time={report.verification_time:.3f}s")
    _print_stats_footer(args, report, None)
    _write_trace(obs, args, report)
    _record_history(obs, args, report)
    if report.exhausted:
        print(f"c budget exhausted: {report.failure_reason}")
        return EXIT_RESOURCE_LIMIT
    if not report.ok:
        print(f"c failed at event {report.failed_event_index}: "
              f"{report.failure_reason}")
        return EXIT_PROOF_BAD
    return 0


def _cmd_verify_stream(args: argparse.Namespace) -> int:
    import os
    import signal

    from repro.verify.streaming import (
        DEFAULT_CHECKPOINT_EVERY,
        verify_stream,
    )
    from repro.proofs.stream import DEFAULT_CHUNK_BYTES

    if args.resume and args.checkpoint is None:
        print("c error: --resume requires --checkpoint",
              file=sys.stderr)
        return EXIT_ERROR
    formula = read_dimacs(args.cnf)
    obs = _obs_from(args)

    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    # SIGTERM gets the same treatment as ^C: the streaming driver
    # flushes a resume token before unwinding, so a supervisor kill
    # is just a pause.  Only install from the main thread (signal
    # raises ValueError elsewhere, e.g. under embedded use).
    previous_sigterm = None
    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _sigterm)
    except ValueError:
        pass
    try:
        report = _run_instrumented(
            args, obs,
            lambda: verify_stream(
                formula, args.drup,
                budget=_budget_from(args),
                obs=obs,
                engine_cls=args.engine,
                checkpoint_path=args.checkpoint,
                checkpoint_every=(args.checkpoint_every
                                  if args.checkpoint_every is not None
                                  else DEFAULT_CHECKPOINT_EVERY),
                resume=args.resume,
                lenient_deletions=args.lenient_deletions,
                chunk_bytes=(args.chunk_bytes
                             if args.chunk_bytes is not None
                             else DEFAULT_CHUNK_BYTES)))
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
    if report is None:
        if args.checkpoint is not None \
                and os.path.exists(args.checkpoint):
            print(f"c resume token at {args.checkpoint} "
                  f"(rerun with --resume)")
        return EXIT_INTERRUPT
    print(f"s {report.outcome.upper()}")
    print(f"c additions={report.num_additions} "
          f"deletions={report.num_deletions} "
          f"peak_live={report.peak_live_clauses} "
          f"window_shifts={report.window_shifts} "
          f"checkpoints={report.checkpoints_written} "
          f"time={report.verification_time:.3f}s")
    if report.resumed_from_event is not None:
        print(f"c resumed from event {report.resumed_from_event}")
    for warning in report.warnings:
        print(f"c warning: {warning}")
    _print_stats_footer(args, report, report.bcp_counters)
    _write_trace(obs, args, report)
    _record_history(obs, args, report)
    if report.exhausted:
        print(f"c budget exhausted: {report.failure_reason}")
        if report.checkpoint_path is not None:
            print(f"c resume token at {report.checkpoint_path} "
                  f"(rerun with --resume)")
        return EXIT_RESOURCE_LIMIT
    if not report.ok:
        print(f"c failed at event {report.failed_event_index}: "
              f"{report.failure_reason}")
        return EXIT_PROOF_BAD
    return 0


def _cmd_obs_timeline(args: argparse.Namespace) -> int:
    from repro.obs import read_jsonl
    from repro.obs.timeline import (
        build_timeline,
        render_timeline_html,
        render_timeline_text,
    )

    doc = build_timeline(read_jsonl(args.trace), top=args.top)
    if args.html is not None:
        from repro.obs import atomic_write_text

        atomic_write_text(args.html, render_timeline_html(doc))
        print(f"c timeline HTML written to {args.html}")
    if not args.quiet:
        print(render_timeline_text(doc), end="")
    return 0


def _cmd_obs_top(args: argparse.Namespace) -> int:
    import time as _time

    from repro.obs.live import (
        all_settled,
        format_top_table,
        read_live_statuses,
    )

    live_dir = (args.live_dir or os.environ.get("REPRO_LIVE_DIR")
                or os.path.join(DEFAULT_HISTORY_DIR, "live"))
    while True:
        statuses = read_live_statuses(live_dir)
        now = _time.time()
        print(format_top_table(statuses, now=now,
                               stale_after=args.stale_after), end="")
        if not args.follow:
            return 0
        if statuses and all_settled(statuses, now=now,
                                    stale_after=args.stale_after):
            return 0
        _time.sleep(args.interval)


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import HistoryStore, check_regression, compare_runs
    from repro.obs.insight import (
        format_compare_table,
        format_history,
        load_fingerprint,
    )

    if args.obs_command == "timeline":
        return _cmd_obs_timeline(args)
    if args.obs_command == "top":
        return _cmd_obs_top(args)
    store = HistoryStore(args.history_dir)
    if args.obs_command == "history":
        if getattr(args, "history_command", None) == "prune":
            removed = store.prune(args.keep)
            print(f"c history pruned: {removed} fingerprint(s) "
                  f"removed, {min(args.keep, len(store.read()))} kept")
            return 0
        print(format_history(store.read(), limit=args.limit))
        return 0

    def resolve(selector: str) -> dict:
        if os.path.isfile(selector):
            return load_fingerprint(selector)
        return store.select(selector)

    try:
        if args.obs_command == "compare":
            a, b = resolve(args.a), resolve(args.b)
            print(format_compare_table(a, b, compare_runs(a, b)))
            return 0
        baseline = resolve(args.baseline)
        current = resolve(args.current)
        violations = check_regression(
            baseline, current,
            max_wall_pct=args.max_wall_pct,
            max_props_drop_pct=args.max_props_drop_pct,
            max_phase_pct=args.max_phase_pct,
            min_utilization_pct=args.min_utilization,
            max_peak_rss_growth_pct=args.max_peak_rss_growth)
    except LookupError as exc:
        print(f"c error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"c baseline {baseline.get('id')} vs current "
          f"{current.get('id')}")
    if violations:
        for violation in violations:
            print(f"c regression: {violation}")
        return EXIT_RESOURCE_LIMIT
    print("c no regression past thresholds")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run a CLI command; operational failures become one-line
    ``c error:`` diagnostics and typed exit codes, never tracebacks."""
    args = _build_parser().parse_args(argv)
    handlers = {"solve": _cmd_solve, "verify": _cmd_verify,
                "core": _cmd_core, "verify-drup": _cmd_verify_drup,
                "verify-stream": _cmd_verify_stream, "obs": _cmd_obs}
    try:
        return handlers[args.command](args)
    except (DimacsParseError, ProofFormatError) as exc:
        print(f"c error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (ReproError, OSError, ValueError) as exc:
        print(f"c error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except KeyboardInterrupt:
        print("c error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPT


if __name__ == "__main__":
    sys.exit(main())
