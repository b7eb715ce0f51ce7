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
import sys
from typing import TYPE_CHECKING

from repro.bcp import ENGINES
from repro.core.dimacs import read_dimacs, write_dimacs
from repro.core.exceptions import (
    DimacsParseError,
    ProofFormatError,
    ReproError,
)
from repro.proofs.conflict_clause import ConflictClauseProof
from repro.proofs.trace_format import read_proof, write_proof

if TYPE_CHECKING:
    from repro.obs import Obs
    from repro.verify.budget import CheckBudget

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_UNKNOWN = 30
EXIT_PROOF_BAD = 1
EXIT_ERROR = 2
EXIT_RESOURCE_LIMIT = 3
EXIT_PARSE_ERROR = 65   # sysexits.h EX_DATAERR: malformed input file
EXIT_INTERRUPT = 130    # 128 + SIGINT


# Each subcommand imports what only it needs, so a ``verify`` process
# never loads the solver and a ``solve`` process never loads the
# checker.  These three stay module attributes (tracing hooks wrap them
# here) and import their implementation on first call.
def verify_proof(formula, proof, **options):
    """:func:`repro.verify.verification.verify_proof`, imported on
    first call."""
    from repro.verify.verification import verify_proof

    return verify_proof(formula, proof, **options)


def solve(formula, options=None):
    """:func:`repro.solver.cdcl.solve`, imported on first call."""
    from repro.solver.cdcl import solve

    return solve(formula, options)


def compare_proof_sizes(log):
    """:func:`repro.proofs.sizes.compare_proof_sizes`, imported on
    first call."""
    from repro.proofs.sizes import compare_proof_sizes

    return compare_proof_sizes(log)


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
    verify_cmd.add_argument("--mode", default="incremental",
                            choices=["rebuild", "incremental"],
                            help="checker state management: keep a "
                                 "persistent root trail (incremental, "
                                 "default) or re-assert units per check")
    verify_cmd.add_argument("--jobs", type=int, default=1, metavar="N",
                            help="worker processes for verification1 "
                                 "(default 1: sequential)")
    verify_cmd.add_argument("--engine", default=None,
                            choices=tuple(ENGINES),
                            help="BCP engine (default: watched)")
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

    stream_cmd = sub.add_parser(
        "verify-stream",
        help="forward-check a DRUP trace (with deletions) in one "
             "bounded-memory streaming pass (chunked parse, "
             "deletion-aware eviction, checkpoint/resume)")
    stream_cmd.add_argument("cnf")
    stream_cmd.add_argument("drup")
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
    _add_obs_arguments(stream_cmd)

    obs_cmd = sub.add_parser(
        "obs", help="inspect trace timelines")
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)

    timeline_cmd = obs_sub.add_parser(
        "timeline",
        help="reconstruct a trace into a global timeline: lanes, "
             "utilization, shard skew, critical path, attribution")
    timeline_cmd.add_argument("trace", metavar="TRACE.jsonl",
                              help="a repro.obs.trace/v1 file "
                                   "(--trace-out of a run)")
    timeline_cmd.add_argument("--top", type=int, default=5, metavar="N",
                              help="straggler rows in the attribution "
                                   "section (default 5)")
    timeline_cmd.add_argument("--quiet", action="store_true",
                              help="suppress the text rendering on "
                                   "stdout")

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
    from repro.verify.budget import CheckBudget

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

    A tracer comes only with ``--trace-out``, whatever ``--jobs`` says.
    A metrics registry comes only with ``--trace-out`` (the trace's
    ``run_summary`` carries its snapshot), ``--stats`` (the footer's
    props and slowest-check lines come from the instrumented per-check
    path).  Any insight output flag attaches a dependency-graph
    recorder (the analytics are computed from its records).
    """
    wants_metrics = args.trace_out is not None or args.stats
    wants_depgraph = _wants_insight(args)
    if not (wants_metrics or args.progress or wants_depgraph):
        return None
    from repro.obs import DepGraphRecorder, MetricsRegistry, Obs, Tracer

    return Obs(
        metrics=MetricsRegistry() if wants_metrics else None,
        tracer=Tracer() if args.trace_out is not None else None,
        progress_stream=sys.stderr if args.progress else None,
        depgraph=DepGraphRecorder() if wants_depgraph else None)


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
    from repro.obs import run_summary

    obs.event("run_summary",
              **run_summary(obs, args.command, report, analytics))
    obs.tracer.write_jsonl(args.trace_out)
    print(f"c trace written to {args.trace_out}")


def _write_insight_artifacts(obs: Obs | None, args: argparse.Namespace,
                             report, formula, proof):
    """Write --depgraph-out/--depgraph-dot artifacts.

    Returns the computed :class:`ProofShapeAnalytics` (or None), so
    the stats footer and the trace summary reuse it.  Tolerates
    ``report=None`` (interrupted run): the partial dependency graph is
    still flushed; analytics need a report and are skipped.
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


def _run_instrumented(args: argparse.Namespace, obs: Obs | None, run,
                      formula=None, proof=None):
    """Run a verification thunk with interrupt-safe artifact flushing.

    Returns the report, or None when the run was interrupted — in
    which case every requested artifact (trace, partial depgraph) has
    already been flushed atomically, so a ^C never leaves a truncated
    or missing artifact behind.
    """
    try:
        return run()
    except KeyboardInterrupt:
        print("c error: interrupted", file=sys.stderr)
        if formula is not None and proof is not None:
            _write_insight_artifacts(obs, args, None, formula, proof)
        _write_trace(obs, args, None)
        return None


def _print_stats_footer(args: argparse.Namespace, report,
                        bcp_counters: dict | None,
                        analytics=None) -> None:
    if not args.stats:
        return
    from repro.obs import stats_footer

    stats = report.stats.as_dict() if report.stats is not None else None
    for line in stats_footer(stats, bcp_counters):
        print(line)
    if analytics is not None:
        from repro.obs.insight import analytics_footer

        for line in analytics_footer(analytics):
            print(line)


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.solver.cdcl import SolverOptions

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
    # Usage errors first: they need no file read.
    if args.jobs < 1:
        print("c error: --jobs must be >= 1", file=sys.stderr)
        return EXIT_ERROR
    if args.procedure == "verification2" and args.jobs != 1:
        print("c error: --jobs requires --procedure verification1",
              file=sys.stderr)
        return EXIT_ERROR
    formula = read_dimacs(args.cnf, strict=args.strict)
    proof = read_proof(args.proof)
    obs = _obs_from(args)
    report = _run_instrumented(
        args, obs, lambda: verify_proof(
            formula, proof, procedure=args.procedure,
            engine_cls=args.engine,
            mode=args.mode, jobs=args.jobs,
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


def _cmd_verify_stream(args: argparse.Namespace) -> int:
    import os
    import signal

    from repro.verify.streaming import (
        DEFAULT_CHECKPOINT_EVERY,
        verify_stream,
    )

    if args.resume and args.checkpoint is None:
        print("c error: --resume requires --checkpoint",
              file=sys.stderr)
        return EXIT_ERROR
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        print("c error: --checkpoint-every must be >= 1",
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
                checkpoint_path=args.checkpoint,
                checkpoint_every=(args.checkpoint_every
                                  if args.checkpoint_every is not None
                                  else DEFAULT_CHECKPOINT_EVERY),
                resume=args.resume,
                lenient_deletions=args.lenient_deletions))
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
    from repro.obs.timeline import build_timeline, render_timeline_text

    if args.top < 0:
        print("c error: --top must be >= 0", file=sys.stderr)
        return EXIT_ERROR
    doc = build_timeline(read_jsonl(args.trace), top=args.top)
    if not args.quiet:
        print(render_timeline_text(doc), end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run a CLI command; operational failures become one-line
    ``c error:`` diagnostics and typed exit codes, never tracebacks."""
    args = _build_parser().parse_args(argv)
    handlers = {"solve": _cmd_solve, "verify": _cmd_verify,
                "core": _cmd_core, "verify-stream": _cmd_verify_stream,
                "obs": _cmd_obs_timeline}
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
