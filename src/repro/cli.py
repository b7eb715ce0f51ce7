"""Command-line interface: solve, verify, and inspect traces.

The paper's workflow is inherently two-process — a solver writes the
proof to disk, an *independent* checker validates it — so the library
ships a CLI making that workflow literal::

    python -m repro solve formula.cnf --proof formula.ccp
    python -m repro verify formula.cnf formula.ccp --core-out core.cnf

``verify`` takes a conflict clause proof or a DRUP trace
(``solve --drup``), told apart by the ``p ccproof`` header.

Exit codes: ``solve`` exits 10 for SAT and 20 for UNSAT (the SAT
competition convention); ``verify`` exits 0 when the proof is correct
and 1 when it is not.  A run that exhausts its ``--timeout``/
``--max-props`` budget exits 3 (no verdict either way); malformed
input files exit 65 (``EX_DATAERR``), an interrupted run (SIGINT or
SIGTERM) exits 130 after flushing its trace, and every other
operational error exits 2 — always as a one-line ``c error:``
diagnostic, never a traceback.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from contextlib import nullcontext
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
    solve_cmd.add_argument("--stats", action="store_true",
                           help="print solver statistics")

    verify_cmd = sub.add_parser(
        "verify", help="verify a conflict clause proof or a DRUP trace")
    verify_cmd.add_argument("cnf", help="the original DIMACS CNF file")
    verify_cmd.add_argument("proof",
                            help="the proof file: a conflict clause "
                                 "proof (p ccproof header) or a DRUP "
                                 "trace (no header)")
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
    verify_cmd.add_argument("--core-out", metavar="FILE", default=None,
                            help="write the unsat core (the marked "
                                 "clauses of the formula) here as "
                                 "DIMACS; needs verification2")
    _add_budget_arguments(verify_cmd)
    _add_obs_arguments(verify_cmd)

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
    if args.timeout is None and args.max_props is None:
        return None
    from repro.verify.budget import CheckBudget

    return CheckBudget(timeout=args.timeout, max_props=args.max_props)


def _add_obs_arguments(cmd: argparse.ArgumentParser) -> None:
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
    group.add_argument("--depgraph-out", metavar="PATH", default=None,
                       help="write the proof dependency graph here as "
                            "JSONL (schema repro.obs.depgraph/v1)")
    group.add_argument("--depgraph-dot", metavar="PATH", default=None,
                       help="write the proof dependency graph here in "
                            "Graphviz DOT")


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
    wants_depgraph = args.depgraph_out is not None \
        or args.depgraph_dot is not None
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
    trace on disk is always complete and schema-valid, with every span
    the interrupt cut short ended.
    """
    if obs is None or args.trace_out is None:
        return
    elapsed = time.perf_counter() - obs.started
    from repro.obs import run_summary

    if report is None:
        obs.tracer.end_open_spans(interrupted=True)
    summary = run_summary(obs, args.command, report, analytics)
    if report is not None:
        # From the parse through the report: what the phases split.
        summary["elapsed"] = elapsed
    obs.event("run_summary", **summary)
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
        jobs=report.jobs if report is not None else args.jobs)
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
            proof = ConflictClauseProof.from_log(result.log)
            sizes = compare_proof_sizes(result.log)
            write_proof(proof, args.proof,
                        comment=f"refutation of {args.cnf}")
            print(f"c proof written to {args.proof}: {len(proof)} "
                  f"clauses, {proof.literal_count()} literals"
                  f" (resolution graph: "
                  f"{sizes.resolution_graph_nodes} nodes)")
        if args.drup:
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
    if args.core_out is not None and args.procedure != "verification2":
        print("c error: --core-out requires --procedure verification2",
              file=sys.stderr)
        return EXIT_ERROR
    # Load the checker first: the run's clock (run_summary.elapsed)
    # times parse through report, not the loading of code.
    import repro.verify.verification  # noqa: F401
    obs = _obs_from(args)
    proof = None
    try:
        with _span(obs, "parse"):
            formula = read_dimacs(args.cnf, strict=args.strict)
            proof = read_proof(args.proof, formula)
        report = verify_proof(
            formula, proof, procedure=args.procedure,
            engine_cls=args.engine, mode=args.mode, jobs=args.jobs,
            budget=_budget_from(args), obs=obs)
    except KeyboardInterrupt:
        # Flush every requested artifact (trace, partial depgraph)
        # atomically: a ^C never leaves one truncated or missing.
        print("c error: interrupted", file=sys.stderr)
        if proof is not None:
            _write_insight_artifacts(obs, args, None, formula, proof)
        _write_trace(obs, args, None)
        return EXIT_INTERRUPT
    with _span(obs, "report"):
        code, analytics = _print_report(args, obs, report, formula,
                                        proof)
    _write_trace(obs, args, report, analytics)
    return code


def _span(obs: Obs | None, name: str):
    """A top-level trace span of ``repro verify`` (parse, report)."""
    return obs.span(name) if obs is not None else nullcontext()


def _print_report(args: argparse.Namespace, obs: Obs | None, report,
                  formula, proof):
    """Print the verdict lines and write --core-out and the insight
    artifacts; returns the exit code and the proof-shape analytics."""
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
    if report.exhausted:
        print(f"c budget exhausted: {report.failure_reason}")
        return EXIT_RESOURCE_LIMIT, analytics
    if not report.ok:
        if report.failed_clause_index is None:
            print(f"c {report.failure_reason}")
        else:
            print(f"c questionable clause at chronological index "
                  f"{report.failed_clause_index}: "
                  f"{proof[report.failed_clause_index]}")
        return EXIT_PROOF_BAD, analytics
    if report.core is not None:
        print(f"c unsat core: {report.core.size}/"
              f"{formula.num_clauses} clauses "
              f"({report.core.fraction:.1%})")
    if args.core_out is not None:
        write_dimacs(report.core.as_formula(), args.core_out,
                     comment=f"unsat core of {args.cnf}")
        print(f"c core written to {args.core_out}")
    return 0, analytics


def _cmd_obs_timeline(args: argparse.Namespace) -> int:
    from repro.obs import read_jsonl
    from repro.obs.timeline import build_timeline, render_timeline_text

    if args.top < 0:
        print("c error: --top must be >= 0", file=sys.stderr)
        return EXIT_ERROR
    doc = build_timeline(read_jsonl(args.trace), top=args.top)
    print(render_timeline_text(doc), end="")
    return 0


class _StdoutUntilEpipe:
    """``sys.stdout`` that points its descriptor at ``os.devnull`` once a
    write or flush hits a closed pipe (``repro verify ... | head -1``).

    The run goes on: later output is dropped, every requested artifact
    is still written, the exit code stays the verdict's, and the
    interpreter's final flush finds nothing to fail on.
    """

    def __init__(self, stream):
        self._stream = stream

    def __getattr__(self, name):
        return getattr(self._stream, name)

    def write(self, text: str) -> int:
        try:
            return self._stream.write(text)
        except BrokenPipeError:
            self._silence()
            return len(text)

    def flush(self) -> None:
        try:
            self._stream.flush()
        except BrokenPipeError:
            self._silence()

    def _silence(self) -> None:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, self._stream.fileno())
        finally:
            os.close(devnull)


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str] | None = None) -> int:
    """Run a CLI command; operational failures become one-line
    ``c error:`` diagnostics and typed exit codes, never tracebacks.

    SIGTERM gets the same treatment as ^C: the run unwinds through
    ``KeyboardInterrupt``, so a verify run flushes its trace, its pool
    reaps its workers, and the exit code is 130.  The handler is only
    installed from the main thread (``signal`` refuses elsewhere).
    """
    args = _build_parser().parse_args(argv)
    handlers = {"solve": _cmd_solve, "verify": _cmd_verify,
                "obs": _cmd_obs_timeline}
    previous_sigterm = None
    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _interrupt)
    except ValueError:
        pass
    stdout, sys.stdout = sys.stdout, _StdoutUntilEpipe(sys.stdout)
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
    finally:
        sys.stdout.flush()
        sys.stdout = stdout
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)


if __name__ == "__main__":
    sys.exit(main())
