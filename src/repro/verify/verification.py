"""The paper's two proof verification procedures.

``verify_proof_v1`` is Proof_verification1 (Section 3): every clause of
``F*`` is checked, in reverse chronological order, by falsifying it and
running BCP over the formula plus the earlier-deduced clauses.  Because
its checks are independent by construction, it also offers a
process-parallel backend (``jobs > 1``) that shards the proof indices
across a worker pool with deterministic first-failure reporting.

``verify_proof_v2`` is Proof_verification2 (Section 4): only clauses
marked as contributing to the refutation are checked — marking starts
from the final conflicting pair and is extended by conflict analysis of
each BCP conflict — and the marked clauses of ``F`` are returned as an
unsatisfiable core.

Both run their checks through one loop, :func:`scan`.  Seen as a
loop, Proof_verification1 is Proof_verification2's backward scan with
every clause checked and no marking; the parallel workers scan their
shards the same way.  One helper, :func:`_report`, turns the scan's
end into every report.

Both procedures accept ``mode``: ``"incremental"`` (the default) keeps
a persistent root trail and retires clauses behind the moving ceiling
(see :mod:`repro.verify.checker`), which is markedly cheaper on
backward passes, while ``"rebuild"`` re-asserts the unit clauses inside
every check, keeping each check free of history.

Both also accept an optional :class:`~repro.verify.budget.CheckBudget`:
when the budget runs out mid-verification the run aborts cleanly with
the ``resource_limit_exceeded`` outcome and partial progress
(``num_checked``, ``stopped_at_index``) instead of running unbounded.

Instrumentation: both accept an optional :class:`~repro.obs.context.
Obs`.  With one attached, the scan times every check into histograms
and every marking walk into one total, phases become trace spans, a
progress heartbeat ticks, and the report's
:class:`~repro.verify.report.VerificationStats` gains the slowest-K
check indices.  Without one (the default), the drivers take a
registry-free fast path: per check, the scan reads no clock.
All reports are built through the shared
:class:`~repro.verify.instrument.ReportBuilder`, the single place
``verification_time`` and the stats breakdown are computed.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, NamedTuple

from repro.bcp import engine_name, resolve_engine
from repro.bcp.engine import PropagatorBase
from repro.bcp.watched import WatchedPropagator
from repro.core.exceptions import BudgetExhausted
from repro.core.formula import CnfFormula
from repro.proofs.conflict_clause import (
    ENDING_EMPTY,
    ENDING_FINAL_PAIR,
    ConflictClauseProof,
)
from repro.verify.checker import ProofChecker, check_mode
from repro.verify.conflict_analysis import collect_responsible
from repro.verify.instrument import ReportBuilder
from repro.verify.report import (
    PROOF_IS_CORRECT,
    PROOF_IS_NOT_CORRECT,
    RESOURCE_LIMIT_EXCEEDED,
    UnsatCore,
    VerificationReport,
)

if TYPE_CHECKING:
    from repro.verify.budget import CheckBudget

def _resolve_jobs(jobs: int, obs=None) -> int:
    """Validate the worker count; with instrumentation attached it is
    recorded as a gauge and a ``jobs_resolved`` trace event."""
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"jobs must be a positive int, got {jobs!r}")
    if obs is not None:
        obs.gauge_set("repro_verify_jobs", jobs,
                      help="Resolved worker process count")
        obs.event("jobs_resolved", jobs=jobs)
    return jobs


def _resolve_engine_cls(engine_cls, obs,
                        mode: str | None = None) -> type[PropagatorBase]:
    """Resolve an engine (name, class, or None) to a class.

    The default engine is watched, also under dependency-graph
    capture, so a captured run checks what an uncaptured one would.
    An explicit ``engine_cls`` — a :data:`repro.bcp.ENGINES` name
    (``"watched"``, ``"counting"``) or a
    :class:`~repro.bcp.engine.PropagatorBase` subclass — always wins
    over this default.

    With instrumentation attached the decision is put on record as a
    ``kernel_selected`` trace event carrying what was requested, which
    engine won, and the *reason* — the rule that picked it.
    """
    if engine_cls is not None:
        requested = engine_cls if isinstance(engine_cls, str) \
            else getattr(engine_cls, "__name__", repr(engine_cls))
        resolved = resolve_engine(engine_cls)
        reason = "explicit request"
    else:
        requested = "default"
        resolved = WatchedPropagator
        reason = "default: the paper's watched-literal engine"
    if obs is not None:
        obs.event("kernel_selected", requested=requested,
                  engine=engine_name(resolved), mode=mode, reason=reason)
    return resolved


class ScanResult(NamedTuple):
    """How a :func:`scan` ended.

    ``failed_index`` is the index whose check produced no conflict;
    ``budget_reason`` and ``stopped_at_index`` say why and where an
    exhausted budget cut the scan short.  Both stay None when every
    scanned check passed.
    """

    num_checked: int = 0
    num_skipped: int = 0
    failed_index: int | None = None
    budget_reason: str | None = None
    stopped_at_index: int | None = None


def scan(checker: ProofChecker, indices, marked: set[int] | None = None,
         records: list | None = None,
         instrument: ReportBuilder | None = None) -> ScanResult:
    """Check the proof clauses at ``indices``, in order: the one check
    loop behind verification1, verification2 and the pool workers.

    With a ``marked`` set of clause ids (verification2) the scan skips
    every clause not in it and adds each conflict's responsible clauses
    to it, so marks only grow as a backward scan goes; newly marked
    clauses are promoted into the engine's core tier.  ``records``
    receives one dependency-graph record per conflict.  With an
    ``instrument`` (a :class:`ReportBuilder`) the scan times each
    check and each marking walk inline and hands the builder the
    readings; None is the fast path, which reads no clock.

    The scan stops at the first check without a conflict, or when the
    checker's budget meter runs out.
    """
    engine = checker.engine
    counters = engine.counters
    num_input = checker.num_input
    walk = marked is not None or records is not None
    timed = instrument is not None
    checked = skipped = 0
    for index in indices:
        cid = num_input + index
        if marked is not None and cid not in marked:
            skipped += 1
            continue
        if timed or records is not None:
            work_before = counters.total_work()
            start = time.perf_counter()
        try:
            outcome = checker.check_clause(index)
        except BudgetExhausted as exc:
            return ScanResult(checked, skipped, budget_reason=str(exc),
                              stopped_at_index=index)
        if timed:
            instrument.observe_check(
                index, time.perf_counter() - start,
                counters.total_work() - work_before)
        if walk and outcome.confl_cid is not None:
            # Before reset(): the walk reads the post-propagation
            # reasons.  One walk serves both the marking and the
            # dependency record — the depgraph is the paper's marking
            # machinery made visible, not a second pass.
            if timed:
                start = time.perf_counter()
            responsible = collect_responsible(engine, outcome.confl_cid)
            if timed:
                instrument.marking += time.perf_counter() - start
            if marked is not None:
                # Later checks then find their conflicts over marked
                # clauses first, and so mark fewer new ones.
                fresh = responsible - marked
                marked |= fresh
                engine.promote(fresh)
            if records is not None:
                records.append({
                    "type": "check", "index": index, "cid": cid,
                    "antecedents": sorted(responsible - {cid}),
                    "confl": outcome.confl_cid,
                    "props": counters.total_work() - work_before})
        checker.reset()
        checked += 1
        if not outcome.conflict:
            return ScanResult(checked, skipped, failed_index=index)
    return ScanResult(checked, skipped)


def _records(obs) -> list | None:
    """The dependency-graph record list a scan appends to, if any."""
    return obs.depgraph.checks if obs is not None \
        and obs.wants_depgraph else None


def _report(build: ReportBuilder, obs, proof: ConflictClauseProof,
            result: ScanResult, counters: dict[str, int],
            root_stats: dict[str, int] | None = None,
            **fields) -> VerificationReport:
    """Build a run's report: the scan's end becomes the outcome.

    An exhausted budget wins over a failure (a parallel run can meet
    both).  ``fields`` are extra report fields (core, warnings...).
    ``root_stats`` are a sequential checker's root-trail counters, the
    observable form of the rebuild-vs-incremental savings; parallel
    runs publish none, since their split depends on which worker ran
    which shard.
    """
    if obs is not None:
        for key, value in (root_stats or {}).items():
            obs.counter_add(f"repro_checker_{key}_total", value,
                            help=f"Incremental checker: {key}")
        obs.publish_depgraph_totals()
    fields.update(num_checked=result.num_checked,
                  num_skipped=result.num_skipped, bcp_counters=counters)
    if result.budget_reason is not None:
        if obs is not None:
            obs.event("budget_exhausted", reason=result.budget_reason)
            obs.counter_add("repro_budget_exhausted_total")
        return build.build(RESOURCE_LIMIT_EXCEEDED,
                           stopped_at_index=result.stopped_at_index,
                           failure_reason=result.budget_reason, **fields)
    if result.failed_index is not None:
        return build.build(
            PROOF_IS_NOT_CORRECT,
            failed_clause_index=result.failed_index,
            failure_reason=(
                f"BCP on the falsified clause {proof[result.failed_index]}"
                " did not produce a conflict"),
            **fields)
    if proof.ending not in (ENDING_FINAL_PAIR, ENDING_EMPTY):
        return build.build(
            PROOF_IS_NOT_CORRECT,
            failure_reason="the trace never derives the empty clause",
            **fields)
    return build.build(PROOF_IS_CORRECT, **fields)


def verify_proof_v1(
        formula: CnfFormula, proof: ConflictClauseProof,
        engine_cls: type[PropagatorBase] | None = None,
        mode: str = "incremental",
        jobs: int = 1,
        budget: CheckBudget | None = None,
        obs=None,
) -> VerificationReport:
    """Proof_verification1: check the correctness of *every* clause of F*.

    Returns ``proof_is_not_correct`` pointing at the first questionable
    clause a backward scan meets (the highest failing index), else
    ``proof_is_correct``.  The paper notes that "the order in which
    clauses are checked does not matter" when all of them are checked;
    the scan runs backward, as the paper's does, so the incremental
    checker can retire the clauses behind it.

    ``jobs > 1`` shards the independent checks across worker processes;
    the verdict and the reported failure index match the sequential
    scan (``num_checked`` may exceed it on failing proofs, since shards
    past the failure still ran).  The parallel backend is
    fault-tolerant: a dead worker's shards are retried once and then
    fall back to in-process sequential checking (see
    :mod:`repro.verify.parallel`).  The pool forks its workers: where
    ``os.fork`` is missing the scan runs in one process with
    ``jobs=1``, the same verdict and failure index, and one report
    warning saying so.

    An exhausted ``budget`` aborts with ``resource_limit_exceeded`` and
    partial progress instead of a verdict.  ``obs`` attaches the
    optional instrumentation layer (metrics, tracing, progress).
    """
    check_mode(mode, proof)
    engine_cls = _resolve_engine_cls(engine_cls, obs, mode=mode)
    jobs = _resolve_jobs(jobs, obs)
    meter = budget.start() if budget is not None else None
    # A one-clause proof has nothing to shard.
    jobs = min(jobs, len(proof)) if len(proof) > 1 else 1
    warnings = ()
    if jobs > 1:
        from repro.verify.parallel import fork_available

        if not fork_available():
            jobs = 1
            warnings = ("os.fork is unavailable; checked in one process",)
    build = ReportBuilder(
        VerificationReport, obs=obs, total_checks=len(proof),
        procedure="verification1", num_proof_clauses=len(proof),
        mode=mode, jobs=jobs, engine=engine_name(engine_cls))
    if jobs > 1:
        from repro.verify.parallel import run_sharded_v1

        with build.phase("pool", procedure="verification1", mode=mode,
                         jobs=jobs):
            run = run_sharded_v1(formula, proof, engine_cls, mode, jobs,
                                 meter, obs=obs, builder=build)
        return _report(build, obs, proof, run, run.counters,
                       worker_failures=run.worker_failures,
                       warnings=run.warnings)
    with build.phase("build", procedure="verification1", mode=mode):
        checker = ProofChecker(formula, proof, engine_cls, mode=mode,
                               meter=meter)
    with build.phase("checks"):
        result = scan(checker, range(len(proof) - 1, -1, -1),
                      records=_records(obs),
                      instrument=build if obs is not None else None)
    return _report(build, obs, proof, result,
                   checker.engine.counters.as_dict(), checker.root_stats,
                   warnings=warnings)


def verify_proof_v2(
        formula: CnfFormula, proof: ConflictClauseProof,
        engine_cls: type[PropagatorBase] | None = None,
        mode: str = "incremental",
        budget: CheckBudget | None = None,
        obs=None,
) -> VerificationReport:
    """Proof_verification2: check only marked clauses; extract a core.

    Initially only the clauses of the final conflicting pair are marked
    (for an empty-ended proof, the final empty clause).  Each passing
    check marks, via conflict analysis, every clause of ``F`` and ``F*``
    responsible for its conflict.  Unmarked clauses of ``F*`` are
    redundant and skipped; marked clauses of ``F`` form the unsatisfiable
    core.

    An exhausted ``budget`` aborts with ``resource_limit_exceeded``; no
    core is reported for a partial run (marking is incomplete).  ``obs``
    attaches the optional instrumentation layer; the marked-clause
    ratio — the quantity Section 6's efficiency claim rests on — is
    exported as the ``repro_verify_marked_ratio`` gauge.
    """
    check_mode(mode, proof)
    engine_cls = _resolve_engine_cls(engine_cls, obs, mode=mode)
    build = ReportBuilder(
        VerificationReport, obs=obs, total_checks=len(proof),
        procedure="verification2", num_proof_clauses=len(proof),
        mode=mode, engine=engine_name(engine_cls))
    meter = budget.start() if budget is not None else None
    with build.phase("build", procedure="verification2", mode=mode):
        checker = ProofChecker(formula, proof, engine_cls, mode=mode,
                               meter=meter)
    num_input = formula.num_clauses
    # The clauses the refutation ends with seed the marks; a trace
    # without an empty clause ends with none, and is refused.
    ending = {ENDING_FINAL_PAIR: 2, ENDING_EMPTY: 1}.get(proof.ending, 0)
    marked = {checker.cid_of_proof_clause(len(proof) - k)
              for k in range(1, ending + 1)}
    with build.phase("checks"):
        result = scan(checker, range(len(proof) - 1, -1, -1),
                      marked=marked, records=_records(obs),
                      instrument=build if obs is not None else None)
    fields = {}
    if result.failed_index is None and result.budget_reason is None:
        with build.phase("core"):
            fields["core"] = UnsatCore(
                tuple(sorted(cid for cid in marked if cid < num_input)),
                formula)
            fields["marked_proof_indices"] = tuple(sorted(
                cid - num_input for cid in marked if cid >= num_input))
    if obs is not None:
        obs.counter_add("repro_verify_checks_skipped_total",
                        result.num_skipped,
                        help="Redundant proof clauses never checked")
        if len(proof):
            obs.gauge_set("repro_verify_marked_ratio",
                          result.num_checked / len(proof),
                          help="Fraction of F* that had to be checked")
    return _report(build, obs, proof, result,
                   checker.engine.counters.as_dict(), checker.root_stats,
                   **fields)


def verify_proof(formula: CnfFormula, proof: ConflictClauseProof,
                 procedure: str = "verification2",
                 engine_cls: type[PropagatorBase] | None = None,
                 mode: str = "incremental",
                 jobs: int = 1,
                 budget: CheckBudget | None = None,
                 obs=None,
                 ) -> VerificationReport:
    """Verify a conflict clause proof (``verification2`` by default).

    The dispatcher forwards every option the selected procedure
    understands: ``jobs`` applies to ``verification1`` only
    (``verification2``'s marking pass is sequential), ``mode``,
    ``engine_cls``, ``budget`` and ``obs`` to both.
    """
    if procedure == "verification1":
        return verify_proof_v1(formula, proof, engine_cls, mode=mode,
                               jobs=jobs, budget=budget, obs=obs)
    if procedure == "verification2":
        if jobs != 1:
            raise ValueError(
                "verification2's marking pass is sequential; "
                f"jobs={jobs!r} is only valid with verification1")
        return verify_proof_v2(formula, proof, engine_cls, mode=mode,
                               budget=budget, obs=obs)
    raise ValueError(f"unknown verification procedure {procedure!r}")
