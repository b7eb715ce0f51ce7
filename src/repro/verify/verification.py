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

Both procedures accept ``mode``: ``"rebuild"`` re-asserts the unit
clauses inside every check (the original behavior), while
``"incremental"`` keeps a persistent root trail and retires clauses
behind the moving ceiling (see :mod:`repro.verify.checker`), which is
markedly cheaper on backward passes.

Both also accept an optional :class:`~repro.verify.budget.CheckBudget`:
when the budget runs out mid-verification the run aborts cleanly with
the ``resource_limit_exceeded`` outcome and partial progress
(``num_checked``, ``stopped_at_index``) instead of running unbounded.

Instrumentation: both accept an optional :class:`~repro.obs.context.
Obs`.  With one attached, every check is timed into histograms, phases
and checks become trace spans, a progress heartbeat ticks, and the
report's :class:`~repro.verify.report.VerificationStats` gains the
slowest-K check indices.  Without one (the default), the drivers take
a registry-free fast path — per-check cost is one ``is None`` branch.
All reports are built through the shared
:class:`~repro.verify.instrument.ReportBuilder`, the single place
``verification_time`` and the stats breakdown are computed.
"""

from __future__ import annotations

import os

from repro.bcp import engine_name, resolve_engine
from repro.bcp.engine import PropagatorBase
from repro.bcp.watched import WatchedPropagator
from repro.core.formula import CnfFormula
from repro.proofs.conflict_clause import ENDING_FINAL_PAIR, \
    ConflictClauseProof
from repro.verify.budget import BudgetExhausted, BudgetMeter, CheckBudget
from repro.verify.checker import CHECKER_MODES, ProofChecker
from repro.verify.conflict_analysis import collect_responsible
from repro.verify.instrument import ReportBuilder
from repro.verify.report import (
    PROOF_IS_CORRECT,
    PROOF_IS_NOT_CORRECT,
    RESOURCE_LIMIT_EXCEEDED,
    UnsatCore,
    VerificationReport,
)

V1_ORDERS = ("backward", "forward")


def _check_mode(mode: str) -> None:
    if mode not in CHECKER_MODES:
        raise ValueError(f"unknown checker mode {mode!r}; "
                         f"expected one of {CHECKER_MODES}")


def _check_order(order: str) -> None:
    if order not in V1_ORDERS:
        raise ValueError(f"unknown order {order!r}; "
                         f"expected one of {V1_ORDERS}")


def _resolve_jobs(jobs: int | None, obs=None) -> int:
    """Validate the worker count; ``None`` means "pick a default".

    The resolved count — and where it came from (explicit argument,
    ``REPRO_JOBS`` override, or CPU-count default) — is recorded as a
    gauge and a trace event when instrumentation is attached.
    """
    if jobs is None:
        from repro.verify.parallel import default_jobs

        source = "env:REPRO_JOBS" if os.environ.get("REPRO_JOBS") \
            else "default"
        jobs = default_jobs()
    else:
        source = "explicit"
        if isinstance(jobs, bool) or not isinstance(jobs, int):
            raise ValueError(f"jobs must be a positive int or None "
                             f"(auto-detect), got {jobs!r}")
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1 or None (auto-detect), "
                             f"got {jobs!r}")
    if obs is not None:
        obs.gauge_set("repro_verify_jobs", jobs,
                      help="Resolved worker process count")
        obs.event("jobs_resolved", jobs=jobs, source=source)
    return jobs


def _resolve_engine_cls(engine_cls, obs, mode: str | None = None,
                        order: str | None = None) -> type[PropagatorBase]:
    """Resolve an engine (name, class, or None) to a class.

    Default engine: watched normally, counting under capture.  The
    watched engine permanently reorders its watch lists (and the
    literals inside each clause) as checks run, so the conflicting
    clause a check reports — and hence its conflict-analysis support —
    depends on which checks ran earlier in the same engine.  The
    counting engine's occurrence lists are fixed at load time and its
    counters are restored on backtrack, which makes every rebuild-mode
    check a pure function of ``(F, F*, index)``: the captured
    dependency graph is then identical for any check order or sharding
    (the ``--jobs 1`` vs ``--jobs 4`` artifact-identity guarantee).
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
    elif obs is not None and obs.wants_depgraph:
        from repro.bcp.counting import CountingPropagator

        requested = "default(depgraph)"
        resolved = CountingPropagator
        reason = ("depgraph capture: counting's fixed occurrence "
                  "lists make provenance order-independent")
    else:
        requested = "default"
        resolved = WatchedPropagator
        reason = "default: the paper's watched-literal engine"
    if obs is not None:
        obs.event("kernel_selected", requested=requested,
                  engine=engine_name(resolved), mode=mode, order=order,
                  reason=reason)
    return resolved


def _publish_checker_stats(obs, checker: ProofChecker) -> None:
    """Publish the checker's root-trail maintenance counters — the
    observable form of the rebuild-vs-incremental savings — plus the
    captured dependency-graph totals, if a recorder is attached."""
    if obs is None:
        return
    for key, value in checker.root_stats.items():
        obs.counter_add(f"repro_checker_{key}_total", value,
                        help=f"Incremental checker: {key}")
    obs.publish_depgraph_totals()


def verify_proof_v1(
        formula: CnfFormula, proof: ConflictClauseProof,
        engine_cls: type[PropagatorBase] | None = None,
        order: str = "backward",
        mode: str = "rebuild",
        jobs: int | None = 1,
        budget: CheckBudget | None = None,
        obs=None,
) -> VerificationReport:
    """Proof_verification1: check the correctness of *every* clause of F*.

    Returns ``proof_is_not_correct`` pointing at the first questionable
    clause (in processing order), else ``proof_is_correct``.

    The paper notes that "the order in which clauses are checked does
    not matter" when all of them are checked; ``order`` exposes both
    directions (``"backward"``, the paper's default, or ``"forward"``)
    — the verdict is order-independent, only the index of the first
    failure reported can differ.

    ``jobs > 1`` shards the independent checks across worker processes
    (``jobs=None`` auto-sizes to the machine, honoring a ``REPRO_JOBS``
    environment override); the verdict and the reported failure index
    match the sequential scan (``num_checked`` may exceed it on failing
    proofs, since shards past the failure still ran).  The parallel
    backend is fault-tolerant: a dead worker's shards are retried once
    and then fall back to in-process sequential checking (see
    :mod:`repro.verify.parallel`).  On platforms without the ``fork``
    start method the workers start under ``spawn`` and receive the
    formula and proof pickled; they run the requested engine either
    way.

    An exhausted ``budget`` aborts with ``resource_limit_exceeded`` and
    partial progress instead of a verdict.  ``obs`` attaches the
    optional instrumentation layer (metrics, tracing, progress); when
    it carries a dependency-graph recorder and no explicit
    ``engine_cls`` is given, the counting engine is selected so the
    captured graph is independent of check order and sharding (see
    :func:`_resolve_engine_cls`).
    """
    _check_order(order)
    _check_mode(mode)
    engine_cls = _resolve_engine_cls(engine_cls, obs, mode=mode,
                                     order=order)
    jobs = _resolve_jobs(jobs, obs)
    meter = budget.start() if budget is not None else None
    if jobs > 1 and len(proof) > 1:
        # The backend picks the start method itself (see
        # select_backend).
        return _verify_proof_v1_parallel(formula, proof, engine_cls,
                                         order, mode, jobs, meter, obs)
    build = ReportBuilder(
        VerificationReport, obs=obs, total_checks=len(proof),
        procedure="verification1", num_proof_clauses=len(proof),
        mode=mode, engine=engine_name(engine_cls))
    with build.phase("setup", procedure="verification1", mode=mode,
                     order=order):
        # Retirement requires a monotone-decreasing ceiling (backward).
        checker = ProofChecker(formula, proof, engine_cls, mode=mode,
                               retire=(order == "backward"), meter=meter)
    counters = checker.engine.counters
    checked = 0
    capture = obs is not None and obs.wants_depgraph
    indices = (range(len(proof) - 1, -1, -1) if order == "backward"
               else range(len(proof)))
    with build.phase("checks"):
        for index in indices:
            work_before = counters.total_work() if capture else 0
            try:
                if obs is None:
                    outcome = checker.check_clause(index)
                else:
                    with build.check(index, counters):
                        outcome = checker.check_clause(index)
            except BudgetExhausted as exc:
                if obs is not None:
                    obs.event("budget_exhausted", reason=str(exc))
                    obs.counter_add("repro_budget_exhausted_total")
                _publish_checker_stats(obs, checker)
                return build.build(
                    RESOURCE_LIMIT_EXCEEDED,
                    num_checked=checked,
                    stopped_at_index=index,
                    failure_reason=str(exc),
                    bcp_counters=counters.as_dict())
            if capture and outcome.conflict \
                    and outcome.confl_cid is not None:
                # Before reset(): the responsibility walk reads the
                # post-propagation reasons.
                obs.record_dependency(
                    index, checker.cid_of_proof_clause(index),
                    collect_responsible(checker.engine,
                                        outcome.confl_cid),
                    confl=outcome.confl_cid,
                    props=counters.total_work() - work_before)
            checker.reset()
            checked += 1
            if not outcome.conflict:
                _publish_checker_stats(obs, checker)
                return build.build(
                    PROOF_IS_NOT_CORRECT,
                    num_checked=checked,
                    failed_clause_index=index,
                    failure_reason=(
                        f"BCP on the falsified clause {proof[index]} "
                        "did not produce a conflict"),
                    bcp_counters=counters.as_dict())
    _publish_checker_stats(obs, checker)
    return build.build(PROOF_IS_CORRECT, num_checked=checked,
                       bcp_counters=counters.as_dict())


def _verify_proof_v1_parallel(
        formula: CnfFormula, proof: ConflictClauseProof,
        engine_cls: type[PropagatorBase], order: str, mode: str,
        jobs: int, meter: BudgetMeter | None,
        obs=None) -> VerificationReport:
    from repro.verify.parallel import run_sharded_v1

    jobs = min(jobs, len(proof))
    build = ReportBuilder(
        VerificationReport, obs=obs, total_checks=len(proof),
        procedure="verification1", num_proof_clauses=len(proof),
        mode=mode, jobs=jobs, engine=engine_name(engine_cls))
    with build.phase("pool", procedure="verification1", mode=mode,
                     order=order, jobs=jobs):
        run = run_sharded_v1(formula, proof, engine_cls, order, mode,
                             jobs, meter, obs=obs, builder=build)
    if obs is not None:
        obs.publish_depgraph_totals()
    if run.budget_reason is not None:
        if obs is not None:
            obs.event("budget_exhausted", reason=run.budget_reason)
            obs.counter_add("repro_budget_exhausted_total")
        return build.build(
            RESOURCE_LIMIT_EXCEEDED,
            num_checked=run.num_checked,
            stopped_at_index=run.stopped_at_index,
            failure_reason=run.budget_reason,
            bcp_counters=run.counters,
            worker_failures=run.worker_failures, warnings=run.warnings)
    if run.failed_index is not None:
        return build.build(
            PROOF_IS_NOT_CORRECT,
            num_checked=run.num_checked,
            failed_clause_index=run.failed_index,
            failure_reason=(
                f"BCP on the falsified clause {proof[run.failed_index]} "
                "did not produce a conflict"),
            bcp_counters=run.counters,
            worker_failures=run.worker_failures, warnings=run.warnings)
    return build.build(
        PROOF_IS_CORRECT,
        num_checked=run.num_checked,
        bcp_counters=run.counters,
        worker_failures=run.worker_failures, warnings=run.warnings)


def verify_proof_v2(
        formula: CnfFormula, proof: ConflictClauseProof,
        engine_cls: type[PropagatorBase] | None = None,
        mode: str = "rebuild",
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
    exported as the ``repro_verify_marked_ratio`` gauge.  When ``obs``
    carries a dependency-graph recorder and no explicit ``engine_cls``
    is given, the counting engine is selected for reproducible
    provenance (see :func:`_resolve_engine_cls`).
    """
    _check_mode(mode)
    engine_cls = _resolve_engine_cls(engine_cls, obs, mode=mode,
                                     order="backward")
    build = ReportBuilder(
        VerificationReport, obs=obs, total_checks=len(proof),
        procedure="verification2", num_proof_clauses=len(proof),
        mode=mode, engine=engine_name(engine_cls))
    meter = budget.start() if budget is not None else None
    with build.phase("setup", procedure="verification2", mode=mode):
        checker = ProofChecker(formula, proof, engine_cls, mode=mode,
                               meter=meter)
    counters = checker.engine.counters
    num_input = formula.num_clauses
    marked: set[int] = set()
    if proof.ending == ENDING_FINAL_PAIR:
        marked.add(checker.cid_of_proof_clause(len(proof) - 1))
        marked.add(checker.cid_of_proof_clause(len(proof) - 2))
    else:
        marked.add(checker.cid_of_proof_clause(len(proof) - 1))

    checked = 0
    skipped = 0

    def finish_metrics() -> None:
        _publish_checker_stats(obs, checker)
        if obs is not None:
            obs.counter_add("repro_verify_checks_skipped_total", skipped,
                            help="Redundant proof clauses never checked")
            if len(proof):
                obs.gauge_set(
                    "repro_verify_marked_ratio",
                    checked / len(proof),
                    help="Fraction of F* that had to be checked")

    capture = obs is not None and obs.wants_depgraph
    with build.phase("checks"):
        for index in range(len(proof) - 1, -1, -1):
            cid = checker.cid_of_proof_clause(index)
            if cid not in marked:
                skipped += 1
                continue
            work_before = counters.total_work() if capture else 0
            try:
                if obs is None:
                    outcome = checker.check_clause(index)
                else:
                    with build.check(index, counters):
                        outcome = checker.check_clause(index)
            except BudgetExhausted as exc:
                if obs is not None:
                    obs.event("budget_exhausted", reason=str(exc))
                    obs.counter_add("repro_budget_exhausted_total")
                finish_metrics()
                return build.build(
                    RESOURCE_LIMIT_EXCEEDED,
                    num_checked=checked,
                    num_skipped=skipped,
                    stopped_at_index=index,
                    failure_reason=str(exc),
                    bcp_counters=counters.as_dict())
            if outcome.conflict and outcome.confl_cid is not None:
                # One responsibility walk serves both the marking and
                # the provenance record — the depgraph is the paper's
                # marking machinery made visible, not a second pass.
                if obs is None:
                    marked.update(collect_responsible(
                        checker.engine, outcome.confl_cid))
                else:
                    with build.phase("marking"):
                        responsible = collect_responsible(
                            checker.engine, outcome.confl_cid)
                        marked.update(responsible)
                    if capture:
                        obs.record_dependency(
                            index, cid, responsible,
                            confl=outcome.confl_cid,
                            props=counters.total_work() - work_before)
            checker.reset()
            checked += 1
            if not outcome.conflict:
                finish_metrics()
                return build.build(
                    PROOF_IS_NOT_CORRECT,
                    num_checked=checked,
                    num_skipped=skipped,
                    failed_clause_index=index,
                    failure_reason=(
                        f"BCP on the falsified clause {proof[index]} "
                        "did not produce a conflict"),
                    bcp_counters=counters.as_dict())

    with build.phase("core"):
        core_indices = tuple(sorted(cid for cid in marked
                                    if cid < num_input))
        marked_proof = tuple(sorted(cid - num_input for cid in marked
                                    if cid >= num_input))
        core = UnsatCore(core_indices, formula)
    finish_metrics()
    return build.build(
        PROOF_IS_CORRECT,
        num_checked=checked,
        num_skipped=skipped,
        core=core,
        marked_proof_indices=marked_proof,
        bcp_counters=counters.as_dict())


def verify_proof(formula: CnfFormula, proof: ConflictClauseProof,
                 procedure: str = "verification2",
                 engine_cls: type[PropagatorBase] | None = None,
                 order: str = "backward",
                 mode: str = "rebuild",
                 jobs: int | None = 1,
                 budget: CheckBudget | None = None,
                 obs=None,
                 ) -> VerificationReport:
    """Verify a conflict clause proof (``verification2`` by default).

    The dispatcher forwards every option the selected procedure
    understands: ``order`` and ``jobs`` apply to ``verification1`` only
    (``verification2``'s marking pass is inherently backward and
    sequential), ``mode``, ``engine_cls``, ``budget`` and ``obs`` to
    both.
    """
    if procedure == "verification1":
        return verify_proof_v1(formula, proof, engine_cls, order=order,
                               mode=mode, jobs=jobs, budget=budget,
                               obs=obs)
    if procedure == "verification2":
        if order != "backward":
            raise ValueError(
                "verification2 is inherently backward; "
                f"order={order!r} is only valid with verification1")
        if jobs not in (1, None):
            raise ValueError(
                "verification2's marking pass is sequential; "
                f"jobs={jobs!r} is only valid with verification1")
        return verify_proof_v2(formula, proof, engine_cls, mode=mode,
                               budget=budget, obs=obs)
    raise ValueError(f"unknown verification procedure {procedure!r}")
