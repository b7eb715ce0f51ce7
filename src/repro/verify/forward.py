"""Forward DRUP checking with deletions.

The dual of the paper's backward procedures: process the trace in
chronological order, RUP-checking each addition against the *currently
active* clause set and honoring deletion lines.  Deletions keep the
checker's working set as small as the solver's was — the fix for the
memory growth the paper's Section 5 worries about, at the price of
checking every addition (no marking/skipping is possible forward).

The active set is tracked with the clause-ceiling engine plus a set of
deleted clause ids (deleted clauses are detached, so they neither
propagate nor conflict).

Reports are built through the shared
:class:`~repro.verify.instrument.ReportBuilder`, so the forward
checker gets the same per-phase stats breakdown, optional per-event
instrumentation (``obs``), and progress heartbeat as the backward
procedures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bcp import engine_name, resolve_engine
from repro.bcp.engine import FALSE, TRUE, PropagatorBase
from repro.core.formula import CnfFormula
from repro.core.literals import encode
from repro.proofs.drup import ADD, DELETE, DrupProof
from repro.verify.budget import CheckBudget
from repro.verify.instrument import ReportBuilder
from repro.verify.report import (
    PROOF_IS_CORRECT,
    PROOF_IS_NOT_CORRECT,
    RESOURCE_LIMIT_EXCEEDED,
    VerificationStats,
)


@dataclass
class ForwardCheckReport:
    """Outcome of a forward DRUP check.

    With an exhausted :class:`~repro.verify.budget.CheckBudget` the
    outcome is ``resource_limit_exceeded``: ``stopped_at_event`` names
    the first unprocessed trace event and the addition/deletion counts
    report partial progress.  ``stats`` is the shared
    :class:`~repro.verify.report.VerificationStats` breakdown (for the
    forward checker, "checks" are RUP-checked additions).
    """

    outcome: str
    num_additions: int = 0
    num_deletions: int = 0
    failed_event_index: int | None = None
    failure_reason: str | None = None
    peak_active_clauses: int = 0
    verification_time: float = 0.0
    stopped_at_event: int | None = None
    engine: str = "watched"
    stats: VerificationStats | None = None

    @property
    def ok(self) -> bool:
        return self.outcome == PROOF_IS_CORRECT

    @property
    def exhausted(self) -> bool:
        return self.outcome == RESOURCE_LIMIT_EXCEEDED


def check_drup(formula: CnfFormula, proof: DrupProof,
               budget: CheckBudget | None = None,
               obs=None,
               engine_cls: "type[PropagatorBase] | str | None" = None,
               ) -> ForwardCheckReport:
    """Check a DRUP trace forward; report the first bad event.

    The ``budget`` (if given) is consulted before every trace event;
    when it runs out the check aborts with ``resource_limit_exceeded``
    and partial progress instead of a verdict.  ``obs`` attaches the
    optional instrumentation layer (per-addition timing, trace spans,
    progress over trace events).  ``engine_cls`` selects the BCP
    engine (a :data:`repro.bcp.ENGINES` name or class; default
    watched); an engine without clause-removal support (counting) is
    rejected when the trace contains deletions — honoring them is the
    point of forward checking.
    """
    engine_cls = resolve_engine(engine_cls)
    if not engine_cls.supports_removal \
            and any(event.kind == DELETE for event in proof.events):
        raise ValueError(
            f"engine '{engine_name(engine_cls)}' does not support "
            "clause removal, but the DRUP trace contains deletions; "
            "use the watched engine")
    build = ReportBuilder(ForwardCheckReport, obs=obs,
                          total_checks=len(proof.events),
                          progress_label="events",
                          engine=engine_name(engine_cls))
    with build.phase("setup", procedure="drup-forward"):
        # Size the engine over the trace's variables too: a (corrupt or
        # merely foreign) trace may mention variables the formula never
        # does, and those must be assignable rather than crash the
        # checker.
        num_vars = formula.num_vars
        for event in proof.events:
            for lit in event.literals:
                if abs(lit) > num_vars:
                    num_vars = abs(lit)
        engine = engine_cls(num_vars)
        meter = budget.start() if budget is not None else None
        # Active units, kept separately (units carry no watches).
        units: dict[int, int] = {}   # cid -> encoded literal
        # Clause key -> list of active cids (for deletion lookup).
        active: dict[tuple[int, ...], list[int]] = {}

        def clause_key(literals) -> tuple[int, ...]:
            return tuple(sorted(set(literals)))

        def load(literals) -> int:
            cid = engine.add_clause([encode(lit) for lit in literals],
                                    propagate_units=False)
            if engine.clause_len(cid) == 1:
                units[cid] = engine.clause_lits(cid)[0]
            active.setdefault(clause_key(literals), []).append(cid)
            return cid

        for clause in formula:
            load(clause.literals)
        active_count = formula.num_clauses
        peak = active_count

    counters = engine.counters

    def finish_metrics() -> None:
        # BCP counter totals are published by build() itself (it gets
        # bcp_counters=); only the DRUP-specific metrics live here.
        if obs is not None:
            obs.counter_add("repro_drup_additions_total", additions,
                            help="DRUP additions RUP-checked")
            obs.counter_add("repro_drup_deletions_total", deletions,
                            help="DRUP deletion events honored")
            obs.gauge_set("repro_drup_peak_active_clauses", peak,
                          help="Peak size of the active clause set")

    def rup_check(literals) -> bool:
        engine.new_level()
        conflict = False
        for lit in literals:
            negated = encode(lit) ^ 1
            value = engine.value(negated)
            if value == TRUE:
                continue
            if value == FALSE:
                conflict = True
                break
            engine.enqueue(negated, None)
        if not conflict:
            for cid, enc in units.items():
                value = engine.value(enc)
                if value == TRUE:
                    continue
                if value == FALSE:
                    conflict = True
                    break
                engine.enqueue(enc, cid)
        if not conflict:
            conflict = engine.propagate() is not None
        engine.backtrack(0)
        return conflict

    additions = 0
    deletions = 0
    derived_empty = False
    with build.phase("events"):
        for index, event in enumerate(proof.events):
            if meter is not None:
                reason = meter.exhausted(counters)
                if reason is not None:
                    if obs is not None:
                        obs.event("budget_exhausted", reason=reason)
                        obs.counter_add("repro_budget_exhausted_total")
                    finish_metrics()
                    return build.build(
                        RESOURCE_LIMIT_EXCEEDED,
                        bcp_counters=counters.as_dict(),
                        num_additions=additions,
                        num_deletions=deletions,
                        stopped_at_event=index,
                        failure_reason=reason,
                        peak_active_clauses=peak)
            if event.kind == ADD:
                additions += 1
                if obs is None:
                    passed = rup_check(event.literals)
                else:
                    with build.check(index, counters):
                        passed = rup_check(event.literals)
                if not passed:
                    finish_metrics()
                    return build.build(
                        PROOF_IS_NOT_CORRECT,
                        bcp_counters=counters.as_dict(),
                        num_additions=additions,
                        num_deletions=deletions,
                        failed_event_index=index,
                        failure_reason=(
                            f"addition {event.literals} is not RUP"),
                        peak_active_clauses=peak)
                if not event.literals:
                    derived_empty = True
                    break
                load(event.literals)
                active_count += 1
                peak = max(peak, active_count)
            else:
                deletions += 1
                key = clause_key(event.literals)
                cids = active.get(key)
                if not cids:
                    finish_metrics()
                    return build.build(
                        PROOF_IS_NOT_CORRECT,
                        bcp_counters=counters.as_dict(),
                        num_additions=additions,
                        num_deletions=deletions,
                        failed_event_index=index,
                        failure_reason=(
                            f"deletion of inactive clause "
                            f"{event.literals}"),
                        peak_active_clauses=peak)
                cid = cids.pop()
                engine.remove_clause(cid)
                units.pop(cid, None)
                active_count -= 1
                if build.progress is not None:
                    build.progress.update(additions + deletions)

    finish_metrics()
    if not derived_empty:
        return build.build(
            PROOF_IS_NOT_CORRECT,
            bcp_counters=counters.as_dict(),
            num_additions=additions, num_deletions=deletions,
            failure_reason="trace never derives the empty clause",
            peak_active_clauses=peak)
    return build.build(
        PROOF_IS_CORRECT,
        bcp_counters=counters.as_dict(),
        num_additions=additions, num_deletions=deletions,
        peak_active_clauses=peak)