"""The CDCL SAT solver with conflict clause proof logging.

A from-scratch conflict-driven clause-learning solver in the tradition of
GRASP/Chaff/BerkMin — the class of solvers the paper's verification
procedure applies to ("all state-of-the-art SAT-solvers based on conflict
clause recording", Section 1).  Features:

* two-watched-literal or counting BCP (pluggable engine);
* 1UIP, decision-variable, BerkMin-style hybrid or adaptive learning
  (Section 5's local/global clause dichotomy), with optional
  chain-exact learned-clause minimization;
* VSIDS or BerkMin branching, phase saving;
* Luby/geometric restarts;
* activity-driven deletion of learned clauses ("once in a while, some
  clauses are removed from the current formula", Section 2) — the proof
  log nevertheless records *every* deduced clause, exactly as the paper's
  ``F* ⊇ F'`` discussion requires, while deletion events are also logged
  for the DRUP export;
* a :class:`repro.proofs.ProofLog` with complete derivation chains,
  terminated by a unit step and the empty-clause step from which the
  final conflicting pair is recovered.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bcp import resolve_engine
from repro.bcp.engine import UNDEF, PropagatorBase
from repro.core.formula import CnfFormula
from repro.core.literals import encode
from repro.proofs.log import ProofLog
from repro.solver.heuristics import BerkMinOrder, make_order
from repro.solver.learning import (
    Analysis,
    analyze_1uip,
    analyze_decision,
    analyze_final,
)
from repro.solver.restarts import make_restart_policy
from repro.solver.result import (
    SAT,
    UNKNOWN,
    UNSAT,
    SolveResult,
    SolverStats,
)

_CLAUSE_ACT_LIMIT = 1e20
_CLAUSE_ACT_FACTOR = 1e-20


@dataclass
class SolverOptions:
    """Configuration of the CDCL solver.

    ``learning`` selects the conflict analysis scheme: ``"1uip"`` (local
    clauses), ``"decision"`` (global clauses), ``"hybrid"`` — 1UIP with
    every ``hybrid_period``-th conflict analyzed down to decision
    variables — or ``"adaptive"`` — 1UIP unless the 1UIP clause exceeds
    ``adaptive_threshold`` literals, in which case the (usually much
    shorter) decision clause is learned instead.  The adaptive policy is
    our reconstruction of BerkMin's unpublished mixing rule (Section 6:
    "once in a while BerkMin deduces clauses in terms of decision
    variables ... combining the deduction of local and global clauses
    gives a noticeable speed-up"): deduce a global clause exactly when
    the local one is expensive to store.
    """

    learning: str = "1uip"
    hybrid_period: int = 10
    adaptive_threshold: int = 15
    minimize_clauses: bool = False
    heuristic: str = "berkmin"
    restart: str = "luby"
    restart_base: int = 100
    var_decay: float = 0.95
    clause_decay: float = 0.999
    enable_deletion: bool = True
    reduce_base: int = 2000
    reduce_growth: int = 500
    engine: str = "watched"
    log_proof: bool = True
    max_conflicts: int | None = None

    def __post_init__(self) -> None:
        if self.learning not in ("1uip", "decision", "hybrid", "adaptive"):
            raise ValueError(f"unknown learning scheme {self.learning!r}")
        if self.engine not in ("watched", "counting"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.hybrid_period < 1:
            raise ValueError("hybrid_period must be >= 1")
        if self.adaptive_threshold < 1:
            raise ValueError("adaptive_threshold must be >= 1")


class CdclSolver:
    """Conflict-driven clause-learning solver over a CNF formula."""

    def __init__(self, formula: CnfFormula,
                 options: SolverOptions | None = None):
        self.options = options or SolverOptions()
        self.formula = formula
        self.engine: PropagatorBase = resolve_engine(
            self.options.engine)(formula.num_vars)
        self.order = make_order(self.options.heuristic, formula.num_vars,
                                self.options.var_decay)
        self.restart_policy = make_restart_policy(
            self.options.restart, self.options.restart_base)
        self.stats = SolverStats()
        self.log: ProofLog | None = (
            ProofLog() if self.options.log_proof else None)
        self.saved_phase: list[bool] = [False] * (formula.num_vars + 1)
        self.clause_activity: dict[int, float] = {}
        self.clause_act_inc = 1.0
        self.learned_cids: list[int] = []
        self.num_input = formula.num_clauses
        # deletion is incompatible with the counting engine (no detach)
        self.deletion_enabled = (self.options.enable_deletion
                                 and self.options.engine == "watched")
        self.next_reduce = self.options.reduce_base

        for clause in formula:
            self.engine.add_clause([encode(lit) for lit in clause])
            if self.log is not None:
                self.log.input_clauses.append(clause.literals)

    # -- proof logging -----------------------------------------------------

    def _log_step(self, literals: tuple[int, ...],
                  antecedents: tuple[int, ...],
                  pivots: tuple[int, ...]) -> None:
        if self.log is not None:
            self.log.add_step(literals, antecedents, pivots)

    def _finalize_unsat(self, confl_cid: int) -> SolveResult:
        """Terminal level-0 conflict: log the final pair and conclude."""
        if self.log is not None:
            final = analyze_final(self.engine, confl_cid)
            if final.unit_step is None:
                self._log_step((), final.empty_antecedents,
                               final.empty_pivots)
            else:
                literals, antecedents, pivots = final.unit_step
                unit_ref = self.log.add_step(literals, antecedents, pivots)
                self._log_step((), (unit_ref,) + final.empty_antecedents,
                               final.empty_pivots)
            self.log.ending = "empty"
        return SolveResult(UNSAT, log=self.log, stats=self.stats)

    # -- heuristic helpers ---------------------------------------------------

    def _bump_clause(self, cid: int) -> None:
        if cid >= self.num_input:
            activity = self.clause_activity.get(cid, 0.0) \
                + self.clause_act_inc
            if activity > _CLAUSE_ACT_LIMIT:
                for key in self.clause_activity:
                    self.clause_activity[key] *= _CLAUSE_ACT_FACTOR
                self.clause_act_inc *= _CLAUSE_ACT_FACTOR
                activity = self.clause_activity.get(cid, 0.0) \
                    + self.clause_act_inc
            self.clause_activity[cid] = activity

    def _backtrack(self, level: int) -> None:
        """Backtrack, re-offering unassigned variables to the heuristic
        and remembering their phases."""
        engine = self.engine
        if level >= engine.decision_level:
            return
        limit = engine.trail_lim[level]
        order = self.order
        saved = self.saved_phase
        for enc in engine.trail[limit:]:
            var = enc >> 1
            saved[var] = not enc & 1
            order.push(var)
        engine.backtrack(level)

    def _pick_branch(self) -> int | None:
        var = self.order.pick(self.engine)
        if var is None:
            return None
        enc = var << 1
        if not self.saved_phase[var]:
            enc |= 1
        return enc

    # -- learned clause management -------------------------------------------

    def _attach_learnt(self, analysis: Analysis) -> None:
        engine = self.engine
        learnt = analysis.learnt_enc
        cid = engine.add_clause(learnt, propagate_units=False)
        self.learned_cids.append(cid)
        self.clause_activity[cid] = self.clause_act_inc
        if isinstance(self.order, BerkMinOrder):
            self.order.on_learn(cid)
        self.stats.learned_clauses += 1
        if not engine.enqueue(learnt[0], cid):
            raise AssertionError(
                "asserting literal of learned clause was already false")

    def _reduce_learned(self) -> None:
        """Delete the less active half of the long learned clauses.

        Called only at decision level 0, so the set of locked clauses
        (reasons of current assignments) is exactly the level-0 reasons.
        """
        engine = self.engine
        locked = {engine.reasons[enc >> 1] for enc in engine.trail}
        candidates = [
            cid for cid in self.learned_cids
            if engine.clauses[cid] and len(engine.clauses[cid]) > 2
            and cid not in locked
        ]
        if len(candidates) < 2:
            return
        candidates.sort(key=lambda cid: self.clause_activity.get(cid, 0.0))
        for cid in candidates[:len(candidates) // 2]:
            engine.remove_clause(cid)
            self.clause_activity.pop(cid, None)
            self.stats.deleted_clauses += 1
            if self.log is not None:
                step_index = cid - self.num_input
                self.log.deletion_events.append(
                    (len(self.log.steps),
                     self.log.steps[step_index].literals))
        self.stats.reductions += 1

    # -- main loop -------------------------------------------------------------

    def solve(self) -> SolveResult:
        """Run the CDCL search to completion (or to the conflict budget)."""
        start = time.perf_counter()
        try:
            return self._search()
        finally:
            self.stats.solve_time = time.perf_counter() - start

    def _search(self) -> SolveResult:
        engine = self.engine
        options = self.options
        stats = self.stats
        conflicts_since_restart = 0
        conflict_count = 0

        while True:
            trail_before = len(engine.trail)
            confl = engine.propagate()
            stats.propagations += len(engine.trail) - trail_before

            if confl is not None:
                stats.conflicts += 1
                conflict_count += 1
                conflicts_since_restart += 1
                if engine.decision_level == 0:
                    return self._finalize_unsat(confl)
                analysis = self._analyze(confl, conflict_count)
                self._log_step(analysis.literals,
                               tuple(analysis.antecedents),
                               tuple(analysis.pivots))
                self._backtrack(analysis.backjump_level)
                self._attach_learnt(analysis)
                self.order.decay_step()
                self.clause_act_inc /= options.clause_decay
                if (options.max_conflicts is not None
                        and stats.conflicts >= options.max_conflicts):
                    return SolveResult(UNKNOWN, log=self.log, stats=stats)
                continue

            if self.restart_policy.should_restart(conflicts_since_restart):
                self.restart_policy.on_restart()
                stats.restarts += 1
                conflicts_since_restart = 0
                self._backtrack(0)
                if (self.deletion_enabled
                        and stats.conflicts >= self.next_reduce):
                    self._reduce_learned()
                    self.next_reduce += (options.reduce_base
                                         + options.reduce_growth
                                         * stats.reductions)
                continue

            branch = self._pick_branch()
            if branch is None:
                return SolveResult(SAT, model=self._model(), log=self.log,
                                   stats=stats)
            stats.decisions += 1
            engine.assume(branch)
            if engine.decision_level > stats.max_decision_level:
                stats.max_decision_level = engine.decision_level

        raise AssertionError("unreachable")

    def _analyze(self, confl: int, conflict_count: int) -> Analysis:
        scheme = self.options.learning
        if scheme == "hybrid":
            scheme = ("decision"
                      if conflict_count % self.options.hybrid_period == 0
                      else "1uip")
        elif scheme == "adaptive":
            analysis = analyze_1uip(self.engine, confl,
                                    bump_var=self.order.bump,
                                    bump_clause=self._bump_clause,
                                    minimize=self.options.minimize_clauses)
            if len(analysis.literals) <= self.options.adaptive_threshold:
                return analysis
            # The local clause is long — deduce the global one instead
            # (activity bumps of the discarded analysis are harmless).
            return analyze_decision(self.engine, confl)
        if scheme == "decision":
            return analyze_decision(self.engine, confl,
                                    bump_var=self.order.bump,
                                    bump_clause=self._bump_clause)
        return analyze_1uip(self.engine, confl, bump_var=self.order.bump,
                            bump_clause=self._bump_clause,
                            minimize=self.options.minimize_clauses)

    def _model(self) -> dict[int, bool]:
        """Total assignment: engine values, defaulting free variables."""
        model = {}
        values = self.engine.values
        for var in range(1, self.formula.num_vars + 1):
            value = values[var << 1]
            model[var] = (value == 1) if value != UNDEF \
                else self.saved_phase[var]
        return model


def solve(formula: CnfFormula,
          options: SolverOptions | None = None, **kwargs) -> SolveResult:
    """Solve a CNF formula; keyword arguments build :class:`SolverOptions`.

    >>> from repro.core import CnfFormula
    >>> result = solve(CnfFormula([[1, 2], [-1], [-2]]))
    >>> result.status
    'UNSAT'
    """
    if options is not None and kwargs:
        raise ValueError("pass either options or keyword arguments, not both")
    if options is None:
        options = SolverOptions(**kwargs)
    return CdclSolver(formula, options).solve()
