"""Verification reports and unsat cores.

These records are ``NamedTuple`` classes, not dataclasses: every ``repro
verify`` process builds them, and importing ``dataclasses`` would cost
it more than a short check (DESIGN.md, "Import rules").
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

from repro.core.clause import Clause
from repro.core.formula import CnfFormula

PROOF_IS_CORRECT = "proof_is_correct"
PROOF_IS_NOT_CORRECT = "proof_is_not_correct"
# The run stopped at a CheckBudget limit before reaching a verdict; the
# report carries partial progress (num_checked, stopped_at_index).
RESOURCE_LIMIT_EXCEEDED = "resource_limit_exceeded"


class UnsatCore(NamedTuple):
    """An unsatisfiable subset of the original formula's clauses.

    Extracted as a by-product of ``Proof_verification2`` (paper Section 4):
    the clauses of ``F`` that were marked as responsible for some conflict
    during proof verification.  The core is unsatisfiable but not
    necessarily minimal.
    """

    clause_indices: tuple[int, ...]
    formula: CnfFormula

    def clauses(self) -> list[Clause]:
        return [self.formula[i] for i in self.clause_indices]

    def as_formula(self) -> CnfFormula:
        """The core as a standalone formula (original variable names)."""
        core = CnfFormula(num_vars=self.formula.num_vars)
        for index in self.clause_indices:
            core.add_clause(self.formula[index])
        return core

    @property
    def size(self) -> int:
        return len(self.clause_indices)

    @property
    def fraction(self) -> float:
        """Core size as a fraction of the original clause count
        (the paper's Table 1 'Unsatisfiable core' column)."""
        total = self.formula.num_clauses
        return len(self.clause_indices) / total if total else 0.0


class VerificationStats(NamedTuple):
    """Typed per-run breakdown built by the instrumented report builder.

    ``total_time`` is the run's wall time; ``phase_times`` maps each
    phase (``build``, ``checks``, ``marking``, ``core``, ``pool``) to
    its seconds, and no two phases overlap.  ``props`` is the engines'
    total propagation work (``assignments + clause_visits``, summed
    over all workers) and ``checks`` the number of BCP checks it paid
    for.  ``slowest_checks`` names the slowest-K proof indices with
    their per-check wall time, slowest first — populated only when the
    run carried an :class:`~repro.obs.context.Obs` (per-check timing
    is part of the opt-in instrumentation, never of the disabled fast
    path).
    """

    total_time: float = 0.0
    phase_times: Mapping[str, float] = MappingProxyType({})
    props: int = 0
    checks: int = 0
    slowest_checks: tuple[tuple[int, float], ...] = ()

    def as_dict(self) -> dict:
        """Plain-data form, as embedded in the trace's run summary and
        benchmark records."""
        return {
            "total_time": self.total_time,
            "phase_times": dict(self.phase_times),
            "props": self.props,
            "checks": self.checks,
            "slowest_checks": [[index, seconds]
                               for index, seconds in self.slowest_checks],
        }


class VerificationReport(NamedTuple):
    """Outcome of a proof verification run.

    ``outcome`` is the paper's verdict string; ``ok`` is its boolean
    form.  For ``Proof_verification2`` runs, ``num_skipped`` counts the
    redundant conflict clauses that were never checked and ``core`` holds
    the extracted unsatisfiable core.

    ``mode`` records the checker state-management strategy (``rebuild``
    or ``incremental``), ``engine`` the BCP engine that ran the checks
    (``watched`` or ``counting``; parallel workers run the same
    engine under every start method), ``jobs`` the number of
    worker processes (1 for the sequential path), and ``bcp_counters``
    the engine's propagation instrumentation (assignments, watch
    visits, clause visits, purged entries) summed over all workers —
    the units in which the incremental backward engine's savings are
    observable.

    Robustness fields: an exhausted :class:`~repro.verify.budget.
    CheckBudget` yields ``outcome == resource_limit_exceeded`` with
    ``stopped_at_index`` naming the first proof index left unchecked
    (None when the parallel backend cannot pin one down).  The
    fault-tolerant parallel backend records every shard execution lost
    to a dead worker in ``worker_failures`` and explains each degraded
    step (retry, sequential fallback) in ``warnings``.

    ``stats`` is the :class:`VerificationStats` breakdown (per-phase
    wall time, propagation work, slowest-K checks) that every driver
    now builds through the shared instrumented report builder.
    """

    outcome: str
    procedure: str
    num_proof_clauses: int
    num_checked: int = 0
    num_skipped: int = 0
    failed_clause_index: int | None = None
    failure_reason: str | None = None
    verification_time: float = 0.0
    core: UnsatCore | None = None
    marked_proof_indices: tuple[int, ...] = ()
    mode: str = "incremental"
    engine: str = "watched"
    jobs: int = 1
    bcp_counters: dict[str, int] | None = None
    stopped_at_index: int | None = None
    worker_failures: int = 0
    warnings: tuple[str, ...] = ()
    stats: VerificationStats | None = None

    @property
    def ok(self) -> bool:
        return self.outcome == PROOF_IS_CORRECT

    @property
    def exhausted(self) -> bool:
        """True when the run stopped at a resource budget, verdict-less."""
        return self.outcome == RESOURCE_LIMIT_EXCEEDED

    @property
    def tested_fraction(self) -> float:
        """Fraction of F* that was BCP-checked (Table 1 'Tested' column).

        For Proof_verification1 this is 1.0 by construction."""
        if not self.num_proof_clauses:
            return 0.0
        return self.num_checked / self.num_proof_clauses
