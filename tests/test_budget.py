"""Resource budgets: exhaustion must surface as a clean
``resource_limit_exceeded`` report with partial progress — never as an
exception escaping the public API, and never as a wrong verdict."""

import pytest

from repro.bcp.engine import PropagationCounters
from repro.core.formula import CnfFormula
from repro.proofs.conflict_clause import ConflictClauseProof
from repro.proofs.drup import DrupProof
from repro.solver.cdcl import solve
from repro.verify import (
    RESOURCE_LIMIT_EXCEEDED,
    CheckBudget,
    verify_proof,
    verify_proof_v1,
    verify_proof_v2,
)


@pytest.fixture(scope="module")
def instance():
    formula = CnfFormula([[1, 2], [1, -2], [-1, 2], [-1, -2], [3, 4]])
    result = solve(formula)
    return (formula, ConflictClauseProof.from_log(result.log),
            DrupProof.from_log(result.log))


class TestCheckBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            CheckBudget(timeout=0)
        with pytest.raises(ValueError):
            CheckBudget(timeout=-1.5)
        with pytest.raises(ValueError):
            CheckBudget(max_props=0)
        with pytest.raises(ValueError):
            CheckBudget(max_props=-3)

    def test_unlimited(self):
        assert CheckBudget().unlimited
        assert not CheckBudget(max_props=10).unlimited

    def test_meter_accounting(self):
        counters = PropagationCounters()
        meter = CheckBudget(max_props=10).start(counters)
        assert meter.exhausted(counters) is None
        counters.assignments = 6
        counters.clause_visits = 5
        reason = meter.exhausted(counters)
        assert reason is not None and "budget" in reason

    def test_meter_rebase_keeps_deadline(self):
        counters = PropagationCounters()
        meter = CheckBudget(timeout=3600).start(counters)
        rebased = meter.rebase(PropagationCounters())
        assert rebased.deadline == meter.deadline


class TestBudgetedVerification:
    @pytest.mark.parametrize("mode", ["rebuild", "incremental"])
    def test_v1_props_budget(self, instance, mode):
        formula, proof, _ = instance
        report = verify_proof_v1(formula, proof, mode=mode,
                                 budget=CheckBudget(max_props=1))
        assert report.outcome == RESOURCE_LIMIT_EXCEEDED
        assert report.exhausted and not report.ok
        assert report.stopped_at_index is not None
        assert report.num_checked < len(proof)
        assert "budget" in report.failure_reason

    def test_v1_generous_budget_is_invisible(self, instance):
        formula, proof, _ = instance
        report = verify_proof_v1(
            formula, proof,
            budget=CheckBudget(timeout=3600, max_props=10**9))
        assert report.ok and not report.exhausted

    def test_v2_props_budget(self, instance):
        formula, proof, _ = instance
        report = verify_proof_v2(formula, proof,
                                 budget=CheckBudget(max_props=1))
        assert report.exhausted
        assert report.core is None  # partial runs never claim a core

    def test_dispatcher_threads_budget(self, instance):
        formula, proof, _ = instance
        report = verify_proof(formula, proof,
                              budget=CheckBudget(max_props=1))
        assert report.exhausted

    def test_drup_timeout_budget(self, instance):
        formula, _, drup = instance
        report = verify_proof(formula, drup.to_proof(formula),
                              budget=CheckBudget(timeout=1e-9))
        assert report.exhausted and not report.ok
        assert report.stopped_at_index is not None
        assert "budget" in report.failure_reason

    def test_drup_generous_budget_is_invisible(self, instance):
        formula, _, drup = instance
        report = verify_proof(formula, drup.to_proof(formula),
                              budget=CheckBudget(timeout=3600))
        assert report.ok and not report.exhausted
