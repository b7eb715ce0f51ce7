"""Unit tests for the ProofChecker and verifier-side conflict analysis."""

from repro.bcp.watched import WatchedPropagator
from repro.core.formula import CnfFormula
from repro.core.literals import encode
from repro.proofs.conflict_clause import (
    ENDING_EMPTY,
    ENDING_FINAL_PAIR,
    ConflictClauseProof,
)
from repro.verify.checker import ProofChecker
from repro.verify.conflict_analysis import mark_responsible


class TestProofChecker:
    def test_checks_are_independent(self):
        formula = CnfFormula([[1, 2], [1, -2], [-1, 2], [-1, -2]])
        proof = ConflictClauseProof([(1,), (-1,)], ENDING_FINAL_PAIR)
        checker = ProofChecker(formula, proof)
        for _ in range(3):  # repeated checks must not interfere
            outcome = checker.check_clause(0)
            checker.reset()
            assert outcome.conflict
        assert not checker.engine.trail  # level 0 stays empty

    def test_ceiling_excludes_later_proof_clauses(self):
        # (1) is *not* implied by F alone — only by F plus the later
        # proof clause; checking index 0 must therefore fail.
        formula = CnfFormula([[1, 2, 3]])
        proof = ConflictClauseProof([(1,), (), ], ENDING_EMPTY)
        checker = ProofChecker(formula, proof)
        assert not checker.check_clause(0).conflict
        checker.reset()

    def test_unit_clauses_participate(self):
        # F has units (1) and (-1): any clause check conflicts.
        formula = CnfFormula([[1], [-1]])
        proof = ConflictClauseProof([()], ENDING_EMPTY)
        checker = ProofChecker(formula, proof)
        outcome = checker.check_clause(0)
        assert outcome.conflict
        assert outcome.confl_cid is not None
        checker.reset()

    def test_tautology_reports_no_responsible_clause(self):
        formula = CnfFormula([[1], [-1]])
        proof = ConflictClauseProof([(2, -2), ()], ENDING_EMPTY)
        checker = ProofChecker(formula, proof, mode="rebuild")
        outcome = checker.check_clause(0)
        assert outcome.conflict
        assert outcome.confl_cid is None
        checker.reset()

    def test_proof_variable_beyond_formula(self):
        formula = CnfFormula([[1], [-1]])
        proof = ConflictClauseProof([(9, -9), ()], ENDING_EMPTY)
        checker = ProofChecker(formula, proof)
        assert checker.check_clause(1).conflict

    def test_cid_mapping(self):
        formula = CnfFormula([[1], [-1]])
        proof = ConflictClauseProof([()], ENDING_EMPTY)
        checker = ProofChecker(formula, proof)
        assert checker.cid_of_proof_clause(0) == 2


class TestMarkResponsible:
    def build(self, clauses):
        engine = WatchedPropagator(10)
        for clause in clauses:
            engine.add_clause([encode(lit) for lit in clause],
                              propagate_units=False)
        return engine

    def test_marks_conflict_and_reasons(self):
        engine = self.build([[-1, 2], [-2, 3], [-3, -1]])
        engine.new_level()
        engine.enqueue(encode(1), None)      # assumption
        confl = engine.propagate()
        assert confl is not None
        marked = set()
        mark_responsible(engine, confl, marked)
        assert marked == {0, 1, 2}

    def test_assumptions_terminate_walk(self):
        engine = self.build([[-1, -2]])
        engine.new_level()
        engine.enqueue(encode(1), None)
        engine.enqueue(encode(2), None)
        confl = engine.propagate()
        assert confl == 0
        marked = set()
        mark_responsible(engine, confl, marked)
        assert marked == {0}  # nothing else is responsible

    def test_partial_support_marked(self):
        # Two independent chains; only the conflicting one is marked.
        engine = self.build([[-1, 2], [-5, 6], [-2, -1]])
        engine.new_level()
        engine.enqueue(encode(1), None)
        engine.enqueue(encode(5), None)
        confl = engine.propagate()
        marked = set()
        mark_responsible(engine, confl, marked)
        assert 1 not in marked  # the (−5 6) clause played no part

    def test_accumulates_across_calls(self):
        engine = self.build([[-1, 2], [-2, -1], [-5, 6], [-6, -5]])
        marked = set()
        engine.new_level()
        engine.enqueue(encode(1), None)
        mark_responsible(engine, engine.propagate(), marked)
        engine.backtrack(0)
        engine.new_level()
        engine.enqueue(encode(5), None)
        mark_responsible(engine, engine.propagate(), marked)
        assert marked == {0, 1, 2, 3}


class TestCheckerStressScenarios:
    def test_many_sequential_checks_stay_clean(self):
        """The engine state must be pristine after hundreds of checks."""
        from repro.benchgen.php import pigeonhole
        from repro.proofs.conflict_clause import ConflictClauseProof
        from repro.solver.cdcl import solve

        formula = pigeonhole(4)
        result = solve(formula)
        proof = ConflictClauseProof.from_log(result.log)
        checker = ProofChecker(formula, proof, mode="rebuild")
        for _ in range(3):  # repeated full sweeps over the same engine
            for index in range(len(proof) - 1, -1, -1):
                outcome = checker.check_clause(index)
                checker.reset()
                assert outcome.conflict
            assert not checker.engine.trail
            assert checker.engine.decision_level == 0
