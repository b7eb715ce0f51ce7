"""Tests for Proof_verification1 — including buggy-solver detection.

The whole point of the paper (Section 1) is catching buggy solvers, so
a large share of these tests corrupt correct proofs in targeted ways and
assert the verifier rejects them, pointing at a questionable clause.
"""

import random

import pytest

from repro.bcp.counting import CountingPropagator
from repro.benchgen.php import pigeonhole
from repro.core.formula import CnfFormula
from repro.proofs.conflict_clause import (
    ENDING_EMPTY,
    ENDING_FINAL_PAIR,
    ConflictClauseProof,
)
from repro.solver.cdcl import solve
from repro.verify.verification import verify_proof, verify_proof_v1

from tests.conftest import random_formula


def proof_of(formula, **solver_kwargs):
    result = solve(formula, **solver_kwargs)
    assert result.is_unsat
    return ConflictClauseProof.from_log(result.log)


class TestAcceptsCorrectProofs:
    def test_tiny(self, tiny_unsat):
        report = verify_proof_v1(tiny_unsat, proof_of(tiny_unsat))
        assert report.ok
        assert report.outcome == "proof_is_correct"
        assert report.num_checked == report.num_proof_clauses

    def test_php(self):
        formula = pigeonhole(4)
        assert verify_proof_v1(formula, proof_of(formula)).ok

    def test_counting_engine(self, tiny_unsat):
        report = verify_proof_v1(tiny_unsat, proof_of(tiny_unsat),
                                 engine_cls=CountingPropagator)
        assert report.ok

    def test_empty_ended_proof(self):
        formula = CnfFormula([[1], []])
        assert verify_proof_v1(formula, proof_of(formula)).ok

    def test_handwritten_rup_proof(self):
        # (1 2) (1 -2) (-1 2) (-1 -2): clause (1) is RUP, then the pair.
        formula = CnfFormula([[1, 2], [1, -2], [-1, 2], [-1, -2]])
        proof = ConflictClauseProof([(1,), (-1,)], ENDING_FINAL_PAIR)
        assert verify_proof_v1(formula, proof).ok

    def test_tautological_proof_clause_accepted(self):
        formula = CnfFormula([[1, 2], [1, -2], [-1, 2], [-1, -2]])
        proof = ConflictClauseProof([(3, -3), (1,), (-1,)],
                                    ENDING_FINAL_PAIR)
        assert verify_proof_v1(formula, proof).ok

    def test_duplicated_proof_clause_accepted(self):
        formula = CnfFormula([[1, 2], [1, -2], [-1, 2], [-1, -2]])
        proof = ConflictClauseProof([(1,), (1,), (-1,)],
                                    ENDING_FINAL_PAIR)
        assert verify_proof_v1(formula, proof).ok


class TestRejectsBuggyProofs:
    def test_non_implied_clause_rejected(self):
        formula = CnfFormula([[1, 2], [1, -2], [-1, 2], [-1, -2]])
        # (3) is over a free variable: falsifying it propagates nothing.
        proof = ConflictClauseProof([(3,), (1,), (-1,)],
                                    ENDING_FINAL_PAIR)
        report = verify_proof_v1(formula, proof)
        assert not report.ok
        assert report.failed_clause_index == 0
        assert "conflict" in report.failure_reason

    def test_wrong_clause_rejected(self):
        formula = CnfFormula([[1, 2], [-1, 2]])  # SAT formula
        proof = ConflictClauseProof([(2,), (-2,)], ENDING_FINAL_PAIR)
        report = verify_proof_v1(formula, proof)
        assert not report.ok

    def test_dropped_clause_detected(self, tiny_unsat):
        proof = proof_of(tiny_unsat)
        if len(proof) < 3:
            pytest.skip("proof too short to drop from")
        clauses = proof.clauses[1:]  # drop the first deduced clause
        try:
            corrupted = ConflictClauseProof(clauses, proof.ending)
        except Exception:
            pytest.skip("structure broke instead")
        report = verify_proof_v1(tiny_unsat, corrupted)
        # Either rejected, or still fine (the dropped clause may have
        # been redundant) — but it must never crash.
        assert report.outcome in ("proof_is_correct",
                                  "proof_is_not_correct")

    @pytest.mark.parametrize("seed", range(6))
    def test_flipped_literal_never_crashes_often_rejected(self, seed):
        rng = random.Random(2000 + seed)
        formula = random_formula(rng, 8, 35)
        result = solve(formula)
        if not result.is_unsat:
            pytest.skip("SAT draw")
        proof = ConflictClauseProof.from_log(result.log)
        clauses = [list(c) for c in proof.clauses]
        # Flip a literal in a mid-proof clause.
        target = None
        for index in range(len(clauses) - 2):
            if clauses[index]:
                target = index
        if target is None:
            pytest.skip("no clause to corrupt")
        clauses[target][0] = -clauses[target][0]
        corrupted = ConflictClauseProof(
            [tuple(c) for c in clauses], proof.ending)
        report = verify_proof_v1(formula, corrupted)
        assert report.outcome in ("proof_is_correct",
                                  "proof_is_not_correct")

    def test_truncated_proof_rejected(self):
        # Remove everything but a final pair that is not BCP-derivable.
        formula = pigeonhole(3)
        proof = proof_of(formula)
        pair = proof.final_pair()
        truncated = ConflictClauseProof(list(pair), ENDING_FINAL_PAIR)
        report = verify_proof_v1(formula, truncated)
        assert not report.ok

    def test_strengthened_clause_rejected(self):
        """A buggy solver that drops literals from learned clauses."""
        formula = pigeonhole(3)
        proof = proof_of(formula)
        clauses = [list(c) for c in proof.clauses]
        victim = max(range(len(clauses)), key=lambda i: len(clauses[i]))
        if len(clauses[victim]) < 2:
            pytest.skip("no wide clause")
        del clauses[victim][0]
        corrupted = ConflictClauseProof([tuple(c) for c in clauses],
                                        proof.ending)
        report = verify_proof_v1(formula, corrupted)
        assert report.outcome in ("proof_is_correct",
                                  "proof_is_not_correct")

    def test_satisfiable_formula_bogus_empty_proof(self):
        formula = CnfFormula([[1, 2]])
        proof = ConflictClauseProof([()], ENDING_EMPTY)
        report = verify_proof_v1(formula, proof)
        assert not report.ok


class TestReportFields:
    def test_timing_recorded(self, tiny_unsat):
        report = verify_proof_v1(tiny_unsat, proof_of(tiny_unsat))
        assert report.verification_time >= 0
        assert report.procedure == "verification1"

    def test_tested_fraction_is_one(self, tiny_unsat):
        report = verify_proof_v1(tiny_unsat, proof_of(tiny_unsat))
        assert report.tested_fraction == 1.0
        assert report.num_skipped == 0

    def test_verify_proof_dispatch(self, tiny_unsat):
        proof = proof_of(tiny_unsat)
        assert verify_proof(tiny_unsat, proof,
                            procedure="verification1").ok
        with pytest.raises(ValueError):
            verify_proof(tiny_unsat, proof, procedure="verification3")
