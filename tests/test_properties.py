"""Hypothesis property tests over the whole pipeline.

These encode the paper's soundness story as machine-checked properties:

* a SAT verdict always carries a satisfying model;
* an UNSAT verdict always carries a proof that the independent verifier
  accepts, whose resolution-graph expansion also checks;
* the extracted core is always unsatisfiable;
* proofs survive a disk roundtrip unchanged;
* verification verdicts do not depend on the BCP engine.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bcp.counting import CountingPropagator
from repro.proofs.conflict_clause import ConflictClauseProof
from repro.proofs.resolution import ResolutionGraphProof
from repro.proofs.trace_format import format_proof, parse_proof
from repro.solver.cdcl import SolverOptions, solve
from repro.solver.dpll import dpll_solve
from repro.verify.verification import verify_proof_v1, verify_proof_v2

from tests.conftest import cnf_formulas

_SETTINGS = settings(max_examples=50, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(cnf_formulas(max_vars=9, max_clauses=40))
def test_verdict_always_certified(formula):
    result = solve(formula)
    if result.is_sat:
        assert formula.is_satisfied_by(result.model)
    else:
        proof = ConflictClauseProof.from_log(result.log)
        assert verify_proof_v2(formula, proof).ok


@_SETTINGS
@given(cnf_formulas(max_vars=8, max_clauses=35))
def test_resolution_graph_always_checks(formula):
    result = solve(formula)
    if result.is_unsat:
        graph = ResolutionGraphProof.from_log(result.log)
        check = graph.check()
        assert check.ok, check.error


@_SETTINGS
@given(cnf_formulas(max_vars=8, max_clauses=35))
def test_core_always_unsat(formula):
    result = solve(formula)
    if result.is_unsat:
        proof = ConflictClauseProof.from_log(result.log)
        report = verify_proof_v2(formula, proof)
        assert report.ok
        assert dpll_solve(report.core.as_formula()).is_unsat


@_SETTINGS
@given(cnf_formulas(max_vars=8, max_clauses=35))
def test_proof_disk_roundtrip(formula):
    result = solve(formula)
    if result.is_unsat:
        proof = ConflictClauseProof.from_log(result.log)
        assert parse_proof(format_proof(proof)) == proof


@_SETTINGS
@given(cnf_formulas(max_vars=7, max_clauses=30))
def test_engine_independent_verdicts(formula):
    result = solve(formula)
    if result.is_unsat:
        proof = ConflictClauseProof.from_log(result.log)
        assert verify_proof_v1(formula, proof).ok
        assert verify_proof_v1(formula, proof,
                               engine_cls=CountingPropagator).ok


@_SETTINGS
@given(cnf_formulas(max_vars=7, max_clauses=30),
       st.sampled_from(["1uip", "decision", "hybrid", "adaptive"]))
def test_all_learning_schemes_certified(formula, scheme):
    result = solve(formula, SolverOptions(learning=scheme))
    if result.is_sat:
        assert formula.is_satisfied_by(result.model)
    else:
        proof = ConflictClauseProof.from_log(result.log)
        assert verify_proof_v2(formula, proof).ok
        assert ResolutionGraphProof.from_log(result.log).check().ok


@_SETTINGS
@given(cnf_formulas(max_vars=7, max_clauses=25))
def test_v2_checks_subset_of_v1(formula):
    result = solve(formula)
    if result.is_unsat:
        proof = ConflictClauseProof.from_log(result.log)
        v1 = verify_proof_v1(formula, proof)
        v2 = verify_proof_v2(formula, proof)
        assert v1.ok and v2.ok
        assert v2.num_checked <= v1.num_checked
        assert v2.num_checked + v2.num_skipped == len(proof)


@_SETTINGS
@given(cnf_formulas(max_vars=6, max_clauses=25))
def test_proof_clause_count_matches_stats(formula):
    result = solve(formula)
    if result.is_unsat:
        # Every conflict learns one clause except the terminal one,
        # which contributes the final unit + empty steps.
        assert result.log.num_deduced in (result.stats.conflicts + 1, 1)
