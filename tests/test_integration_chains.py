"""Integration chains: composing the proof tools end to end.

Each test pipes artifacts through several subsystems — the combinations
a real user would run — and asserts every stage stays sound.
"""

import random

from repro.benchgen.php import pigeonhole
from repro.proofs.conflict_clause import ConflictClauseProof
from repro.proofs.drup import DrupProof, format_drup, parse_drup
from repro.solver.cdcl import solve
from repro.verify.reconstruct import reconstruct_resolution_graph
from repro.verify.trimming import trim_proof
from repro.verify.verification import verify_proof_v1, verify_proof_v2

from tests.conftest import random_formula


class TestChains:
    def test_solve_trim_reconstruct(self):
        formula = pigeonhole(4)
        result = solve(formula)
        proof = ConflictClauseProof.from_log(result.log)
        trimmed = trim_proof(formula, proof).trimmed
        rebuilt = reconstruct_resolution_graph(formula, trimmed)
        assert rebuilt.graph.check().ok
        # The trimmed proof's graph can't have more nodes than checks
        # performed resolutions — and must still sink at empty.
        assert rebuilt.graph.node_count > 0

    def test_drup_disk_roundtrip_forward_check(self):
        formula = pigeonhole(5)
        result = solve(formula, restart_base=10, reduce_base=40,
                       reduce_growth=20)
        trace = DrupProof.from_log(result.log)
        reloaded = parse_drup(format_drup(trace, comment="roundtrip"))
        assert reloaded == trace
        assert verify_proof_v1(formula, reloaded.to_proof(formula)).ok

    def test_both_checkers_agree_on_random_formulas(self):
        rng = random.Random(4242)
        compared = 0
        for _ in range(20):
            formula = random_formula(rng, 8, 35)
            result = solve(formula)
            if not result.is_unsat:
                continue
            proof = verify_proof_v2(
                formula, ConflictClauseProof.from_log(result.log))
            trace = verify_proof_v2(
                formula, DrupProof.from_log(result.log).to_proof(formula))
            assert proof.ok and trace.ok
            compared += 1
        assert compared > 2

    def test_minimized_proof_through_all_tools(self):
        formula = pigeonhole(5)
        result = solve(formula, minimize_clauses=True)
        proof = ConflictClauseProof.from_log(result.log)
        assert verify_proof_v2(formula, proof).ok
        assert trim_proof(formula, proof).report.ok
        assert reconstruct_resolution_graph(formula,
                                            proof).graph.check().ok
        trace = DrupProof.from_log(result.log).to_proof(formula)
        assert verify_proof_v2(formula, trace).ok
