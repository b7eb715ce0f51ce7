"""Ablation: conflict clause proof vs DRUP trace of the same solve.

Both are checked backward by Proof_verification2.  The paper's proof
keeps every deduced clause in play below the ceiling; the DRUP trace
also records the solver's deletions, and the checker honours them, so
each check propagates over only the clauses the solver itself held.
"""

import pytest

from repro.benchgen.registry import INSTANCES
from repro.experiments.runner import berkmin_options
from repro.proofs.conflict_clause import ConflictClauseProof
from repro.proofs.drup import DrupProof
from repro.solver.cdcl import solve
from repro.verify.verification import verify_proof_v2

from benchmarks.conftest import TableCollector, register_collector

ABLATION_INSTANCES = ("eq_add8", "barrel5", "stack8_8")

_table = register_collector(TableCollector(
    "Ablation: conflict clause proof vs DRUP trace, checked backward",
    f"{'Name':<10} {'proof':<10} {'checked':>8} {'time(s)':>8} "
    f"{'deletions':>10} {'watch visits':>13}"))


@pytest.fixture(scope="module")
def aggressive_solutions():
    """Solve with aggressive deletion so DRUP traces contain d-lines."""
    solutions = {}
    for name in ABLATION_INSTANCES:
        formula = INSTANCES[name].build()
        result = solve(formula, berkmin_options(
            restart_base=20, reduce_base=100, reduce_growth=50))
        assert result.is_unsat
        solutions[name] = (formula, result)
    return solutions


@pytest.mark.parametrize("name", ABLATION_INSTANCES)
def test_backward(benchmark, name, aggressive_solutions):
    formula, result = aggressive_solutions[name]
    proof = ConflictClauseProof.from_log(result.log)

    report = benchmark.pedantic(verify_proof_v2, args=(formula, proof),
                                rounds=1, iterations=1)

    _add_row(name, "ccp", proof, report)


@pytest.mark.parametrize("name", ABLATION_INSTANCES)
def test_drup(benchmark, name, aggressive_solutions):
    formula, result = aggressive_solutions[name]
    proof = DrupProof.from_log(result.log).to_proof(formula)

    report = benchmark.pedantic(verify_proof_v2, args=(formula, proof),
                                rounds=1, iterations=1)

    _add_row(name, "drup", proof, report)


def _add_row(name, kind, proof, report) -> None:
    assert report.ok
    _table.add(f"{name:<10} {kind:<10} {report.num_checked:>8,} "
               f"{report.verification_time:>8.3f} "
               f"{len(proof.deletions):>10,} "
               f"{report.bcp_counters['watch_visits']:>13,}")
