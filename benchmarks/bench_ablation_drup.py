"""Ablation: backward marking (the paper) vs forward DRUP checking.

The trade the formats embody: the paper's backward Proof_verification2
skips redundant clauses but keeps every clause loaded; forward DRUP
checking verifies every addition but honors deletions, bounding the
active clause set to what the solver itself held.
"""

import pytest

from repro.benchgen.registry import INSTANCES
from repro.experiments.runner import berkmin_options
from repro.proofs.conflict_clause import ConflictClauseProof
from repro.proofs.drup import DrupProof
from repro.solver.cdcl import solve
from repro.verify.streaming import verify_stream
from repro.verify.verification import verify_proof_v2

from benchmarks.conftest import TableCollector, register_collector

ABLATION_INSTANCES = ("eq_add8", "barrel5", "stack8_8")

_table = register_collector(TableCollector(
    "Ablation: backward (paper) vs forward DRUP checking",
    f"{'Name':<10} {'direction':<10} {'checked':>8} {'time(s)':>8} "
    f"{'peak clauses':>13}"))


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

    assert report.ok
    loaded = formula.num_clauses + len(proof)
    _table.add(f"{name:<10} {'backward':<10} {report.num_checked:>8,} "
               f"{report.verification_time:>8.3f} {loaded:>13,}")


@pytest.mark.parametrize("name", ABLATION_INSTANCES)
def test_forward_drup(benchmark, name, aggressive_solutions):
    formula, result = aggressive_solutions[name]
    proof = DrupProof.from_log(result.log)

    report = benchmark.pedantic(verify_stream, args=(formula, proof),
                                rounds=1, iterations=1)

    assert report.ok
    _table.add(f"{name:<10} {'forward':<10} {report.num_additions:>8,} "
               f"{report.verification_time:>8.3f} "
               f"{report.peak_live_clauses:>13,}")
