"""Differential fault-injection tests.

Every soundness-breaking mutation of a known-good proof must be
*rejected* by every checker configuration (or refused at parse time
with :class:`ProofFormatError`) — never accepted, and never crashed on
with anything outside the ``ReproError`` hierarchy.  Benign mutations
(clause duplication) must still be accepted, guarding against a
harness that "passes" by rejecting everything.
"""

import pytest

from repro.benchgen.registry import pigeonhole
from repro.core.formula import CnfFormula
from repro.proofs.conflict_clause import ConflictClauseProof
from repro.proofs.drup import ADD, DrupEvent, DrupProof
from repro.solver.cdcl import solve
from repro.testing import (
    DEFAULT_V1_CONFIGS,
    EXPECT_ACCEPT,
    EXPECT_REJECT_ALL,
    EXPECT_REJECT_V1,
    KIND_CC,
    KIND_DRUP,
    ProofMutator,
    run_differential,
)
from repro.verify.verification import verify_proof_v1


def _solved(formula):
    result = solve(formula, reduce_base=20, reduce_growth=10)
    assert result.is_unsat
    return (formula, ConflictClauseProof.from_log(result.log),
            DrupProof.from_log(result.log))


@pytest.fixture(scope="module")
def tiny():
    return _solved(CnfFormula([[1, 2], [1, -2], [-1, 2], [-1, -2],
                               [3, 4]]))


@pytest.fixture(scope="module")
def php():
    return _solved(pigeonhole(5))


class TestMutatorProperties:
    def test_operator_roster(self, php):
        formula, proof, drup = php
        mutations = ProofMutator(formula, proof, drup=drup).mutations()
        operators = {m.operator for m in mutations}
        assert len(operators) >= 8
        kinds = {m.kind for m in mutations}
        assert kinds == {KIND_CC, KIND_DRUP}

    def test_deterministic_for_seed(self, php):
        formula, proof, drup = php
        first = ProofMutator(formula, proof, drup=drup,
                             seed=42).mutations()
        second = ProofMutator(formula, proof, drup=drup,
                              seed=42).mutations()
        assert first == second

    def test_guaranteed_classes_present(self, php):
        """A real solver proof yields the strong expectation classes
        (on degenerate proofs the probes may downgrade them)."""
        formula, proof, drup = php
        mutations = ProofMutator(formula, proof, drup=drup).mutations()
        by_class = {}
        for mutation in mutations:
            by_class.setdefault(mutation.expectation, []).append(mutation)
        assert len(by_class[EXPECT_REJECT_ALL]) >= 5
        assert len(by_class[EXPECT_REJECT_V1]) >= 1
        assert len(by_class[EXPECT_ACCEPT]) >= 2

    def test_deletion_operators_exercised(self, php):
        formula, proof, drup = php
        assert drup.num_deletions > 0  # precondition for the operator
        mutations = ProofMutator(formula, proof, drup=drup).mutations()
        assert any(m.operator == "corrupt_deletion" for m in mutations)


class TestDifferential:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_tiny_all_configurations(self, tiny, seed):
        """Full config matrix (modes x jobs 1/4) on the small
        instance: no expectation violated, no crash, v1 configs agree."""
        formula, proof, drup = tiny
        summary = run_differential(formula, proof, drup=drup, seed=seed)
        assert summary.ok, summary.problems
        assert summary.num_mutations >= 8
        assert summary.checker_runs > summary.num_mutations

    def test_php_with_deletions(self, php):
        """A deletion-bearing trace on a real instance; the jobs axis is
        trimmed to keep the sweep fast on one CPU."""
        formula, proof, drup = php
        configs = (("incremental", 1), ("rebuild", 1))
        summary = run_differential(formula, proof, drup=drup, seed=3,
                                   v1_configs=configs)
        assert summary.ok, summary.problems
        counts = summary.by_expectation()
        assert counts.get(EXPECT_REJECT_ALL, 0) >= 5
        assert counts.get(EXPECT_ACCEPT, 0) >= 2

    def test_php_parallel_config(self, php):
        """One parallel configuration on the real instance, so a corrupt
        proof crossing the process pool is exercised too."""
        formula, proof, drup = php
        summary = run_differential(formula, proof, drup=None, seed=5,
                                   v1_configs=(("incremental", 4),))
        assert summary.ok, summary.problems


class TestCheckerHardening:
    def test_drup_foreign_variable_no_crash(self, tiny):
        """Regression: the harness found that a trace mentioning a
        variable outside the formula crashed a checker with IndexError
        instead of returning a verdict."""
        formula = tiny[0]
        foreign = formula.num_vars + 3
        trace = DrupProof([DrupEvent(ADD, (foreign,)),
                           DrupEvent(ADD, ())])
        report = verify_proof_v1(formula, trace.to_proof(formula))
        assert not report.ok

    def test_literal_zero_rejected_in_cc_proof(self):
        from repro.core.exceptions import ProofFormatError

        with pytest.raises(ProofFormatError):
            ConflictClauseProof([(1, 0), (1,), (-1,)])

    def test_literal_zero_rejected_in_drup_event(self):
        from repro.core.exceptions import ProofFormatError

        with pytest.raises(ProofFormatError):
            DrupEvent(ADD, (1, 0))

    def test_default_config_matrix_shape(self):
        assert len(DEFAULT_V1_CONFIGS) == 4
        assert {jobs for _, jobs in DEFAULT_V1_CONFIGS} == {1, 4}
