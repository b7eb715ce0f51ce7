"""Engine-parity differential tests.

The BCP engines (watched, counting) are interchangeable by contract:
every verification procedure must produce the same verdict, the same
failed/marked indices, and the same unsat core regardless of which
engine ran the checks.  These tests pin that contract on the paper's
worked example and on solved instances — including under the
adversarial mutation sweep and across the forked process pool, where
every worker runs the engine the run asked for.
"""

import pytest

from repro.bcp import ENGINES
from repro.benchgen.registry import pigeonhole
from repro.core.formula import CnfFormula
from repro.proofs.conflict_clause import (
    ENDING_FINAL_PAIR,
    ConflictClauseProof,
)
from repro.proofs.drup import DrupProof
from repro.solver.cdcl import solve
from repro.testing import run_differential
from repro.verify.parallel import fork_available
from repro.verify.verification import verify_proof_v1, verify_proof_v2

ENGINE_NAMES = tuple(ENGINES)

# The paper's worked example: two derived units refute the first four
# clauses; (4 5) is padding outside the refutation's cone.
PAPER_F = CnfFormula([[1, 2], [1, -2], [-1, 3], [-1, -3], [4, 5]])
PAPER_PROOF = ConflictClauseProof([(1,), (-1,)], ENDING_FINAL_PAIR)


@pytest.fixture(scope="module")
def solved():
    formula = pigeonhole(5)
    result = solve(formula, reduce_base=20, reduce_growth=10)
    assert result.is_unsat
    return (formula, ConflictClauseProof.from_log(result.log),
            DrupProof.from_log(result.log))


def _v1_identity(report):
    return (report.outcome, report.num_checked,
            report.failed_clause_index, report.marked_proof_indices)


def _v2_identity(report):
    return (report.outcome, report.num_checked, report.num_skipped,
            report.failed_clause_index, report.marked_proof_indices,
            report.core.clause_indices if report.core else None)


class TestWorkedExample:
    @pytest.mark.parametrize("mode", ["rebuild", "incremental"])
    def test_v1_identical_across_engines(self, mode):
        reports = [verify_proof_v1(PAPER_F, PAPER_PROOF, engine,
                                   mode=mode)
                   for engine in ENGINE_NAMES]
        assert all(r.ok for r in reports)
        assert len({_v1_identity(r) for r in reports}) == 1
        assert [r.engine for r in reports] == list(ENGINE_NAMES)

    def test_v2_identical_across_engines(self):
        reports = [verify_proof_v2(PAPER_F, PAPER_PROOF, engine,
                                   mode=mode)
                   for engine in ENGINE_NAMES
                   for mode in ("rebuild", "incremental")]
        assert all(r.ok for r in reports)
        assert len({_v2_identity(r) for r in reports}) == 1
        # The worked example's core is exactly the first four clauses.
        assert reports[0].core.clause_indices == (0, 1, 2, 3)

    def test_counter_schema_identical(self):
        keys = set()
        for engine in ENGINE_NAMES:
            report = verify_proof_v1(PAPER_F, PAPER_PROOF, engine)
            keys.add(tuple(sorted(report.bcp_counters)))
        assert len(keys) == 1


class TestSolvedInstance:
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_v1_verdict_and_marks(self, solved, engine):
        formula, proof, _ = solved
        baseline = verify_proof_v1(formula, proof)
        report = verify_proof_v1(formula, proof, engine,
                                 mode="incremental")
        assert _v1_identity(report) == _v1_identity(baseline)

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_v2_verdict_and_sound_core(self, solved, engine):
        """Verdicts are engine-independent; marked sets need not be —
        each engine may meet a different (equally valid) conflict
        clause first (the counting engine scans occurrence lists in
        cid order; the watched engine reorders its watch lists as it
        goes), so the contract is
        that every engine's core is *sound*, shown by re-verifying its
        own trimmed proof against its own core.
        """
        from repro.verify.trimming import trim_proof

        formula, proof, _ = solved
        baseline = verify_proof_v2(formula, proof, "watched")
        report = verify_proof_v2(formula, proof, engine)
        assert report.outcome == baseline.outcome
        assert report.core is not None
        trimmed = trim_proof(formula, proof, engine_cls=engine).trimmed
        assert verify_proof_v1(report.core.as_formula(), trimmed).ok

    def test_forward_drup_verdict(self, solved):
        """The DRUP trace of the same solve, whose forward reading
        honours its deletions, checked backward: verification1 reads
        identically on every engine."""
        formula, _, drup = solved
        proof = drup.to_proof(formula)
        assert proof.deletions
        baseline = verify_proof_v1(formula, proof, "watched")
        for engine in ENGINE_NAMES:
            report = verify_proof_v1(formula, proof, engine)
            assert report.ok and report.engine == engine
            assert _v1_identity(report) == _v1_identity(baseline)
            assert verify_proof_v2(formula, proof, engine).ok

    @pytest.mark.skipif(not fork_available(),
                        reason="needs a process pool")
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_parallel_matches_sequential(self, solved, engine):
        formula, proof, _ = solved
        sequential = verify_proof_v1(formula, proof, engine)
        parallel = verify_proof_v1(formula, proof, engine, jobs=2)
        assert _v1_identity(parallel) == _v1_identity(sequential)
        assert parallel.engine == engine


class TestMutationSweep:
    """The adversarial half of the parity guarantee: the mutation
    harness's expectations are engine-independent, so the same sweep
    must hold under every engine."""

    # One config per axis keeps 2 engines x ~15 mutations tractable.
    CONFIGS = (("incremental", 1),
               ("rebuild", 1),
               ("incremental", 2))

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_expectations_hold(self, solved, engine):
        formula, proof, drup = solved
        # ``engine`` reaches every checker, on the trace mutations too.
        summary = run_differential(formula, proof, drup=drup,
                                   v1_configs=self.CONFIGS,
                                   engine=engine)
        assert summary.ok, summary.problems

    def test_verdict_matrix_identical(self, solved):
        """Not just "no expectation violated": every mutation gets the
        *same* accept/reject matrix from every engine."""
        formula, proof, _ = solved
        matrices = {}
        for engine in ENGINE_NAMES:
            summary = run_differential(formula, proof,
                                       v1_configs=self.CONFIGS[:1],
                                       engine=engine)
            matrices[engine] = [
                (v.mutation.operator, v.mutation.description,
                 v.rejected_at_parse, tuple(sorted(
                     v.v1_outcomes.items())), v.v2_accepted)
                for v in summary.verdicts]
        baseline = matrices[ENGINE_NAMES[0]]
        for engine in ENGINE_NAMES[1:]:
            assert matrices[engine] == baseline
