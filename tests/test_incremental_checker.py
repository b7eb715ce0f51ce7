"""Differential tests for the incremental backward checker.

The incremental checker (persistent root trail + clause retirement) and
the process-parallel verification1 backend must be observationally
equivalent to the original rebuild-per-check path: same verdicts, same
first-failure indices, and — for verification2 — valid unsat cores.
BCP conflict *existence* is order-invariant, but which conflicting
clause surfaces first is not, so cores/marked sets are checked for
validity rather than bit-equality.
"""

import pytest

from repro.bcp.counting import CountingPropagator
from repro.bcp.watched import WatchedPropagator
from repro.benchgen.php import pigeonhole
from repro.benchgen.random_unsat import random_ksat
from repro.core.formula import CnfFormula
from repro.proofs.conflict_clause import (
    ENDING_EMPTY,
    ENDING_FINAL_PAIR,
    ConflictClauseProof,
)
from repro.solver.cdcl import solve
from repro.verify.checker import ProofChecker
from repro.verify.parallel import fork_available
from repro.verify.verification import (
    verify_proof,
    verify_proof_v1,
    verify_proof_v2,
)

ENGINES = [WatchedPropagator, CountingPropagator]


def proof_of(formula):
    result = solve(formula)
    assert result.is_unsat
    return ConflictClauseProof.from_log(result.log)


def _instances():
    """Solved instances covering structured and random refutations."""
    cases = []
    for n in (3, 4):
        formula = pigeonhole(n)
        cases.append((f"php{n}", formula, proof_of(formula)))
    for seed in (0, 1, 4):
        formula = random_ksat(20, 100, k=3, seed=seed)
        result = solve(formula)
        if result.is_unsat:
            cases.append((f"rnd{seed}", formula,
                          ConflictClauseProof.from_log(result.log)))
    return cases


INSTANCES = _instances()


def corrupt(proof):
    """Replace a middle clause with one that is not implied."""
    clauses = [list(c) for c in proof]
    index = len(clauses) // 2
    fresh_var = proof.max_var() + 1
    clauses[index] = [fresh_var]
    return index, ConflictClauseProof(clauses, proof.ending)


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestVerification1Differential:
    @pytest.mark.parametrize("name,formula,proof", INSTANCES)
    def test_correct_proofs_agree(self, engine_cls, name, formula,
                                  proof):
        reports = [
            verify_proof_v1(formula, proof, engine_cls, mode=mode)
            for mode in ("rebuild", "incremental")
        ]
        reports.append(verify_proof_v1(formula, proof, engine_cls,
                                       mode="incremental", jobs=2))
        assert all(r.ok for r in reports), name
        assert all(r.num_checked == len(proof) for r in reports)

    @pytest.mark.parametrize("name,formula,proof", INSTANCES[:3])
    def test_corrupted_proofs_agree_on_failure_index(self, engine_cls,
                                                     name, formula,
                                                     proof):
        _, bad = corrupt(proof)
        failed = {
            verify_proof_v1(formula, bad, engine_cls,
                            mode=mode).failed_clause_index
            for mode in ("rebuild", "incremental")
        }
        failed.add(verify_proof_v1(
            formula, bad, engine_cls, mode="incremental",
            jobs=2).failed_clause_index)
        assert len(failed) == 1, (name, failed)
        assert failed.pop() is not None

    def test_incremental_reduces_propagation_work(self, engine_cls):
        formula = pigeonhole(4)
        proof = proof_of(formula)
        rebuild = verify_proof_v1(formula, proof, engine_cls,
                                  mode="rebuild").bcp_counters
        incremental = verify_proof_v1(formula, proof, engine_cls,
                                      mode="incremental").bcp_counters
        assert incremental["assignments"] + incremental["watch_visits"] \
            < rebuild["assignments"] + rebuild["watch_visits"]


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestVerification2Differential:
    @pytest.mark.parametrize("name,formula,proof", INSTANCES)
    def test_verdicts_and_core_validity(self, engine_cls, name, formula,
                                        proof):
        rebuild = verify_proof_v2(formula, proof, engine_cls,
                                  mode="rebuild")
        incremental = verify_proof_v2(formula, proof, engine_cls,
                                      mode="incremental")
        assert rebuild.ok and incremental.ok, name
        for report in (rebuild, incremental):
            # Every reported core must itself be unsatisfiable.
            assert solve(report.core.as_formula()).is_unsat, name
            assert report.marked_proof_indices

    @pytest.mark.parametrize("name,formula,proof", INSTANCES[:2])
    def test_corrupted_proofs_rejected(self, engine_cls, name, formula,
                                       proof):
        _, bad = corrupt(proof)
        for mode in ("rebuild", "incremental"):
            report = verify_proof_v2(formula, bad, engine_cls,
                                     mode=mode)
            assert not report.ok, (name, mode)


class TestIncrementalCheckerInternals:
    def test_root_conflict_short_circuits_checks(self):
        # F alone is unit-refutable, so every check trivially conflicts.
        formula = CnfFormula([[1], [-1, 2], [-2, -1]])
        proof = ConflictClauseProof([()], ENDING_EMPTY)
        for mode in ("rebuild", "incremental"):
            assert verify_proof_v1(formula, proof, mode=mode).ok

    def test_falsified_unit_sets_root_conflict(self):
        formula = CnfFormula([[1], [-1, 2]])
        proof = ConflictClauseProof([(-2,), (2,)], ENDING_FINAL_PAIR)
        checker = ProofChecker(formula, proof, mode="incremental")
        outcome = checker.check_clause(1)
        checker.reset()
        assert outcome.conflict
        assert checker._root_conflict is not None

    def test_tautological_clause_has_no_responsible_cid(self):
        formula = CnfFormula([[1, 2], [1, -2], [-1, 2], [-1, -2]])
        proof = ConflictClauseProof([(3, -3), (1,), (-1,)],
                                    ENDING_FINAL_PAIR)
        for mode in ("rebuild", "incremental"):
            checker = ProofChecker(formula, proof, mode=mode)
            outcome = checker.check_clause(0)
            checker.reset()
            assert outcome.conflict
            assert outcome.confl_cid is None

    def test_retire_rejects_rising_ceiling(self):
        formula = pigeonhole(3)
        proof = proof_of(formula)
        checker = ProofChecker(formula, proof, mode="incremental")
        checker.check_clause(len(proof) - 1)
        checker.reset()
        checker.check_clause(0)
        checker.reset()
        stats = dict(checker.root_stats)
        with pytest.raises(ValueError, match="monotonically.*rebuild"):
            checker.check_clause(len(proof) - 1)
        # Refused before the root moved.
        assert checker.root_stats == stats

    def test_unknown_mode_rejected(self):
        formula = CnfFormula([[1], [-1]])
        proof = ConflictClauseProof([()], ENDING_EMPTY)
        with pytest.raises(ValueError, match="mode"):
            ProofChecker(formula, proof, mode="eager")
        with pytest.raises(ValueError, match="mode"):
            verify_proof_v1(formula, proof, mode="eager")
        with pytest.raises(ValueError, match="mode"):
            verify_proof_v2(formula, proof, mode="eager")


class TestDispatcherForwarding:
    """verify_proof() must forward mode/jobs."""

    def setup_method(self):
        self.formula = pigeonhole(4)
        _, self.bad = corrupt(proof_of(self.formula))

    def test_mode_and_jobs_are_forwarded(self):
        report = verify_proof(self.formula, self.bad,
                              procedure="verification1",
                              mode="incremental", jobs=2)
        assert report.mode == "incremental"
        assert report.jobs == 2
        assert report.failed_clause_index \
            == verify_proof_v1(self.formula, self.bad).failed_clause_index

    def test_verification2_rejects_v1_only_options(self):
        proof = proof_of(self.formula)
        with pytest.raises(ValueError, match="sequential"):
            verify_proof(self.formula, proof, jobs=2)


@pytest.fixture(scope="module")
def php5_proof():
    formula = pigeonhole(5)
    result = solve(formula, reduce_base=20, reduce_growth=10)
    assert result.is_unsat
    return formula, ConflictClauseProof.from_log(result.log)


@pytest.mark.skipif(not fork_available(),
                    reason="the pool forks its workers")
class TestParallelBackend:
    def test_backward_workers_retire_clauses(self, php5_proof):
        """Shards reach every worker high→low, so backward workers
        retire clauses and together do about the sequential work."""
        formula, proof = php5_proof
        sequential = verify_proof_v1(formula, proof, WatchedPropagator,
                                     mode="incremental")
        parallel = verify_proof_v1(formula, proof, WatchedPropagator,
                                   mode="incremental", jobs=2)
        assert sequential.ok and parallel.ok
        assert parallel.num_checked == sequential.num_checked
        assert parallel.bcp_counters["purged"] > 0
        assert (parallel.bcp_counters["watch_visits"]
                <= 1.1 * sequential.bcp_counters["watch_visits"])

    def test_parallel_matches_sequential_on_failure(self):
        formula = pigeonhole(4)
        index, bad = corrupt(proof_of(formula))
        sequential = verify_proof_v1(formula, bad)
        parallel = verify_proof_v1(formula, bad, mode="incremental",
                                   jobs=3)
        assert not sequential.ok and not parallel.ok
        assert parallel.failed_clause_index \
            == sequential.failed_clause_index

    def test_parallel_report_counters_summed(self):
        formula = pigeonhole(4)
        proof = proof_of(formula)
        report = verify_proof_v1(formula, proof, mode="incremental",
                                 jobs=2)
        assert report.ok
        assert report.jobs == 2
        assert report.bcp_counters["assignments"] > 0
