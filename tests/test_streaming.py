"""DRUP traces with heavy deletion: the deletion-chain family.

:mod:`repro.benchgen.streaming` builds refutations whose deletions keep
the live clause set a small window over the trace: a clause of F and a
unit fall out of it with every addition.  These tests check such traces
backward through :func:`repro.proofs.trace_format.read_proof` and
``repro verify``: a file and the same trace in memory read into the same
proof and verdict, a deletion must name a live clause, and the exact
work of the checker on the chain is pinned.
"""

import pytest

from repro.benchgen.registry import pigeonhole
from repro.benchgen.streaming import (
    deletion_chain,
    deletion_chain_formula,
    write_deletion_chain_drup,
)
from repro.cli import EXIT_PARSE_ERROR, EXIT_PROOF_BAD, main
from repro.core.dimacs import write_dimacs
from repro.core.exceptions import ProofFormatError, ReproError
from repro.core.formula import CnfFormula
from repro.proofs.conflict_clause import ConflictClauseProof
from repro.proofs.drup import DrupProof, format_drup, write_drup
from repro.proofs.trace_format import read_proof
from repro.solver.cdcl import solve
from repro.testing import KIND_DRUP, ProofMutator
from repro.verify.report import PROOF_IS_CORRECT, PROOF_IS_NOT_CORRECT
from repro.verify.verification import verify_proof

N = 400
WINDOW = 4


@pytest.fixture(scope="module")
def chain():
    return deletion_chain(N, window=WINDOW)


@pytest.fixture
def chain_files(tmp_path):
    cnf = tmp_path / "chain.cnf"
    drup = tmp_path / "chain.drup"
    write_dimacs(deletion_chain_formula(N), cnf)
    write_deletion_chain_drup(drup, N, window=WINDOW)
    return cnf, drup


@pytest.fixture
def chain_drup(chain, tmp_path):
    _, proof = chain
    path = tmp_path / "chain.drup"
    write_drup(proof, path)
    return path


class TestVerdicts:
    def test_correct_chain(self, chain, chain_drup):
        formula, _ = chain
        proof = read_proof(chain_drup, formula)
        assert len(proof) == N
        assert len(proof.deletions) == 2 * (N - 1) - (WINDOW - 1)
        report = verify_proof(formula, proof)
        assert report.outcome == PROOF_IS_CORRECT
        assert report.ok
        assert report.engine == "watched"

    def test_non_rup_addition_rejected(self, tmp_path):
        formula = CnfFormula([[1, 2], [-1, 2], [1, -2], [-1, -2]],
                             num_vars=3)
        path = tmp_path / "bad.drup"
        # (3) is over an unconstrained fresh variable; the rest of the
        # trace is RUP once (3) is in.
        path.write_text("3 0\n-3 1 0\n0\n")
        report = verify_proof(formula, read_proof(path, formula),
                              procedure="verification1")
        assert report.outcome == PROOF_IS_NOT_CORRECT
        assert report.failed_clause_index == 0
        assert "did not produce a conflict" in report.failure_reason

    def test_trace_without_empty_clause(self, chain, tmp_path):
        formula, proof = chain
        clipped = [e for e in proof.events if e.literals
                   or e.kind != "add"]
        path = tmp_path / "clipped.drup"
        path.write_text(format_drup(type(proof)(clipped)))
        report = verify_proof(formula, read_proof(path, formula))
        assert report.outcome == PROOF_IS_NOT_CORRECT
        assert "never derives the empty clause" \
            in report.failure_reason


class TestInMemorySource:
    """An in-memory :class:`DrupProof` reads into the same proof as the
    file."""

    def test_matches_file_source(self, chain, chain_drup):
        formula, trace = chain
        from_file = read_proof(chain_drup, formula)
        in_memory = trace.to_proof(formula)
        assert in_memory == from_file
        reports = [verify_proof(formula, proof)
                   for proof in (from_file, in_memory)]
        for name in ("outcome", "num_checked", "bcp_counters"):
            assert getattr(reports[0], name) == getattr(reports[1], name)

    def test_sources_agree_on_mutants(self, tmp_path):
        """Differential over the DRUP mutants of a solver trace with
        deletions: the file and the in-memory source reach the same
        outcome at the same clause, and raise nothing but
        ``ReproError``."""
        formula = pigeonhole(6)
        result = solve(formula, restart_base=10, reduce_base=30,
                       reduce_growth=10)
        proof = ConflictClauseProof.from_log(result.log)
        trace = DrupProof.from_log(result.log)
        assert trace.num_deletions > 0
        mutants = [m for seed in range(6)
                   for m in ProofMutator(formula, proof, drup=trace,
                                         seed=seed).mutations()
                   if m.kind == KIND_DRUP]
        assert len(mutants) == 42
        # Seeds repeat the deterministic operators: check each
        # distinct trace once.
        distinct = {m.events: m for m in mutants}
        path = tmp_path / "mutant.drup"

        def judge(read):
            try:
                report = verify_proof(formula, read(),
                                      procedure="verification1")
            except ReproError as exc:
                return type(exc).__name__
            return report.outcome, report.failed_clause_index

        for mutation in distinct.values():
            mutant = mutation.build()
            write_drup(mutant, path)
            assert judge(lambda: read_proof(path, formula)) \
                == judge(lambda: mutant.to_proof(formula)), \
                mutation.description


class TestDeletions:
    def test_strict_unknown_deletion_raises(self, chain, tmp_path):
        formula, _ = chain
        path = tmp_path / "bogus.drup"
        path.write_text("2 0\nd 5 7 0\n0\n")
        with pytest.raises(ProofFormatError,
                           match="unknown or already-deleted"):
            read_proof(path, formula)

    def test_double_deletion_is_unknown(self, chain, tmp_path):
        formula, _ = chain
        path = tmp_path / "double.drup"
        path.write_text("2 0\nd 2 0\nd 2 0\n0\n")
        with pytest.raises(ProofFormatError):
            read_proof(path, formula)


class TestChainWorkPinned:
    """The exact work of ``repro verify`` on the fault sweep's chain
    (n=2000, window=8).

    Every prefix of the chain is unit-refutable, so each backward check
    meets a root conflict that propagates the rest of the chain: the
    work grows with n squared.  These counts move only when the checker
    or the engine does different work."""

    def test_counters(self, tmp_path):
        drup = tmp_path / "chain.drup"
        write_deletion_chain_drup(drup, 2000, window=8)
        formula = deletion_chain_formula(2000)
        report = verify_proof(formula, read_proof(drup, formula))
        assert report.outcome == PROOF_IS_CORRECT
        assert (report.num_checked, report.core.size) == (2000, 2001)
        assert report.bcp_counters == dict(
            assignments=2014972, watch_visits=1997001,
            clause_visits=1997001, purged=0, detach_misses=0)


class TestCli:
    def test_correct_chain(self, chain_files, capsys):
        cnf, drup = chain_files
        assert main(["verify", str(cnf), str(drup)]) == 0
        out = capsys.readouterr().out
        assert "s PROOF_IS_CORRECT" in out
        assert f"c checked={N} skipped=0 " in out

    def test_parse_error_exit(self, chain_files, tmp_path, capsys):
        cnf, _ = chain_files
        torn = tmp_path / "torn.drup"
        torn.write_text("2 0\n3 ")
        assert main(["verify", str(cnf), str(torn)]) \
            == EXIT_PARSE_ERROR
        assert "c error: line 2: missing terminating 0" \
            in capsys.readouterr().err

    def test_bad_proof_exit(self, chain_files, tmp_path, capsys):
        cnf, _ = chain_files
        never = tmp_path / "never.drup"
        never.write_text("2 0\n")
        assert main(["verify", str(cnf), str(never)]) \
            == EXIT_PROOF_BAD
