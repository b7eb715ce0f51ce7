"""Streaming bounded-memory verification (:mod:`repro.verify.streaming`).

Pins the tentpole contract: one pass over the trace file, deletions
evict clauses from the live window, memory budgets degrade to a typed
partial report, and a checkpointed run resumed after an interruption
reaches the *same verdict with the same cumulative counts* as an
uninterrupted one.  The acceptance metric — a proof whose total
addition count is 10x the live-clause cap still verifies — is asserted
directly.
"""

import json

import pytest

from repro.benchgen.registry import pigeonhole
from repro.benchgen.streaming import (
    deletion_chain,
    deletion_chain_formula,
    write_deletion_chain_drup,
)
from repro.cli import (
    EXIT_ERROR,
    EXIT_PARSE_ERROR,
    EXIT_PROOF_BAD,
    EXIT_RESOURCE_LIMIT,
    main,
)
from repro.core.dimacs import write_dimacs
from repro.core.exceptions import (
    CheckpointError,
    ProofFormatError,
    ReproError,
)
from repro.core.formula import CnfFormula
from repro.proofs.conflict_clause import ConflictClauseProof
from repro.proofs.drup import DrupProof, format_drup, write_drup
from repro.solver.cdcl import solve
from repro.testing import KIND_DRUP, ProofMutator
from repro.verify import CheckBudget
from repro.verify.report import (
    PROOF_IS_CORRECT,
    PROOF_IS_NOT_CORRECT,
    RESOURCE_LIMIT_EXCEEDED,
)
from repro.verify.streaming import (
    load_checkpoint,
    verify_stream,
)

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
        report = verify_stream(formula, chain_drup)
        assert report.outcome == PROOF_IS_CORRECT
        assert report.ok
        assert report.num_additions == N
        assert report.engine == "watched"

    def test_non_rup_addition_rejected(self, tmp_path):
        formula = CnfFormula([[1, 2], [-1, 2], [1, -2], [-1, -2]])
        path = tmp_path / "bad.drup"
        path.write_text("3 0\n0\n")  # unconstrained fresh variable
        report = verify_stream(CnfFormula(list(formula), num_vars=3),
                               path)
        assert report.outcome == PROOF_IS_NOT_CORRECT
        assert report.failed_event_index == 0
        assert "not RUP" in report.failure_reason

    def test_trace_without_empty_clause(self, chain, tmp_path):
        formula, proof = chain
        clipped = [e for e in proof.events if e.literals
                   or e.kind != "add"]
        path = tmp_path / "clipped.drup"
        path.write_text(format_drup(type(proof)(clipped)))
        report = verify_stream(formula, path)
        assert report.outcome == PROOF_IS_NOT_CORRECT
        assert "never derives the empty clause" \
            in report.failure_reason

    def test_no_digest_without_checkpoint(self, chain, chain_drup,
                                          monkeypatch):
        """The digests only pin checkpoints; a run without one never
        re-reads the proof file to compute them."""
        import repro.verify.streaming as streaming

        def refuse(*args, **kwargs):
            raise AssertionError("file_digest called")

        monkeypatch.setattr(streaming, "file_digest", refuse)
        formula, _ = chain
        assert verify_stream(formula, chain_drup).ok


class TestInMemorySource:
    """An in-memory :class:`DrupProof` runs through the same checker
    as the file."""

    def test_matches_file_source(self, chain, chain_drup):
        formula, proof = chain
        from_file = verify_stream(formula, chain_drup)
        in_memory = verify_stream(formula, proof)
        assert in_memory.ok
        for name in ("outcome", "num_additions", "num_deletions",
                     "peak_live_clauses", "window_shifts",
                     "bcp_counters"):
            assert getattr(in_memory, name) == getattr(from_file, name)

    def test_checkpoint_needs_a_file(self, chain, tmp_path):
        formula, proof = chain
        with pytest.raises(ValueError, match="proof file"):
            verify_stream(formula, proof,
                          checkpoint_path=tmp_path / "ckpt.json")
        with pytest.raises(ValueError, match="proof file"):
            verify_stream(formula, proof, resume=True)

    def test_sources_agree_on_mutants(self, tmp_path):
        """Differential over the DRUP mutants of a solver trace with
        deletions: the file and the in-memory source reach the same
        outcome at the same event, and raise nothing but
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

        def judge(source):
            try:
                report = verify_stream(formula, source)
            except ReproError as exc:
                return type(exc).__name__
            return report.outcome, report.failed_event_index

        for mutation in distinct.values():
            mutant = mutation.build()
            write_drup(mutant, path)
            assert judge(path) == judge(mutant), mutation.description


class TestWindow:
    def test_live_set_stays_bounded(self, chain, chain_drup):
        formula, _ = chain
        report = verify_stream(formula, chain_drup)
        # Formula clauses get deleted as the chain is consumed, and
        # proof additions are evicted `WINDOW` steps behind: the peak
        # live set is a small constant over the formula size.
        assert report.peak_live_clauses <= formula.num_clauses \
            + WINDOW + 2
        assert report.window_shifts > 0

    def test_ten_x_over_cap_acceptance(self, tmp_path):
        """The ISSUE's acceptance metric: total additions = 10x the
        live-clause cap, verified to the correct verdict under that
        cap."""
        cap = 40
        n = 10 * cap
        cnf = tmp_path / "cap.cnf"
        drup = tmp_path / "cap.drup"
        write_dimacs(deletion_chain_formula(n), cnf)
        info = write_deletion_chain_drup(drup, n, window=8)
        assert info["additions"] == 10 * cap
        assert info["peak_live_additions"] <= cap
        from repro.core.dimacs import read_dimacs

        report = verify_stream(
            read_dimacs(cnf), drup,
            budget=CheckBudget(max_live_clauses=cap))
        assert report.outcome == PROOF_IS_CORRECT
        assert report.num_additions == 10 * cap


class TestBudgets:
    def test_live_clause_budget_partial(self, chain, chain_files):
        formula, _ = chain
        _, drup = chain_files
        report = verify_stream(
            formula, drup, budget=CheckBudget(max_live_clauses=2))
        assert report.outcome == RESOURCE_LIMIT_EXCEEDED
        assert report.exhausted and not report.ok
        assert "live-clause budget" in report.failure_reason
        assert report.stopped_at_event is not None

    def test_byte_budget_partial(self, chain, chain_drup):
        formula, _ = chain
        report = verify_stream(formula, chain_drup,
                               budget=CheckBudget(max_bytes=32))
        assert report.outcome == RESOURCE_LIMIT_EXCEEDED
        assert "memory budget" in report.failure_reason

    def test_props_budget_partial_then_resume(self, chain, tmp_path):
        formula, proof = chain
        drup = tmp_path / "chain.drup"
        write_drup(proof, drup)
        token = tmp_path / "ckpt.json"
        partial = verify_stream(
            formula, drup, budget=CheckBudget(max_props=1500),
            checkpoint_path=token, checkpoint_every=50)
        assert partial.outcome == RESOURCE_LIMIT_EXCEEDED
        assert token.exists()
        assert partial.checkpoint_path == str(token)

        resumed = verify_stream(formula, drup, checkpoint_path=token,
                                resume=True)
        full = verify_stream(formula, drup)
        assert resumed.outcome == PROOF_IS_CORRECT
        assert resumed.num_additions == full.num_additions == N
        assert resumed.num_deletions == full.num_deletions
        assert resumed.resumed_from_event is not None
        assert not token.exists(), "spent token must be deleted"

    def test_resumed_props_are_cumulative(self, chain, tmp_path):
        formula, proof = chain
        drup = tmp_path / "chain.drup"
        write_drup(proof, drup)
        token = tmp_path / "ckpt.json"
        verify_stream(formula, drup,
                      budget=CheckBudget(max_props=1500),
                      checkpoint_path=token, checkpoint_every=50)
        # The same cumulative cap re-trips immediately on resume: the
        # spent work is pre-charged, not forgotten.
        again = verify_stream(formula, drup,
                              budget=CheckBudget(max_props=1500),
                              checkpoint_path=token, resume=True)
        assert again.outcome == RESOURCE_LIMIT_EXCEEDED


class TestCheckpoints:
    def test_schema_valid_and_loadable(self, chain, tmp_path):
        formula, proof = chain
        drup = tmp_path / "chain.drup"
        write_drup(proof, drup)
        token = tmp_path / "ckpt.json"
        verify_stream(formula, drup,
                      budget=CheckBudget(max_props=1500),
                      checkpoint_path=token, checkpoint_every=50)
        doc = load_checkpoint(token)   # validates internally
        assert doc["schema"] == "repro.obs.checkpoint/v1"
        assert doc["additions"] > 0
        raw = json.loads(token.read_text())
        assert raw == doc

    def test_verdict_deletes_checkpoint(self, chain, tmp_path):
        formula, proof = chain
        drup = tmp_path / "chain.drup"
        write_drup(proof, drup)
        token = tmp_path / "ckpt.json"
        report = verify_stream(formula, drup, checkpoint_path=token,
                               checkpoint_every=50)
        assert report.ok
        assert report.checkpoints_written > 0
        assert not token.exists()
        assert report.checkpoint_path is None

    def test_missing_token(self, chain, chain_drup, tmp_path):
        formula, _ = chain
        with pytest.raises(CheckpointError, match="no checkpoint"):
            verify_stream(formula, chain_drup,
                          checkpoint_path=tmp_path / "nope.json",
                          resume=True)

    def test_garbage_token(self, chain, chain_drup, tmp_path):
        formula, _ = chain
        token = tmp_path / "garbage.json"
        token.write_text("{not json")
        with pytest.raises(CheckpointError):
            verify_stream(formula, chain_drup, checkpoint_path=token,
                          resume=True)

    def test_token_from_other_formula_refused(self, chain, tmp_path):
        formula, proof = chain
        drup = tmp_path / "chain.drup"
        write_drup(proof, drup)
        token = tmp_path / "ckpt.json"
        verify_stream(formula, drup,
                      budget=CheckBudget(max_props=1500),
                      checkpoint_path=token, checkpoint_every=50)
        other = deletion_chain_formula(N + 1)
        with pytest.raises(CheckpointError, match="different formula"):
            verify_stream(other, drup, checkpoint_path=token,
                          resume=True)

    def test_resume_requires_checkpoint_path(self, chain, chain_drup):
        formula, _ = chain
        with pytest.raises(ValueError, match="checkpoint_path"):
            verify_stream(formula, chain_drup, resume=True)


class TestDeletions:
    def test_strict_unknown_deletion_raises(self, chain, tmp_path):
        formula, _ = chain
        path = tmp_path / "bogus.drup"
        path.write_text("2 0\nd 5 7 0\n0\n")
        with pytest.raises(ProofFormatError,
                           match="unknown or already-deleted"):
            verify_stream(formula, path)

    def test_lenient_unknown_deletion_warns(self, chain, tmp_path):
        formula, _ = chain
        path = tmp_path / "bogus.drup"
        path.write_text("2 0\nd 5 7 0\n0\n")
        report = verify_stream(formula, path, lenient_deletions=True)
        assert report.ok
        assert any("skipped deletion" in w for w in report.warnings)

    def test_double_deletion_is_unknown(self, chain, tmp_path):
        formula, _ = chain
        path = tmp_path / "double.drup"
        path.write_text("2 0\nd 2 0\nd 2 0\n0\n")
        with pytest.raises(ProofFormatError):
            verify_stream(formula, path)


class TestChainWorkPinned:
    """The exact work of the CI streaming instance (n=2000, window=8).

    CI gates this run's props/s, which a slow runner moves; these
    counts move only when the streaming driver or the engine does
    different work.  The live-clause cap evicts, but never changes
    what is checked."""

    @pytest.mark.parametrize("budget", [
        None, CheckBudget(max_live_clauses=200)], ids=["uncapped", "cap200"])
    def test_counters(self, tmp_path, budget):
        drup = tmp_path / "chain.drup"
        write_deletion_chain_drup(drup, 2000, window=8)
        report = verify_stream(deletion_chain_formula(2000), drup,
                               budget=budget)
        assert report.outcome == PROOF_IS_CORRECT
        assert (report.num_additions, report.num_deletions,
                report.stats.props) == (2000, 3991, 21968)
        assert report.bcp_counters == dict(
            assignments=19969, watch_visits=1999, clause_visits=1999,
            purged=0, detach_misses=0)


class TestCli:
    def test_correct_chain(self, chain_files, capsys):
        cnf, drup = chain_files
        assert main(["verify-stream", str(cnf), str(drup)]) == 0
        out = capsys.readouterr().out
        assert "s PROOF_IS_CORRECT" in out
        assert "window_shifts=" in out

    def test_budget_exit_and_resume(self, chain_files, tmp_path,
                                    capsys):
        cnf, drup = chain_files
        token = tmp_path / "tok.json"
        code = main(["verify-stream", str(cnf), str(drup),
                     "--max-props", "1500", "--checkpoint",
                     str(token), "--checkpoint-every", "50"])
        assert code == EXIT_RESOURCE_LIMIT
        assert "resume token" in capsys.readouterr().out
        assert token.exists()
        code = main(["verify-stream", str(cnf), str(drup),
                     "--checkpoint", str(token), "--resume"])
        assert code == 0
        out = capsys.readouterr().out
        assert "s PROOF_IS_CORRECT" in out
        assert f"additions={N} " in out
        assert "resumed from event" in out

    def test_parse_error_exit(self, chain_files, tmp_path, capsys):
        cnf, _ = chain_files
        torn = tmp_path / "torn.drup"
        torn.write_text("2 0\n3 ")
        assert main(["verify-stream", str(cnf), str(torn)]) \
            == EXIT_PARSE_ERROR
        assert "c error:" in capsys.readouterr().err

    def test_bad_proof_exit(self, chain_files, tmp_path, capsys):
        cnf, _ = chain_files
        never = tmp_path / "never.drup"
        never.write_text("2 0\n")
        assert main(["verify-stream", str(cnf), str(never)]) \
            == EXIT_PROOF_BAD

    def test_resume_without_checkpoint_is_an_error(self, chain_files,
                                                   capsys):
        cnf, drup = chain_files
        assert main(["verify-stream", str(cnf), str(drup),
                     "--resume"]) == EXIT_ERROR
        assert "--resume requires --checkpoint" \
            in capsys.readouterr().err

    def test_stale_token_is_an_error_not_a_traceback(
            self, chain_files, tmp_path, capsys):
        cnf, drup = chain_files
        token = tmp_path / "stale.json"
        token.write_text('{"schema": "wrong"}')
        assert main(["verify-stream", str(cnf), str(drup),
                     "--checkpoint", str(token), "--resume"]) \
            == EXIT_ERROR
        assert "c error:" in capsys.readouterr().err
