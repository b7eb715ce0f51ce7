"""Backward checking of DRUP traces, honouring their deletions.

A trace without a ``p ccproof`` header reads into a proof with a
deletion schedule (:meth:`repro.proofs.drup.DrupProof.to_proof`).
verification1 (also with ``--jobs``), verification2, marking, the core
and trimming then run on it through the incremental checker, which
attaches a deleted clause to the persistent root once the falling
ceiling passes its deletion.
"""

import pytest

from repro.benchgen.registry import build_instance
from repro.benchgen.streaming import deletion_chain
from repro.cli import EXIT_ERROR, EXIT_PARSE_ERROR, EXIT_PROOF_BAD, main
from repro.core.dimacs import write_dimacs
from repro.core.exceptions import ProofFormatError
from repro.core.formula import CnfFormula
from repro.proofs.conflict_clause import (
    ENDING_EMPTY,
    ENDING_NONE,
    ConflictClauseProof,
)
from repro.proofs.drup import ADD, DELETE, DrupEvent, DrupProof, format_drup
from repro.proofs.trace_format import parse_proof, read_proof
from repro.solver.cdcl import SolverOptions, solve
from repro.testing import (
    EXPECT_ACCEPT,
    EXPECT_ANY,
    KIND_DRUP,
    ProofMutator,
)
from repro.verify.checker import ProofChecker
from repro.verify.trimming import trim_proof
from repro.verify.verification import verify_proof_v1, verify_proof_v2

# F is refuted by BCP from the unit (1).  The trace derives (2), then
# deletes the unit (1) and the clause (-1 2) of F: the empty clause
# needs neither, but the check of (2) needs both, so the backward pass
# must attach them again before it.
CHAIN_F = CnfFormula([[1], [-1, 2], [-2, 3], [-3, -2]])
ATTACH_TRACE = "2 0\nd 1 0\nd -1 2 0\n0\n"
# The same trace, but (2) is deleted too: the empty clause is no
# longer RUP.
BROKEN_TRACE = "2 0\nd 1 0\nd -1 2 0\nd 2 0\n0\n"


def _verdicts(formula, proof, engine):
    """(v1 ok, v1 failed index, v1 checked, v2 ok, v2 report)."""
    v1 = verify_proof_v1(formula, proof, engine)
    v2 = verify_proof_v2(formula, proof, engine)
    return (v1.ok, v1.failed_clause_index, v1.num_checked, v2.ok), v2


class TestRead:
    def test_deletions_resolve_to_clauses(self):
        proof = parse_proof(ATTACH_TRACE, CHAIN_F)
        assert proof.clauses == [(2,), ()]
        assert proof.ending == ENDING_EMPTY
        # The unit (1) is the formula's clause 0, (-1 2) its clause 1;
        # both go after one addition.
        assert proof.deletions == ((1, ~0), (1, ~1))

    def test_latest_live_copy_is_deleted(self):
        proof = parse_proof("1 2 0\n2 1 0\nd 1 2 0\n0\n",
                            CnfFormula([[1, 2]]))
        assert proof.deletions == ((2, 1),)

    def test_unknown_deletion_names_its_line(self):
        with pytest.raises(ProofFormatError,
                           match="line 2: deletion of unknown"):
            parse_proof("c x\nd 5 7 0\n0\n", CHAIN_F)

    def test_double_deletion_is_unknown(self):
        with pytest.raises(ProofFormatError, match="line 3"):
            parse_proof("2 0\nd 2 0\nd 2 0\n0\n", CHAIN_F)

    def test_formula_deletion_needs_the_formula(self):
        with pytest.raises(ProofFormatError, match="deletion of unknown"):
            parse_proof(ATTACH_TRACE)

    def test_events_after_the_empty_clause_are_not_read(self):
        proof = parse_proof("2 0\n0\nd 9 0\n3 0\n", CHAIN_F)
        assert proof.clauses == [(2,), ()]
        assert proof.deletions == ()

    def test_trace_without_empty_clause_is_refused(self):
        proof = parse_proof("2 0\nd 1 0\n", CHAIN_F)
        assert proof.ending == ENDING_NONE
        for verify in (verify_proof_v1, verify_proof_v2):
            report = verify(CHAIN_F, proof)
            assert not report.ok
            assert report.failed_clause_index is None
            assert "never derives the empty clause" \
                in report.failure_reason

    def test_in_memory_trace_names_the_event(self):
        trace = DrupProof([DrupEvent(DELETE, (9, 10)),
                           DrupEvent(ADD, ())])
        with pytest.raises(ProofFormatError, match="event 0"):
            trace.to_proof(CHAIN_F)

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "rotten.drup"
        path.write_bytes(b"2 0\n\xff 0\n0\n")
        with pytest.raises(ProofFormatError, match="line 2"):
            read_proof(path, CHAIN_F)


class TestAttach:
    @pytest.mark.parametrize("engine", ["watched", "counting"])
    def test_deleted_unit_and_formula_clause_come_back(self, engine):
        proof = parse_proof(ATTACH_TRACE, CHAIN_F)
        verdicts, v2 = _verdicts(CHAIN_F, proof, engine)
        assert verdicts == (True, None, 2, True)
        # The check of (2) marked the deleted unit and clause of F.
        assert v2.core.clause_indices == (0, 1, 2, 3)

    @pytest.mark.parametrize("engine", ["watched", "counting"])
    def test_deleting_a_needed_clause_is_rejected(self, engine):
        proof = parse_proof(BROKEN_TRACE, CHAIN_F)
        verdicts, _ = _verdicts(CHAIN_F, proof, engine)
        assert verdicts == (False, 1, 1, False)

    def test_rebuild_refuses_deletions(self):
        proof = parse_proof(ATTACH_TRACE, CHAIN_F)
        with pytest.raises(ValueError, match="mode rebuild"):
            ProofChecker(CHAIN_F, proof, mode="rebuild")
        with pytest.raises(ValueError, match="mode rebuild"):
            verify_proof_v1(CHAIN_F, proof, mode="rebuild", jobs=2)

    def test_engine_parity_on_solver_traces(self, solved):
        for name in ("barrel5", "chain"):
            formula, _, trace = solved[name]
            proof = trace.to_proof(formula)
            assert proof.deletions
            watched, v2 = _verdicts(formula, proof, "watched")
            counting, v2c = _verdicts(formula, proof, "counting")
            assert watched == counting == (True, None, len(proof), True)
            for report in (v2, v2c):
                core = report.core.as_formula()
                assert solve(core).is_unsat

    def test_jobs_match_sequential(self, solved):
        formula, _, trace = solved["barrel5"]
        proof = trace.to_proof(formula)
        report = verify_proof_v1(formula, proof, jobs=2)
        assert report.ok and report.num_checked == len(proof)
        broken = parse_proof(BROKEN_TRACE, CHAIN_F)
        report = verify_proof_v1(CHAIN_F, broken, jobs=2)
        assert not report.ok and report.failed_clause_index == 1

    def test_trim_returns_a_proof_that_verifies(self, solved):
        formula, _, trace = solved["barrel5"]
        proof = trace.to_proof(formula)
        result = trim_proof(formula, proof)
        assert result.clauses_removed > 0
        assert result.trimmed.ending == ENDING_EMPTY
        assert verify_proof_v1(formula, result.trimmed).ok


class TestCli:
    def _files(self, tmp_path, trace):
        cnf = tmp_path / "f.cnf"
        drup = tmp_path / "f.drup"
        write_dimacs(CHAIN_F, cnf)
        drup.write_text(trace)
        return str(cnf), str(drup)

    def test_verify_accepts(self, tmp_path, capsys):
        assert main(["verify", *self._files(tmp_path, ATTACH_TRACE)]) == 0
        assert "s PROOF_IS_CORRECT" in capsys.readouterr().out

    def test_verify_rejects(self, tmp_path, capsys):
        assert main(["verify", *self._files(tmp_path, BROKEN_TRACE)]) \
            == EXIT_PROOF_BAD
        assert "questionable clause at chronological index 1" \
            in capsys.readouterr().out

    def test_open_trace_is_a_verdict(self, tmp_path, capsys):
        assert main(["verify", *self._files(tmp_path, "2 0\n")]) \
            == EXIT_PROOF_BAD
        assert "c the trace never derives the empty clause" \
            in capsys.readouterr().out

    def test_unknown_deletion_exits_65(self, tmp_path, capsys):
        files = self._files(tmp_path, "d 5 7 0\n" + ATTACH_TRACE)
        assert main(["verify", *files]) == EXIT_PARSE_ERROR
        assert "c error: line 1: deletion of unknown" \
            in capsys.readouterr().err

    def test_rebuild_is_a_usage_error(self, tmp_path, capsys):
        files = self._files(tmp_path, ATTACH_TRACE)
        assert main(["verify", *files, "--mode", "rebuild"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "c error: mode rebuild" in err


# -- verdicts on the solver traces and their mutants -------------------------

CORPUS = ("php6", "barrel5", "pipe_3", "w6_10", "fifo8_6")


@pytest.fixture(scope="module")
def solved():
    """name -> (formula, conflict clause proof, DRUP trace), each from
    one solve with the CLI's default options, plus the deletion chain
    (which has no conflict clause proof)."""
    out = {}
    for name in CORPUS:
        formula = build_instance(name)
        log = solve(formula, SolverOptions(learning="adaptive")).log
        out[name] = (formula, ConflictClauseProof.from_log(log),
                     DrupProof.from_log(log))
    chain_formula, chain_trace = deletion_chain(400, window=4)
    out["chain"] = (chain_formula, None, chain_trace)
    return out


def _backward(formula, trace):
    """(v1 accepts, v2 accepts, v1 failed index, v2 marked indices)."""
    try:
        proof = trace.to_proof(formula)
    except ProofFormatError:
        return False, False, None, ()
    v1 = verify_proof_v1(formula, proof)
    v2 = verify_proof_v2(formula, proof)
    return v1.ok, v2.ok, v1.failed_clause_index, v2.marked_proof_indices


class TestVerdictParity:
    """Backward verification1 accepts exactly the traces whose every
    addition is RUP over the clauses live when it was added (the
    forward checker's verdicts, recorded for this corpus when both
    existed); verification2 accepts more only where the bad addition
    is unmarked."""

    def test_solver_traces_and_chain(self, solved):
        for name, (formula, _, trace) in solved.items():
            assert _backward(formula, trace)[:2] == (True, True), name

    def test_drup_beats_ccp_on_pipe3(self, solved):
        formula, ccp, trace = solved["pipe_3"]
        visits = [verify_proof_v2(formula, proof).bcp_counters[
            "watch_visits"] for proof in (ccp, trace.to_proof(formula))]
        assert visits[1] < visits[0]

    def test_mutants(self, solved):
        v2_only = []
        judged = accepted = 0
        for name in ("php6", "barrel5"):
            formula, proof, trace = solved[name]
            mutants = {m.events: m for seed in range(6)
                       for m in ProofMutator(formula, proof, drup=trace,
                                             seed=seed).mutations()
                       if m.kind == KIND_DRUP}
            for mutation in mutants.values():
                mutant = DrupProof(list(mutation.events))
                v1, v2, failed, marked = _backward(formula, mutant)
                if mutation.expectation != EXPECT_ANY:
                    assert v1 == (mutation.expectation == EXPECT_ACCEPT), \
                        mutation.description
                accepted += v1
                if v2 and not v1:
                    assert failed not in marked
                    v2_only.append((name, mutation.description, failed))
                judged += 1
        assert (judged, accepted) == (21, 14)
        assert v2_only == [
            ("php6", "inject fresh-variable addition (43) before the "
             "trace", 0),
            ("barrel5", "inject fresh-variable addition (236) before the "
             "trace", 0)]


def test_format_roundtrip_keeps_the_schedule():
    proof = parse_proof(ATTACH_TRACE, CHAIN_F)
    again = parse_proof(format_drup(DrupProof([
        DrupEvent(ADD, (2,)), DrupEvent(DELETE, (1,)),
        DrupEvent(DELETE, (-1, 2)), DrupEvent(ADD, ())])), CHAIN_F)
    assert again == proof
