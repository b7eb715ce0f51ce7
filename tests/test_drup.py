"""Tests for DRUP traces and their backward checking with deletions."""

import random

import pytest

from repro.benchgen.php import pigeonhole
from repro.core.exceptions import ProofFormatError
from repro.core.formula import CnfFormula
from repro.proofs.drup import (
    ADD,
    DELETE,
    DrupEvent,
    DrupProof,
    format_drup,
    parse_drup,
    read_drup,
    write_drup,
)
from repro.solver.cdcl import solve
from repro.verify.verification import verify_proof_v1, verify_proof_v2

from tests.conftest import random_formula


def check(formula, trace):
    """verification1 on the trace, read with its deletions; also
    asserts that verification2 agrees on a trace verification1
    accepts."""
    report = verify_proof_v1(formula, trace.to_proof(formula))
    if report.ok:
        assert verify_proof_v2(formula, trace.to_proof(formula)).ok
    return report


def drup_of(formula, **solver_kwargs):
    result = solve(formula, **solver_kwargs)
    assert result.is_unsat
    return DrupProof.from_log(result.log)


class TestFormat:
    def test_roundtrip(self):
        proof = DrupProof([
            DrupEvent(ADD, (1, 2)),
            DrupEvent(DELETE, (1, 2)),
            DrupEvent(ADD, ()),
        ])
        assert parse_drup(format_drup(proof, comment="x")) == proof

    def test_delete_prefix(self):
        text = format_drup(DrupProof([DrupEvent(DELETE, (3, -4))]))
        assert text == "d 3 -4 0\n"

    def test_missing_zero_rejected(self):
        with pytest.raises(ProofFormatError):
            parse_drup("1 2\n")

    def test_zero_inside_rejected(self):
        with pytest.raises(ProofFormatError):
            parse_drup("1 0 2 0\n")

    def test_bad_kind_rejected(self):
        with pytest.raises(ProofFormatError):
            DrupEvent("modify", (1,))

    def test_validate_structure(self):
        DrupProof([DrupEvent(ADD, ())]).validate_structure()
        with pytest.raises(ProofFormatError):
            DrupProof([DrupEvent(ADD, (1,))]).validate_structure()

    def test_file_io(self, tmp_path):
        proof = drup_of(CnfFormula([[1], [-1]]))
        path = tmp_path / "p.drup"
        write_drup(proof, path)
        assert read_drup(path) == proof


class TestFromLog:
    def test_deletions_interleaved(self):
        formula = pigeonhole(6)
        result = solve(formula, restart_base=10, reduce_base=30,
                       reduce_growth=10)
        assert result.stats.deleted_clauses > 0
        proof = DrupProof.from_log(result.log)
        assert proof.num_deletions == result.stats.deleted_clauses
        assert proof.num_additions == result.log.num_deduced
        kinds = [event.kind for event in proof.events]
        assert DELETE in kinds
        # The trace still ends with the empty addition.
        proof.validate_structure()

    def test_no_deletions_when_disabled(self):
        formula = pigeonhole(4)
        result = solve(formula, enable_deletion=False)
        proof = DrupProof.from_log(result.log)
        assert proof.num_deletions == 0


class TestForwardChecking:
    """The forward reading of a DRUP trace — each addition must be RUP
    over the clauses live when it was added — as the backward
    procedures check it, through the deletion schedule."""

    def test_accepts_correct_trace(self, tiny_unsat):
        report = check(tiny_unsat, drup_of(tiny_unsat))
        assert report.ok
        assert report.num_checked == report.num_proof_clauses

    def test_accepts_trace_with_deletions(self):
        formula = pigeonhole(6)
        result = solve(formula, restart_base=10, reduce_base=30,
                       reduce_growth=10)
        trace = DrupProof.from_log(result.log)
        proof = trace.to_proof(formula)
        assert len(proof.deletions) == trace.num_deletions > 0
        assert check(formula, trace).ok

    def test_rejects_non_rup_addition(self):
        # (3) is over a variable F leaves free; (-3 1) and the empty
        # clause are RUP once (3) is in.
        formula = CnfFormula([[1, 2], [-1, 2], [1, -2], [-1, -2]],
                             num_vars=3)
        trace = DrupProof([DrupEvent(ADD, (3,)), DrupEvent(ADD, (-3, 1)),
                           DrupEvent(ADD, ())])
        report = check(formula, trace)
        assert not report.ok
        assert report.failed_clause_index == 0
        assert "did not produce a conflict" in report.failure_reason

    def test_rejects_deleting_inactive_clause(self, tiny_unsat):
        trace = DrupProof([DrupEvent(DELETE, (9, 10)),
                           DrupEvent(ADD, ())])
        with pytest.raises(ProofFormatError,
                           match="event 0: deletion of unknown"):
            check(tiny_unsat, trace)

    def test_rejects_missing_empty_clause(self, tiny_unsat):
        trace = DrupProof([DrupEvent(ADD, (1,))])
        report = check(tiny_unsat, trace)
        assert not report.ok
        assert "never derives" in report.failure_reason

    def test_deleting_needed_clause_breaks_proof(self):
        # Delete the derived (1) before using it: the final pair check
        # still passes (BCP re-derives), but deleting an *input* clause
        # the refutation needs must fail.
        formula = CnfFormula([[1, 2], [1, -2], [-1, 2], [-1, -2]])
        trace = DrupProof([
            DrupEvent(DELETE, (1, 2)),
            DrupEvent(DELETE, (1, -2)),
            DrupEvent(ADD, (1,)),   # no longer RUP without those inputs
            DrupEvent(ADD, ()),
        ])
        report = check(formula, trace)
        assert not report.ok
        assert report.failed_clause_index == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_random_traces_check(self, seed):
        rng = random.Random(7000 + seed)
        checked = 0
        for _ in range(20):
            formula = random_formula(rng, 8, 35)
            result = solve(formula, restart_base=10, reduce_base=40,
                           reduce_growth=20)
            if not result.is_unsat:
                continue
            proof = DrupProof.from_log(result.log)
            assert check(formula, proof).ok, formula.clauses
            checked += 1
        assert checked > 2
