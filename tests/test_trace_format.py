"""Unit and property tests for the proof trace file format."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.exceptions import ProofFormatError
from repro.proofs.conflict_clause import (
    ENDING_EMPTY,
    ENDING_FINAL_PAIR,
    ENDING_NONE,
    ConflictClauseProof,
)
from repro.proofs.trace_format import (
    format_proof,
    parse_proof,
    read_proof,
    write_proof,
)


def sample_proof():
    return ConflictClauseProof([(1, 2), (-2, 3), (-1,), (1,)],
                               ENDING_FINAL_PAIR)


class TestFormat:
    def test_header(self):
        text = format_proof(sample_proof())
        assert text.startswith("p ccproof final_pair\n")

    def test_zero_terminated_lines(self):
        for line in format_proof(sample_proof()).splitlines()[1:]:
            assert line.endswith("0")

    def test_comment_lines(self):
        text = format_proof(sample_proof(), comment="one\ntwo")
        assert "c one\n" in text and "c two\n" in text

    def test_empty_clause_line(self):
        proof = ConflictClauseProof([(1,), ()], ENDING_EMPTY)
        assert "\n0\n" in format_proof(proof)


class TestParse:
    def test_roundtrip_simple(self):
        proof = sample_proof()
        assert parse_proof(format_proof(proof)) == proof

    def test_missing_header(self):
        # Text without the header is a DRUP trace; this one never
        # derives the empty clause, so no verifier accepts it.
        proof = parse_proof("1 0\n")
        assert proof.clauses == [(1,)] and proof.ending == ENDING_NONE

    def test_duplicate_header(self):
        with pytest.raises(ProofFormatError, match="duplicate"):
            parse_proof("p ccproof empty\np ccproof empty\n0\n")

    def test_bad_ending_name(self):
        with pytest.raises(ProofFormatError):
            parse_proof("p ccproof sometimes\n0\n")

    def test_bad_token(self):
        with pytest.raises(ProofFormatError, match="unexpected token"):
            parse_proof("p ccproof empty\n1 q 0\n0\n")

    def test_unterminated_clause(self):
        with pytest.raises(ProofFormatError, match="terminating"):
            parse_proof("p ccproof empty\n0\n1 2\n")

    def test_structure_still_validated(self):
        with pytest.raises(ProofFormatError):
            parse_proof("p ccproof final_pair\n1 2 0\n")

    @given(st.lists(
        st.lists(st.integers(min_value=-20, max_value=20).filter(bool),
                 min_size=1, max_size=5),
        min_size=0, max_size=10))
    def test_roundtrip_property(self, body):
        clauses = [tuple(c) for c in body] + [(7,), (-7,)]
        proof = ConflictClauseProof(clauses, ENDING_FINAL_PAIR)
        assert parse_proof(format_proof(proof)) == proof


class TestFileIo:
    def test_write_read(self, tmp_path):
        proof = sample_proof()
        path = tmp_path / "proof.ccp"
        write_proof(proof, path, comment="solver X")
        assert read_proof(path) == proof
