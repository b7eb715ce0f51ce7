"""Fuzz tests: parsers must reject garbage with typed errors, never
crash with anything else, and never accept-then-misbehave."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dimacs import parse_dimacs
from repro.core.exceptions import (
    DimacsParseError,
    ProofFormatError,
    ReproError,
)
from repro.proofs.conflict_clause import (
    ENDING_EMPTY,
    ENDING_FINAL_PAIR,
    ConflictClauseProof,
)
from repro.proofs.drup import (
    ADD,
    DELETE,
    DrupEvent,
    DrupProof,
    format_drup,
    parse_drup,
)
from repro.proofs.trace_format import format_proof, parse_proof

# Text made of the tokens these formats actually use, plus junk.
_dimacs_alphabet = st.sampled_from(
    ["p", "cnf", "c", "%", "0", "1", "-1", "2", "-2", "3", "x", "\n",
     " ", "-", "p cnf 2 1", "1 -2 0"])
_dimacs_text = st.lists(_dimacs_alphabet, max_size=30).map(" ".join)

_proof_alphabet = st.sampled_from(
    ["p", "ccproof", "final_pair", "empty", "c", "0", "1", "-1", "7",
     "-7", "\n", " ", "p ccproof empty", "p ccproof final_pair",
     "1 0", "-1 0", "0"])
_proof_text = st.lists(_proof_alphabet, max_size=30).map(" ".join)

class TestDimacsFuzz:
    @settings(max_examples=150, deadline=None)
    @given(_dimacs_text)
    @example("p cnf 1 1\n1 0")
    @example("1 0 0 0")
    def test_parse_or_typed_error(self, text):
        try:
            formula = parse_dimacs(text)
        except DimacsParseError:
            return
        # Accepted input must produce a well-formed formula.
        assert formula.num_vars >= 0
        for clause in formula:
            assert all(lit != 0 for lit in clause)

    @settings(max_examples=100, deadline=None)
    @given(_dimacs_text)
    def test_strict_mode_or_typed_error(self, text):
        try:
            parse_dimacs(text, strict=True)
        except DimacsParseError:
            pass


class TestProofFuzz:
    @settings(max_examples=150, deadline=None)
    @given(_proof_text)
    @example("p ccproof final_pair\n1 0\n-1 0")
    def test_parse_or_typed_error(self, text):
        try:
            proof = parse_proof(text)
        except ProofFormatError:
            return
        proof.validate_structure()  # accepted proofs are well-formed

    def test_binary_garbage(self):
        with pytest.raises(ProofFormatError):
            parse_proof("\x00\x01\x02")


_literals = st.integers(min_value=-9, max_value=9).filter(
    lambda lit: lit != 0)
_clauses = st.lists(_literals, max_size=5).map(tuple)


@st.composite
def _final_pair_proofs(draw):
    body = draw(st.lists(_clauses, max_size=6))
    pivot = draw(_literals)
    return ConflictClauseProof(body + [(pivot,), (-pivot,)],
                               ENDING_FINAL_PAIR)


@st.composite
def _empty_ended_proofs(draw):
    body = draw(st.lists(_clauses, max_size=6))
    return ConflictClauseProof(body + [()], ENDING_EMPTY)


@st.composite
def _drup_traces(draw):
    events = [DrupEvent(draw(st.sampled_from([ADD, DELETE])),
                        draw(_clauses))
              for _ in range(draw(st.integers(0, 8)))]
    events.append(DrupEvent(ADD, ()))
    return DrupProof(events)


class TestRoundTrip:
    """format → parse is the identity on well-formed proofs: what the
    solver writes is exactly what an independent checker reads."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(_final_pair_proofs(), _empty_ended_proofs()))
    def test_cc_proof_round_trip(self, proof):
        assert parse_proof(format_proof(proof)) == proof

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(_final_pair_proofs(), _empty_ended_proofs()),
           st.text(alphabet=st.characters(
               blacklist_categories=["Cs", "Cc"]), max_size=40))
    def test_cc_proof_round_trip_with_comment(self, proof, comment):
        assert parse_proof(format_proof(proof, comment=comment)) == proof

    @settings(max_examples=100, deadline=None)
    @given(_drup_traces())
    def test_drup_round_trip(self, trace):
        assert parse_drup(format_drup(trace)) == trace


class TestByteLevelFuzz:
    """Raw bytes thrown at every parser raise only typed ReproError
    subclasses — the contract the CLI's error handler relies on."""

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=200))
    @example(b"p ccproof final_pair\n1 0\n-1")
    @example(b"\xff\xfe p cnf 1")
    @example(b"d 1 2 0\nd")
    def test_parsers_raise_only_typed_errors(self, data):
        text = data.decode("latin-1")
        for parser in (parse_dimacs, parse_proof, parse_drup):
            try:
                parser(text)
            except ReproError:
                pass
