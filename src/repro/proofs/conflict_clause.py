"""Conflict clause proofs — the paper's proof representation.

A proof of unsatisfiability of ``F`` is the chronologically ordered
sequence ``F*`` of conflict clauses the solver deduced, terminated either
by the **final conflicting pair** of unit clauses ``(l), (¬l)``
(Section 2: "the pair of unit clauses ~x and x is called the final
conflicting pair") or — for degenerate refutations such as an empty input
clause, and for DRUP traces — by the empty clause itself.  A DRUP trace
that never derives the empty clause reads into a proof with ending
``none``, which no verifier accepts.

A proof read from a DRUP trace also carries its **deletion schedule**:
``(at, target)`` pairs saying that a clause left the live set once
``at`` proof clauses had been added.  ``target`` is a proof clause
index ``j``, or ``~k`` for clause ``k`` of the formula (see
:meth:`repro.proofs.drup.DrupProof.to_proof`).

The proof carries *no* derivation information: each clause is certified
afresh by the verifier's BCP check, which is exactly what makes the
representation compact (Section 5: size ``O(n · |F*|)``).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

from repro.core.clause import Clause
from repro.core.exceptions import ProofFormatError

if TYPE_CHECKING:
    from repro.proofs.log import ProofLog

ENDING_FINAL_PAIR = "final_pair"
ENDING_EMPTY = "empty"
ENDING_NONE = "none"
ENDINGS = (ENDING_FINAL_PAIR, ENDING_EMPTY, ENDING_NONE)


class ConflictClauseProof:
    """An ordered set of deduced clauses, the paper's ``F*``."""

    def __init__(self, clauses: Sequence[Sequence[int]],
                 ending: str = ENDING_FINAL_PAIR,
                 deletions: Sequence[tuple[int, int]] = ()):
        if ending not in ENDINGS:
            raise ProofFormatError(f"unknown proof ending {ending!r}")
        self._clauses: list[tuple[int, ...]] = [
            tuple(clause) for clause in clauses]
        self.ending = ending
        self.deletions: tuple[tuple[int, int], ...] = tuple(deletions)
        self.validate_structure()

    @classmethod
    def from_log(cls, log: ProofLog) -> "ConflictClauseProof":
        """Extract the conflict clause proof from a solver's proof log.

        The log ends with an empty-clause step.  When the preceding step
        is a unit clause ``(l)`` — which the solver's final level-0
        analysis guarantees whenever the refutation is non-degenerate —
        the empty step is exported as the unit ``(¬l)`` so the proof ends
        with the paper's final conflicting pair.
        """
        if not log.is_complete():
            raise ProofFormatError(
                "cannot export a proof from an incomplete log")
        clauses = [step.literals for step in log.steps]
        if (len(clauses) >= 2 and len(clauses[-2]) == 1
                and not clauses[-1]):
            clauses[-1] = (-clauses[-2][0],)
            return cls(clauses, ENDING_FINAL_PAIR)
        return cls(clauses, ENDING_EMPTY)

    def validate_structure(self) -> None:
        """Check the proof's shape (not its logical correctness)."""
        for clause in self._clauses:
            if any(lit == 0 for lit in clause):
                # 0 is the clause terminator in every trace format; as a
                # literal it would silently map to the reserved variable
                # 0 inside the BCP engines.
                raise ProofFormatError(
                    f"literal 0 inside proof clause {clause}")
        if self.ending == ENDING_FINAL_PAIR:
            if len(self._clauses) < 2:
                raise ProofFormatError(
                    "a final-pair proof needs at least two clauses")
            last = self._clauses[-1]
            second_last = self._clauses[-2]
            if not (len(last) == 1 and len(second_last) == 1
                    and last[0] == -second_last[0]):
                raise ProofFormatError(
                    "proof does not end with a conflicting pair of unit "
                    f"clauses (got {second_last} and {last})")
        elif self.ending == ENDING_EMPTY:
            if not self._clauses or self._clauses[-1]:
                raise ProofFormatError(
                    "an empty-ended proof must end with the empty clause")

    @property
    def clauses(self) -> list[tuple[int, ...]]:
        """Deduced clauses in chronological order (first deduced first)."""
        return self._clauses

    def final_pair(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """The final conflicting pair, or None for empty-ended proofs."""
        if self.ending != ENDING_FINAL_PAIR:
            return None
        return self._clauses[-2], self._clauses[-1]

    def as_clause_objects(self) -> list[Clause]:
        return [Clause(lits) for lits in self._clauses]

    def literal_count(self) -> int:
        """Total number of literals — the proof size unit of Table 2."""
        return sum(len(clause) for clause in self._clauses)

    def max_var(self) -> int:
        return max((abs(lit) for clause in self._clauses for lit in clause),
                   default=0)

    def __len__(self) -> int:
        return len(self._clauses)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._clauses)

    def __getitem__(self, index: int) -> tuple[int, ...]:
        return self._clauses[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConflictClauseProof):
            return NotImplemented
        return (self.ending == other.ending
                and self._clauses == other._clauses
                and self.deletions == other.deletions)

    def __repr__(self) -> str:
        return (f"ConflictClauseProof(num_clauses={len(self._clauses)}, "
                f"literals={self.literal_count()}, ending={self.ending!r}, "
                f"deletions={len(self.deletions)})")
