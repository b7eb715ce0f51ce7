"""DRUP traces: the deletion-aware successor of conflict clause proofs.

The paper's format records only additions, so the verifier's clause set
grows monotonically.  A decade later DRUP (Heule/Hunt/Wetzler) added
**deletion lines**: when the solver drops a learned clause, the trace
says so, and a *forward* checker can drop it too — keeping the checker's
working set the same size as the solver's.  Since our solver already
deletes clauses (as BerkMin did), emitting DRUP is a natural extension:

    <lits> 0       — addition (checked by RUP, as in the paper)
    d <lits> 0     — deletion

This module defines the event-stream proof object and its text format.
The checkers read a trace as a :class:`ConflictClauseProof` with a
deletion schedule (:meth:`DrupProof.to_proof`, or
:func:`repro.proofs.trace_format.read_proof` on a file) and check it
backward, honouring the deletions.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from os import PathLike
from typing import TYPE_CHECKING

from repro.core.exceptions import ProofFormatError
from repro.proofs.conflict_clause import (
    ENDING_EMPTY,
    ENDING_NONE,
    ConflictClauseProof,
)
from repro.proofs.log import ProofLog

if TYPE_CHECKING:
    from repro.core.formula import CnfFormula

ADD = "add"
DELETE = "delete"


@dataclass(frozen=True)
class DrupEvent:
    """One trace line: an addition or a deletion of a clause."""

    kind: str
    literals: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in (ADD, DELETE):
            raise ProofFormatError(f"unknown event kind {self.kind!r}")
        if any(lit == 0 for lit in self.literals):
            # 0 terminates trace lines; as a literal it would alias the
            # engines' reserved variable 0.
            raise ProofFormatError(
                f"literal 0 inside {self.kind} event {self.literals}")


@dataclass
class DrupProof:
    """An ordered stream of addition/deletion events."""

    events: list[DrupEvent] = field(default_factory=list)

    @classmethod
    def from_log(cls, log: ProofLog) -> "DrupProof":
        """Interleave the log's additions with its deletion events.

        ``log.deletion_events`` holds ``(after_step, literals)`` pairs:
        the clause was deleted once ``after_step`` additions had been
        logged.
        """
        if not log.is_complete():
            raise ProofFormatError(
                "cannot export a DRUP trace from an incomplete log")
        deletions_at: dict[int, list[tuple[int, ...]]] = {}
        for after_step, literals in log.deletion_events:
            deletions_at.setdefault(after_step, []).append(literals)
        events: list[DrupEvent] = []
        for index, step in enumerate(log.steps):
            for literals in deletions_at.get(index, ()):
                events.append(DrupEvent(DELETE, literals))
            events.append(DrupEvent(ADD, step.literals))
        return cls(events)

    @property
    def num_additions(self) -> int:
        return sum(1 for e in self.events if e.kind == ADD)

    @property
    def num_deletions(self) -> int:
        return sum(1 for e in self.events if e.kind == DELETE)

    def validate_structure(self) -> None:
        adds = [e for e in self.events if e.kind == ADD]
        if not adds or adds[-1].literals != ():
            raise ProofFormatError(
                "a DRUP trace must end with the empty-clause addition")

    def to_proof(self, formula: CnfFormula | None = None,
                 ) -> ConflictClauseProof:
        """The trace as a proof with a deletion schedule (see
        :func:`resolve_events`); errors name the event index."""
        return resolve_events(enumerate(self.events), formula,
                              where="event")


def _key(literals) -> tuple[int, ...]:
    return tuple(sorted(set(literals)))


def resolve_events(numbered_events, formula: CnfFormula | None = None,
                   where: str = "line") -> ConflictClauseProof:
    """Read ``(number, event)`` pairs into a proof the backward
    checkers take.

    Additions become the proof's clauses, up to the first empty clause,
    which ends the proof (ending ``empty``); the events after it are not
    read.  A trace without one gets ending ``none``.  Each deletion is
    resolved, as it is read, to the most recently added live clause
    with the same literal set: a proof clause, or a clause of
    ``formula``.  It becomes the pair ``(at, target)`` of
    :attr:`ConflictClauseProof.deletions`, ``at`` being the number of
    proof clauses added before it.  A deletion that names no live
    clause raises :class:`ProofFormatError` naming ``where`` and the
    pair's number.
    """
    live: dict[tuple[int, ...], list[int]] = {}
    if formula is not None:
        for k, clause in enumerate(formula):
            live.setdefault(_key(clause.literals), []).append(~k)
    clauses: list[tuple[int, ...]] = []
    deletions: list[tuple[int, int]] = []
    for number, event in numbered_events:
        if event.kind == ADD:
            if not event.literals:
                clauses.append(())
                return ConflictClauseProof(clauses, ENDING_EMPTY,
                                           deletions)
            live.setdefault(_key(event.literals), []).append(len(clauses))
            clauses.append(event.literals)
            continue
        targets = live.get(_key(event.literals))
        if not targets:
            raise ProofFormatError(
                f"{where} {number}: deletion of unknown or "
                f"already-deleted clause {list(event.literals)}")
        deletions.append((len(clauses), targets.pop()))
    return ConflictClauseProof(clauses, ENDING_NONE, deletions)


def format_drup(proof: DrupProof, comment: str | None = None) -> str:
    """Render the event stream as DRUP text."""
    out = io.StringIO()
    if comment:
        for line in comment.splitlines():
            out.write(f"c {line}\n")
    for event in proof.events:
        prefix = "d " if event.kind == DELETE else ""
        body = " ".join(map(str, event.literals))
        out.write(f"{prefix}{body} 0\n" if event.literals
                  else f"{prefix}0\n")
    return out.getvalue()


def parse_drup_line(raw_line: str,
                    line_number: int) -> DrupEvent | None:
    """Parse one DRUP text line into an event (None: comment/blank).

    Shared by :func:`parse_drup` and
    :func:`repro.proofs.trace_format.parse_proof`, so both raise
    identical :class:`ProofFormatError` diagnostics.
    """
    line = raw_line.strip()
    if not line or line.startswith("c"):
        return None
    kind = ADD
    if line.startswith("d ") or line == "d":
        kind = DELETE
        line = line[1:].strip()
    tokens = line.split()
    if not tokens or tokens[-1] != "0":
        raise ProofFormatError(
            f"line {line_number}: missing terminating 0")
    try:
        literals = tuple(int(token) for token in tokens[:-1])
    except ValueError as exc:
        raise ProofFormatError(
            f"line {line_number}: bad literal in {raw_line!r}"
        ) from exc
    if any(lit == 0 for lit in literals):
        raise ProofFormatError(
            f"line {line_number}: 0 inside a clause body")
    return DrupEvent(kind, literals)


def numbered_events(text: str):
    """Yield ``(line number, event)`` for each event line of DRUP
    text."""
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        event = parse_drup_line(raw_line, line_number)
        if event is not None:
            yield line_number, event


def parse_drup(text: str) -> DrupProof:
    """Parse DRUP text into an event stream."""
    return DrupProof([event for _, event in numbered_events(text)])


def write_drup(proof: DrupProof, path: str | PathLike,
               comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_drup(proof, comment=comment))


def read_drup(path: str | PathLike) -> DrupProof:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_drup(handle.read())
