"""DRUP traces: the deletion-aware successor of conflict clause proofs.

The paper's format records only additions, so the verifier's clause set
grows monotonically.  A decade later DRUP (Heule/Hunt/Wetzler) added
**deletion lines**: when the solver drops a learned clause, the trace
says so, and a *forward* checker can drop it too — keeping the checker's
working set the same size as the solver's.  Since our solver already
deletes clauses (as BerkMin did), emitting DRUP is a natural extension:

    <lits> 0       — addition (checked by RUP, as in the paper)
    d <lits> 0     — deletion

This module defines the event-stream proof object and its text format;
the forward checker lives in :mod:`repro.verify.streaming`.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from os import PathLike

from repro.core.exceptions import ProofFormatError
from repro.proofs.log import ProofLog

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

    Shared by the whole-text :func:`parse_drup` and the chunked
    :class:`repro.proofs.stream.DrupStreamReader`, so both surfaces
    raise byte-identical :class:`ProofFormatError` diagnostics.
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


def parse_drup(text: str) -> DrupProof:
    """Parse DRUP text into an event stream."""
    events: list[DrupEvent] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        event = parse_drup_line(raw_line, line_number)
        if event is not None:
            events.append(event)
    return DrupProof(events)


def write_drup(proof: DrupProof, path: str | PathLike,
               comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_drup(proof, comment=comment))


def read_drup(path: str | PathLike) -> DrupProof:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_drup(handle.read())
