"""On-disk format for conflict clause proofs.

The paper's workflow (Section 1) writes each conflict clause to disk as
soon as it is recorded, so the format is line-oriented and appendable: a
header naming the ending convention, then one zero-terminated clause per
line, in chronological order — essentially the RUP trace format that
descended from this paper.

Example::

    p ccproof final_pair
    c deduced by solver X on formula Y
    -1 3 4 0
    -1 0
    1 0

A file without the ``p ccproof`` header is read as a DRUP trace
(:mod:`repro.proofs.drup`): ``d`` lines delete clauses, and the proof
gets a deletion schedule resolved against the formula.
"""

from __future__ import annotations

import io
from os import PathLike
from typing import TYPE_CHECKING

from repro.core.exceptions import ProofFormatError
from repro.proofs.conflict_clause import (
    ENDING_EMPTY,
    ENDING_FINAL_PAIR,
    ConflictClauseProof,
)

if TYPE_CHECKING:
    from repro.core.formula import CnfFormula

_HEADER_PREFIX = "p ccproof"


def format_proof(proof: ConflictClauseProof,
                 comment: str | None = None) -> str:
    """Render a conflict clause proof as trace text."""
    out = io.StringIO()
    out.write(f"{_HEADER_PREFIX} {proof.ending}\n")
    if comment:
        for line in comment.splitlines():
            out.write(f"c {line}\n")
    for clause in proof:
        if clause:
            out.write(" ".join(map(str, clause)))
            out.write(" 0\n")
        else:
            out.write("0\n")
    return out.getvalue()


def _is_drup(text: str) -> bool:
    """Does the first line that is not blank or a comment lack the
    ``p`` header?"""
    for raw_line in io.StringIO(text):
        line = raw_line.strip()
        if line and not line.startswith("c"):
            return not line.startswith("p")
    return True


def parse_proof(text: str,
                formula: CnfFormula | None = None) -> ConflictClauseProof:
    """Parse trace text back into a :class:`ConflictClauseProof`.

    Text without a ``p ccproof`` header is a DRUP trace: its deletions
    are resolved against ``formula`` and the proof's own clauses (see
    :func:`repro.proofs.drup.resolve_events`), so a deletion of a
    formula clause needs ``formula``.
    """
    if _is_drup(text):
        from repro.proofs.drup import numbered_events, resolve_events

        return resolve_events(numbered_events(text), formula)
    ending: str | None = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if ending is not None:
                raise ProofFormatError(
                    f"line {line_number}: duplicate proof header")
            fields = line.split()
            if (len(fields) != 3 or " ".join(fields[:2]) != _HEADER_PREFIX
                    or fields[2] not in (ENDING_FINAL_PAIR, ENDING_EMPTY)):
                raise ProofFormatError(
                    f"line {line_number}: malformed header {line!r}")
            ending = fields[2]
            continue
        for token in line.split():
            try:
                lit = int(token)
            except ValueError as exc:
                raise ProofFormatError(
                    f"line {line_number}: unexpected token {token!r}"
                ) from exc
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    if pending:
        raise ProofFormatError("last clause is missing its terminating 0")
    if ending is None:
        raise ProofFormatError("missing 'p ccproof' header")
    return ConflictClauseProof(clauses, ending)


def write_proof(proof: ConflictClauseProof, path: str | PathLike,
                comment: str | None = None) -> None:
    """Write a conflict clause proof to a trace file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_proof(proof, comment=comment))


def read_proof(path: str | PathLike,
               formula: CnfFormula | None = None) -> ConflictClauseProof:
    """Read a conflict clause proof or a DRUP trace from a file (see
    :func:`parse_proof`).  Bytes that are not UTF-8 raise
    :class:`ProofFormatError` naming their line."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ProofFormatError(
            f"line {line}: bytes that are not UTF-8 text") from exc
    return parse_proof(text, formula)
