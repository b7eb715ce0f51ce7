"""Immutable clauses over DIMACS literals.

A :class:`Clause` is the external representation of a disjunction of
literals, used by formulas, proofs and verifiers.  The CDCL solver keeps its
own flat integer arrays internally and converts at the boundary.

Clauses are *normalized*: duplicate literals are removed and literals are
sorted by variable index (positive before negative within a variable).  Two
clauses with the same literal set therefore compare equal and hash equally,
which the verifier's marking machinery and the tests rely on.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from repro.core.exceptions import ResolutionError
from repro.core.literals import check_dimacs_literal


def _sort_key(lit: int) -> tuple[int, int]:
    return (abs(lit), 0 if lit > 0 else 1)


class Clause:
    """An immutable, normalized disjunction of DIMACS literals.

    >>> Clause([3, -1, 3])
    Clause(-1, 3)
    >>> Clause([1, -1]).is_tautology()
    True
    """

    __slots__ = ("_lits",)

    def __init__(self, literals: Iterable[int] = ()):
        seen = set()
        for lit in literals:
            check_dimacs_literal(lit)
            seen.add(lit)
        self._lits: tuple[int, ...] = tuple(sorted(seen, key=_sort_key))

    @property
    def literals(self) -> tuple[int, ...]:
        """The normalized literal tuple."""
        return self._lits

    def variables(self) -> frozenset[int]:
        """The set of variable indices occurring in this clause."""
        return frozenset(abs(lit) for lit in self._lits)

    def is_empty(self) -> bool:
        """True for the empty clause (the refutation target)."""
        return not self._lits

    def is_unit(self) -> bool:
        """True if the clause has exactly one literal."""
        return len(self._lits) == 1

    def is_tautology(self) -> bool:
        """True if the clause contains both polarities of some variable."""
        variables = set()
        for lit in self._lits:
            if -lit in variables:
                return True
            variables.add(lit)
        return False

    def contains(self, lit: int) -> bool:
        """True if the literal occurs in the clause."""
        return lit in set(self._lits)

    def falsifying_assignment(self) -> dict[int, bool]:
        """The assignment ``R`` that sets every literal of the clause to 0.

        Per the paper (Section 2), the clause *encodes* this assignment:
        clause ``C(R)`` is falsified by ``R``.  Returned as a mapping from
        variable to boolean value.
        """
        return {abs(lit): lit < 0 for lit in self._lits}

    def evaluate(self, assignment: Mapping[int, bool]) -> bool | None:
        """Three-valued evaluation under a (possibly partial) assignment.

        Returns True if some literal is satisfied, False if every literal is
        assigned and falsified, and None otherwise (undetermined).
        """
        undetermined = False
        for lit in self._lits:
            var = abs(lit)
            if var not in assignment:
                undetermined = True
                continue
            if assignment[var] == (lit > 0):
                return True
        return None if undetermined else False

    def resolve(self, other: "Clause", pivot: int | None = None) -> "Clause":
        """Resolve with another clause, returning the resolvent.

        Per the paper (Section 1), the parents must have opposite literals of
        *exactly one* variable; otherwise :class:`ResolutionError` is raised.
        ``pivot`` (a variable index) may be given to assert which variable is
        expected to clash.
        """
        mine = set(self._lits)
        theirs = set(other._lits)
        clashing = {abs(lit) for lit in mine if -lit in theirs}
        if len(clashing) != 1:
            raise ResolutionError(
                f"clauses {self} and {other} clash in {len(clashing)} "
                "variables; resolution requires exactly one"
            )
        (clash_var,) = clashing
        if pivot is not None and pivot != clash_var:
            raise ResolutionError(
                f"expected pivot {pivot} but clauses clash in {clash_var}"
            )
        # Resolve on a literal, not a variable: remove l from the side
        # containing it and ¬l from the other side only.  (For a
        # tautological parent containing both polarities, the leftover
        # literal stays — anything stronger would be unsound.)
        lit = clash_var if (clash_var in mine
                            and -clash_var in theirs) else -clash_var
        resolvent = (mine - {lit}) | (theirs - {-lit})
        return Clause(resolvent)

    def __iter__(self) -> Iterator[int]:
        return iter(self._lits)

    def __len__(self) -> int:
        return len(self._lits)

    def __contains__(self, lit: int) -> bool:
        return lit in self._lits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Clause):
            return NotImplemented
        return self._lits == other._lits

    def __hash__(self) -> int:
        return hash(self._lits)

    def __repr__(self) -> str:
        return f"Clause({', '.join(map(str, self._lits))})"


EMPTY_CLAUSE = Clause()
