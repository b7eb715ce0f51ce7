"""Bounded variable elimination by resolution (NiVER-style).

NiVER (Subbarayan & Pradhan, 2004 — one year after this paper)
eliminates a variable ``v`` by replacing the clauses containing it with
all non-tautological resolvents on ``v``, whenever that does not grow
the formula.  Both directions of the proof story work out:

* every resolvent is RUP with respect to the clauses it was resolved
  from (falsifying it makes both parents unit on the pivot — conflict),
  so resolvents join the lifted proof's preamble;
* the *removed* clauses only ever shrink the formula, and RUP checks
  are monotone under adding clauses back, so a proof of the simplified
  formula remains one of the original.

Model lifting runs the eliminations backwards: for each eliminated
variable, some polarity satisfies all of its removed clauses (otherwise
an unsatisfied resolvent would exist), and we pick it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.clause import Clause
from repro.core.exceptions import ResolutionError


@dataclass(frozen=True)
class EliminationStep:
    """One eliminated variable with its removed clauses and resolvents."""

    variable: int
    positive_clauses: tuple[Clause, ...]
    negative_clauses: tuple[Clause, ...]
    resolvents: tuple[Clause, ...]


def eliminate_variables(clauses: list[Clause], protected: set[int],
                        max_occurrences: int = 10,
                        ) -> tuple[list[Clause], list[EliminationStep]]:
    """Eliminate variables whose resolvent set is no larger than the
    clauses it replaces.

    ``protected`` variables are never eliminated (e.g. those fixed by
    derived units).  ``max_occurrences`` bounds the per-polarity
    occurrence count considered, NiVER-style.  Returns the new clause
    list and the elimination steps in order.
    """
    working = list(clauses)
    steps: list[EliminationStep] = []
    changed = True
    while changed:
        changed = False
        occurrences: dict[int, list[int]] = {}
        for position, clause in enumerate(working):
            if clause is None:
                continue
            for lit in clause:
                occurrences.setdefault(lit, []).append(position)
        variables = sorted(
            {abs(lit) for lit in occurrences} - protected,
            key=lambda v: (len(occurrences.get(v, []))
                           * max(1, len(occurrences.get(-v, [])))))
        for var in variables:
            positive = [working[i] for i in occurrences.get(var, [])
                        if working[i] is not None]
            negative = [working[i] for i in occurrences.get(-var, [])
                        if working[i] is not None]
            if not positive and not negative:
                continue
            if (len(positive) > max_occurrences
                    or len(negative) > max_occurrences):
                continue
            resolvents = []
            tautology_free = True
            for pos_clause in positive:
                for neg_clause in negative:
                    try:
                        resolvent = pos_clause.resolve(neg_clause,
                                                       pivot=var)
                    except ResolutionError:
                        # Extra clashes: the resolvent is a tautology.
                        continue
                    if resolvent.is_tautology():
                        continue
                    resolvents.append(resolvent)
            del tautology_free
            if len(resolvents) > len(positive) + len(negative):
                continue
            # Commit the elimination.
            steps.append(EliminationStep(
                var, tuple(positive), tuple(negative),
                tuple(resolvents)))
            removed_positions = set(occurrences.get(var, [])) \
                | set(occurrences.get(-var, []))
            for position in removed_positions:
                working[position] = None
            working.extend(resolvents)
            changed = True
            break  # occurrence lists are stale; rebuild
    return [clause for clause in working if clause is not None], steps


def extend_model(steps: list[EliminationStep],
                 model: dict[int, bool]) -> dict[int, bool]:
    """Assign the eliminated variables (reverse elimination order)."""
    lifted = dict(model)

    def rest_satisfied(clause: Clause, variable: int) -> bool:
        for lit in clause:
            if abs(lit) == variable:
                continue
            value = lifted.get(abs(lit))
            if value is None:
                continue
            if value == (lit > 0):
                return True
        return False

    for step in reversed(steps):
        needs_true = any(not rest_satisfied(clause, step.variable)
                         for clause in step.positive_clauses)
        needs_false = any(not rest_satisfied(clause, step.variable)
                          for clause in step.negative_clauses)
        if needs_true and needs_false:
            raise AssertionError(
                f"variable {step.variable}: both polarities forced — "
                "elimination invariant violated")
        lifted[step.variable] = needs_true
    return lifted
