"""Deletion-heavy DRUP traces: the implication-chain family.

The benchmark registry's instances exercise RUP *checking*; these
traces exercise *deletions* — proofs whose total clause volume dwarfs
the live window at every point.  The implication chain is the minimal
such family:

    formula:  (x1), (¬x_i ∨ x_{i+1}) for i < n, (¬x_n)

The refutation derives the unit ``(x_{i+1})`` from ``(x_i)`` and the
``i``-th implication, then deletes the implication and the unit that
fell out of the window — so with window ``w`` the live proof-added set
never exceeds ``w + 1`` clauses while the trace carries ``n``
additions and ``~2n`` deletions, of units and of clauses of the
formula alike.  Every prefix of the trace is unit-refutable, which
makes it the worst case for a backward checker: each check meets a
root conflict through the rest of the chain.

:func:`write_deletion_chain_drup` streams the trace to disk line by
line, so a large instance is never materialized.
"""

from __future__ import annotations

from os import PathLike

from repro.core.formula import CnfFormula
from repro.proofs.drup import ADD, DELETE, DrupEvent, DrupProof


def _require(n_vars: int, window: int) -> None:
    if n_vars < 2:
        raise ValueError(f"need n_vars >= 2, got {n_vars}")
    if window < 1:
        raise ValueError(f"need window >= 1, got {window}")


def deletion_chain_formula(n_vars: int) -> CnfFormula:
    """The unit-implication-chain UNSAT formula over ``n_vars``."""
    _require(n_vars, 1)
    formula = CnfFormula(num_vars=n_vars)
    formula.add_clause([1])
    for i in range(1, n_vars):
        formula.add_clause([-i, i + 1])
    formula.add_clause([-n_vars])
    return formula


def iter_deletion_chain_events(n_vars: int, window: int = 1):
    """Yield the chain refutation's DRUP events, one at a time.

    After deriving ``(x_{i+1})`` the consumed implication clause is
    deleted immediately and the unit ``window`` steps behind is
    deleted one step later — the live proof-added set is at most
    ``window + 1`` clauses at any instant.
    """
    _require(n_vars, window)
    for i in range(1, n_vars):
        yield DrupEvent(ADD, (i + 1,))
        yield DrupEvent(DELETE, (-i, i + 1))
        trailing = i + 1 - window
        if trailing >= 1:
            yield DrupEvent(DELETE, (trailing,))
    yield DrupEvent(ADD, ())


def deletion_chain(n_vars: int, window: int = 1,
                   ) -> tuple[CnfFormula, DrupProof]:
    """Materialized formula + trace (small instances, tests)."""
    return (deletion_chain_formula(n_vars),
            DrupProof(list(iter_deletion_chain_events(n_vars, window))))


def write_deletion_chain_drup(path: str | PathLike, n_vars: int,
                              window: int = 1) -> dict:
    """Stream the chain trace to ``path`` without materializing it.

    Returns summary counts (``additions``, ``deletions``,
    ``peak_live_additions``) for benchmark records and assertions.
    """
    _require(n_vars, window)
    additions = 0
    deletions = 0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"c deletion chain n={n_vars} window={window}\n")
        for event in iter_deletion_chain_events(n_vars, window):
            body = " ".join(map(str, event.literals))
            prefix = "d " if event.kind == DELETE else ""
            handle.write(f"{prefix}{body} 0\n" if event.literals
                         else f"{prefix}0\n")
            if event.kind == ADD:
                additions += 1
            else:
                deletions += 1
    return {"additions": additions, "deletions": deletions,
            "peak_live_additions": min(window + 1, n_vars - 1)}
