"""Conflict analysis: the learning schemes the paper contrasts.

Section 5 of the paper distinguishes **local** conflict clauses (obtained
by few resolutions — the 1UIP scheme of Chaff [13]) from **global** ones
(obtained by resolving down to decision variables — the scheme of
Relsat [1]); BerkMin [9] mixes both, which is what makes its conflict
clause proofs so much smaller than the corresponding resolution graphs.

Each analysis returns, besides the learned clause, its *derivation chain*:
the input-resolution sequence of antecedent clause ids and pivot
variables.  The chain is what the resolution-graph proof is built from,
and its length is the exact number of resolution-graph nodes the learned
clause contributes (the paper's Table 2 could only lower-bound this for
some BerkMin clauses; we record it exactly).

Literals falsified at decision level 0 are fully resolved away using their
reason chains, so the recorded derivation is a complete resolution
derivation of the learned clause (not merely of a superset).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.bcp.engine import PropagatorBase
from repro.core.literals import decode

BumpVar = Callable[[int], None] | None
BumpClause = Callable[[int], None] | None


@dataclass
class Analysis:
    """Result of conflict analysis at a decision level > 0."""

    learnt_enc: list[int]
    """Encoded learned clause; position 0 is the asserting literal and
    position 1 (if any) a literal of the backjump level (watch order)."""

    backjump_level: int
    antecedents: list[int]
    pivots: list[int]
    literals: tuple[int, ...]
    """Learned clause in normalized DIMACS form."""


@dataclass
class FinalAnalysis:
    """Result of the terminal analysis of a decision-level-0 conflict.

    ``unit_step`` (absent only when the conflicting clause is itself the
    empty clause) derives a unit clause ``(l)``; ``empty_antecedents`` and
    ``empty_pivots`` then continue the chain — starting from the unit
    clause — down to the empty clause.  Together they realize the paper's
    final conflicting pair: ``(l)`` and the ``(¬l)`` certified by the
    empty-clause step.
    """

    unit_step: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] | None
    empty_antecedents: tuple[int, ...]
    empty_pivots: tuple[int, ...]


def _normalized(enc_lits: list[int]) -> tuple[int, ...]:
    return tuple(sorted(map(decode, enc_lits), key=abs))


def analyze_1uip(engine: PropagatorBase, confl_cid: int,
                 bump_var: BumpVar = None,
                 bump_clause: BumpClause = None,
                 minimize: bool = False) -> Analysis:
    """First-UIP conflict analysis (Chaff's scheme — "local" clauses).

    With ``minimize=True``, redundant literals (those implied by the
    rest of the clause through reason chains) are removed à la
    Sörensson/Biere — a post-2003 refinement, so it is off by default;
    the extra resolutions it performs are appended to the derivation
    chain, keeping the logged derivation exact.
    """
    clauses = engine.clauses
    levels = engine.levels
    reasons = engine.reasons
    trail = engine.trail
    current_level = engine.decision_level
    if current_level == 0:
        raise ValueError("analyze_1uip requires a conflict above level 0")

    seen: set[int] = set()
    learnt: list[int] = [0]  # slot 0 reserved for the asserting literal
    counter = 0
    index = len(trail)
    antecedents = [confl_cid]
    pivots: list[int] = []
    has_level0 = False

    cid = confl_cid
    p_enc = 0
    while True:
        if bump_clause is not None:
            bump_clause(cid)
        for q in clauses[cid]:
            var = q >> 1
            if var in seen:
                continue
            seen.add(var)
            level = levels[var]
            if level == current_level:
                counter += 1
                if bump_var is not None:
                    bump_var(var)
            elif level > 0:
                learnt.append(q)
                if bump_var is not None:
                    bump_var(var)
            else:
                has_level0 = True
        while True:
            index -= 1
            p_enc = trail[index]
            if p_enc >> 1 in seen:
                break
        counter -= 1
        if counter == 0:
            break  # p_enc is the first UIP
        var = p_enc >> 1
        cid = reasons[var]
        antecedents.append(cid)
        pivots.append(var)

    learnt[0] = p_enc ^ 1

    if minimize and len(learnt) > 1:
        if _minimize_learnt(engine, learnt, seen, antecedents, pivots,
                            bump_clause):
            has_level0 = True  # minimization may surface level-0 deps

    if has_level0:
        _clear_level0(engine, seen, antecedents, pivots, bump_clause)

    backjump = 0
    if len(learnt) > 1:
        max_index = 1
        for i in range(2, len(learnt)):
            if levels[learnt[i] >> 1] > levels[learnt[max_index] >> 1]:
                max_index = i
        learnt[1], learnt[max_index] = learnt[max_index], learnt[1]
        backjump = levels[learnt[1] >> 1]

    return Analysis(learnt, backjump, antecedents, pivots,
                    _normalized(learnt))


def analyze_decision(engine: PropagatorBase, confl_cid: int,
                     bump_var: BumpVar = None,
                     bump_clause: BumpClause = None) -> Analysis:
    """Decision-variable conflict analysis (Relsat's scheme — "global"
    clauses): resolve every deduced literal away so the learned clause
    mentions only decision variables."""
    clauses = engine.clauses
    levels = engine.levels
    reasons = engine.reasons
    trail = engine.trail
    if engine.decision_level == 0:
        raise ValueError("analyze_decision requires a conflict above level 0")

    seen: set[int] = set()
    antecedents = [confl_cid]
    pivots: list[int] = []
    learnt: list[int] = []  # built in descending decision-level order

    if bump_clause is not None:
        bump_clause(confl_cid)
    for q in clauses[confl_cid]:
        var = q >> 1
        seen.add(var)
        if bump_var is not None and levels[var] > 0:
            bump_var(var)

    for pos in range(len(trail) - 1, -1, -1):
        enc = trail[pos]
        var = enc >> 1
        if var not in seen:
            continue
        cid = reasons[var]
        if cid is None:
            learnt.append(enc ^ 1)
            continue
        antecedents.append(cid)
        pivots.append(var)
        if bump_clause is not None:
            bump_clause(cid)
        for q in clauses[cid]:
            u = q >> 1
            if u not in seen:
                seen.add(u)
                if bump_var is not None and levels[u] > 0:
                    bump_var(u)

    # Reverse-trail order means learnt[0] negates the current decision and
    # learnt[1] a literal of the backjump level — the watch order.
    backjump = levels[learnt[1] >> 1] if len(learnt) > 1 else 0
    return Analysis(learnt, backjump, antecedents, pivots,
                    _normalized(learnt))


def analyze_final(engine: PropagatorBase, confl_cid: int) -> FinalAnalysis:
    """Terminal analysis of a conflict at decision level 0.

    Resolves the conflicting clause backwards along the level-0 trail down
    to the empty clause.  Because every resolution step shrinks the
    resolvent by at most one literal, the derivation passes through a unit
    resolvent ``(l)`` (unless it starts empty); we split the chain there
    so the proof log ends with a unit step followed by the empty step —
    the source of the paper's final conflicting pair.
    """
    clauses = engine.clauses
    reasons = engine.reasons
    trail = engine.trail

    seen: set[int] = set()
    for q in clauses[confl_cid]:
        seen.add(q >> 1)
    size = len(seen)
    antecedents = [confl_cid]
    pivots: list[int] = []

    if size == 0:
        return FinalAnalysis(unit_step=None,
                             empty_antecedents=(confl_cid,),
                             empty_pivots=())

    unit_chain_len = 1 if size == 1 else None
    unit_literal_enc: int | None = None

    for pos in range(len(trail) - 1, -1, -1):
        enc = trail[pos]
        var = enc >> 1
        if var not in seen:
            continue
        cid = reasons[var]
        if cid is None:
            raise ValueError(
                "level-0 assignment without a reason during final analysis")
        if unit_chain_len is not None and unit_literal_enc is None:
            unit_literal_enc = enc ^ 1
        antecedents.append(cid)
        pivots.append(var)
        size -= 1
        for q in clauses[cid]:
            u = q >> 1
            if u not in seen:
                seen.add(u)
                size += 1
        if size == 1 and unit_chain_len is None:
            unit_chain_len = len(antecedents)
        if size == 0:
            break

    if size != 0 or unit_literal_enc is None or unit_chain_len is None:
        raise ValueError("final analysis failed to reach the empty clause")

    unit_step = ((decode(unit_literal_enc),),
                 tuple(antecedents[:unit_chain_len]),
                 tuple(pivots[:unit_chain_len - 1]))
    return FinalAnalysis(
        unit_step=unit_step,
        empty_antecedents=tuple(antecedents[unit_chain_len:]),
        empty_pivots=tuple(pivots[unit_chain_len - 1:]))


def _minimize_learnt(engine: PropagatorBase, learnt: list[int],
                     seen: set[int], antecedents: list[int],
                     pivots: list[int],
                     bump_clause: BumpClause) -> bool:
    """Remove redundant literals from a freshly derived 1UIP clause.

    A literal is redundant when its variable's reason chain bottoms out
    entirely in other clause literals (or level-0 assignments).  Every
    reason used this way is appended to the derivation chain, in reverse
    trail order, so the logged chain still derives exactly the
    (minimized) clause.  Returns True if anything was removed.
    """
    clauses = engine.clauses
    reasons = engine.reasons
    levels = engine.levels
    trail = engine.trail
    cache: dict[int, bool] = {}
    committed_set: set[int] = set()

    def probe(root: int) -> bool:
        if root in committed_set:
            return True
        cached = cache.get(root)
        if cached is not None:
            return cached
        tentative: list[int] = []
        tentative_set: set[int] = set()
        tentative_level0: set[int] = set()
        stack = [root]
        ok = True
        while stack:
            var = stack.pop()
            if var in tentative_set or var in committed_set:
                continue
            if cache.get(var) is True:
                continue
            reason_cid = reasons[var]
            if reason_cid is None or cache.get(var) is False:
                ok = False
                break
            tentative_set.add(var)
            tentative.append(var)
            for q in clauses[reason_cid]:
                u = q >> 1
                if u == var:
                    continue
                if levels[u] == 0:
                    tentative_level0.add(u)
                    continue
                if (u in seen or u in tentative_set
                        or u in committed_set):
                    continue
                if cache.get(u) is False:
                    ok = False
                    break
                stack.append(u)
            if not ok:
                break
        if not ok:
            cache[root] = False
            return False
        for var in tentative:
            cache[var] = True
            committed_set.add(var)
        seen.update(tentative_level0)
        return True

    kept = [learnt[0]]
    removed_any = False
    for enc in learnt[1:]:
        if probe(enc >> 1):
            removed_any = True
        else:
            kept.append(enc)
    if not removed_any:
        return False
    learnt[:] = kept

    # Extend the derivation: resolve each used reason, newest first.
    # All committed vars sit below the current decision level, i.e.
    # after every resolution of the 1UIP loop — the global reverse
    # trail order of the chain is preserved.
    limit = engine.trail_lim[0] if engine.trail_lim else 0
    for pos in range(len(trail) - 1, limit - 1, -1):
        var = trail[pos] >> 1
        if var not in committed_set:
            continue
        reason_cid = reasons[var]
        antecedents.append(reason_cid)
        pivots.append(var)
        if bump_clause is not None:
            bump_clause(reason_cid)
    return True


def _clear_level0(engine: PropagatorBase, seen: set[int],
                  antecedents: list[int], pivots: list[int],
                  bump_clause: BumpClause) -> None:
    """Resolve away literals falsified at decision level 0.

    Extends the derivation chain in reverse trail order over the level-0
    segment, so the recorded chain derives exactly the learned clause.
    """
    clauses = engine.clauses
    reasons = engine.reasons
    trail = engine.trail
    limit = engine.trail_lim[0] if engine.trail_lim else len(trail)
    for pos in range(limit - 1, -1, -1):
        enc = trail[pos]
        var = enc >> 1
        if var not in seen:
            continue
        cid = reasons[var]
        if cid is None:
            raise ValueError("level-0 assignment without a reason")
        antecedents.append(cid)
        pivots.append(var)
        if bump_clause is not None:
            bump_clause(cid)
        for q in clauses[cid]:
            seen.add(q >> 1)
