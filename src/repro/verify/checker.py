"""Shared machinery of the two verification procedures.

The checker loads ``F`` followed by ``F*`` into one BCP engine and then
checks individual proof clauses: to check clause ``C`` at chronological
position ``i``, it falsifies ``C`` (assigns the paper's ``R``) and runs
BCP over ``F ∪ F*_{<i}`` — realized with the engine's clause *ceiling*,
so no clauses are ever re-added or removed between checks.

Two state-management modes are supported:

``rebuild`` (the original, order-agnostic path)
    Decision level 0 is kept empty; each check opens level 1, enqueues
    the assumptions *and* every applicable unit clause, propagates, and
    is undone by a single backtrack.  Every check re-pays the full unit
    pass, but checks are completely independent of order and history.

``incremental`` (the default; the backward-verification fast path)
    The unit closure of ``F ∪ F*_{<ceiling}`` is kept as a *persistent
    root trail* on its own decision level.  The ceiling may only fall
    (a backward pass): each move retracts the root suffix whose reason
    cids crossed the ceiling and re-propagates, and each check then
    only asserts ``R`` on a fresh level above the root.  Every move
    also calls :meth:`PropagatorBase.retire_above`, letting the engine
    purge dead clauses from its watch/occurrence lists.  This is the
    DRAT-trim/window-shifting observation: backward checking is
    monotone, so root state and watch lists only ever shrink.  A
    rising ceiling raises ``ValueError``; a caller whose ceiling may
    rise (a one-off probe, a forward pass) uses ``mode="rebuild"``.

Both modes produce the same verdict for every check (BCP conflict
existence is order-invariant); the conflicting clause they report — and
hence the marked sets of ``Proof_verification2`` — may differ when a
check admits several distinct conflicts.

**Deletions.**  A proof read from a DRUP trace carries a deletion
schedule (:attr:`ConflictClauseProof.deletions`): proof clause ``i``
is checked against the clauses still live when it was added.  The
incremental checker loads every deleted clause detached, and attaches
it to the persistent root once the falling ceiling passes its deletion
(:meth:`PropagatorBase.attach`): a unit clause puts its literal on the
root trail, a falsified one is a root conflict, any other is watched.
Attaching only adds implications, so the root stays a fixpoint that
only ever grows between retractions.  ``rebuild`` mode refuses a proof
with deletions.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, NamedTuple

from repro.bcp.engine import FALSE, TRUE, PropagatorBase
from repro.bcp.watched import WatchedPropagator
from repro.core.formula import CnfFormula
from repro.core.literals import encode
from repro.proofs.conflict_clause import ConflictClauseProof

if TYPE_CHECKING:
    from repro.verify.budget import BudgetMeter

CHECKER_MODES = ("rebuild", "incremental")


def check_mode(mode: str, proof: ConflictClauseProof) -> None:
    """Refuse an unknown mode, and ``rebuild`` on a proof with
    deletions (its checks keep no root to attach deleted clauses to)."""
    if mode not in CHECKER_MODES:
        raise ValueError(f"unknown checker mode {mode!r}; "
                         f"expected one of {CHECKER_MODES}")
    if mode == "rebuild" and proof.deletions:
        raise ValueError("mode rebuild cannot check a proof with "
                         "deletions; use mode incremental")


class CheckOutcome(NamedTuple):
    """Result of BCP-checking one proof clause.

    ``conflict`` is the paper's pass criterion.  ``confl_cid`` is the
    clause id of the conflicting clause for marking purposes; it is None
    when the conflict arose between two assumption literals (a
    tautological proof clause), in which case nothing is responsible.
    """

    conflict: bool
    confl_cid: int | None = None


class ProofChecker:
    """BCP-based checker over ``F ∪ F*`` with a movable clause ceiling."""

    def __init__(self, formula: CnfFormula, proof: ConflictClauseProof,
                 engine_cls: type[PropagatorBase] = WatchedPropagator,
                 mode: str = "incremental",
                 meter: "BudgetMeter | None" = None):
        check_mode(mode, proof)
        self.formula = formula
        self.proof = proof
        self.mode = mode
        # Budget enforcement point: with a meter attached, every
        # check_clause() call first verifies the budget and raises
        # BudgetExhausted once it runs out.  The drivers catch it and
        # report the resource_limit_exceeded outcome.
        self.meter = meter
        num_vars = max(formula.num_vars, proof.max_var())
        self.engine = engine_cls(num_vars)
        self.num_input = formula.num_clauses
        # (cid, encoded literal) of every unit clause, in cid order.
        self.units: list[tuple[int, int]] = []
        # (position, cid) of each deleted clause, the latest deletion
        # last: the clause rejoins the root once the ceiling falls to
        # cid num_input + position - 1.
        self._detached: list[tuple[int, int]] = sorted(
            (at, self.num_input + target if target >= 0 else ~target)
            for at, target in proof.deletions)
        detached = {cid for _, cid in self._detached}
        for cid, clause in enumerate(formula):
            self._load([encode(lit) for lit in clause.literals],
                       cid not in detached)
        for cid, lits in enumerate(proof, start=self.num_input):
            self._load([encode(lit) for lit in lits], cid not in detached)
        self._unit_cids = [cid for cid, _ in self.units]
        # Root-trail maintenance counts (plain ints, always on — the
        # cheap observable form of the rebuild-vs-incremental savings;
        # drivers export them as metrics when instrumentation is
        # attached).  ``root_builds`` counts full root constructions,
        # ``root_lowers`` incremental ceiling moves, ``root_retracted``
        # trail assignments undone by lowering.
        self.root_stats: dict[str, int] = {
            "root_builds": 0, "root_lowers": 0, "root_retracted": 0}
        # Persistent-root bookkeeping (incremental mode only).
        self._root_ceiling: int | None = None
        self._root_conflict: int | None = None
        # reason cid -> trail position of the root assignment it
        # justifies (each asserted clause justifies at most one literal).
        self._root_reason_pos: dict[int, int] = {}

    def _load(self, enc_lits: list[int], attach: bool) -> None:
        cid = self.engine.add_clause(enc_lits, propagate_units=False,
                                     attach=attach)
        if attach and self.engine.clause_len(cid) == 1:
            self.units.append((cid, self.engine.clause_lits(cid)[0]))

    def cid_of_proof_clause(self, index: int) -> int:
        return self.num_input + index

    def _assumption_encs(self, index: int):
        """Encoded literals of proof clause ``index`` (the set whose
        negation is the paper's ``R``).  Duplicates are harmless — a
        repeated assumption hits the already-TRUE branch."""
        return [encode(lit) for lit in self.proof[index]]

    def check_clause(self, index: int) -> CheckOutcome:
        """BCP((F ∪ F*_{<index}) | R) — Section 3 of the paper.

        Leaves the engine at the post-propagation state so the caller can
        run conflict analysis for marking; call :meth:`reset` afterwards.

        Raises :class:`~repro.verify.budget.BudgetExhausted` when the
        attached budget meter has run out (checked *before* the BCP run,
        so a completed check is never retroactively voided).
        """
        if self.meter is not None:
            self.meter.ensure(self.engine.counters)
        if self.mode == "incremental":
            return self._check_incremental(index)
        engine = self.engine
        ceiling = self.num_input + index
        engine.new_level()
        # R: falsify every literal of the checked clause.
        for enc in self._assumption_encs(index):
            enc_neg = enc ^ 1
            value = engine.value(enc_neg)
            if value == TRUE:
                continue
            if value == FALSE:
                # Tautological clause: R is self-contradictory, the
                # clause is trivially implied; nothing is responsible.
                return CheckOutcome(conflict=True, confl_cid=None)
            engine.enqueue(enc_neg, None)
        # Unit clauses of F and the F*-prefix (they carry no watches).
        for cid, enc in self.units:
            if cid >= ceiling:
                break
            value = engine.value(enc)
            if value == TRUE:
                continue
            if value == FALSE:
                return CheckOutcome(conflict=True, confl_cid=cid)
            engine.enqueue(enc, cid)
        confl = engine.propagate(ceiling)
        if confl is not None:
            return CheckOutcome(conflict=True, confl_cid=confl)
        return CheckOutcome(conflict=False)

    def reset(self) -> None:
        """Undo the last check (the persistent root, if any, survives)."""
        if self.mode == "incremental":
            self.engine.backtrack(1)
        else:
            self.engine.backtrack(0)

    # -- incremental mode -------------------------------------------------

    def _check_incremental(self, index: int) -> CheckOutcome:
        ceiling = self.num_input + index
        self._sync_root(ceiling)
        engine = self.engine
        if self._root_conflict is not None:
            # F ∪ F*_{<index} is unit-refutable on its own: every check
            # at this ceiling trivially conflicts.
            return CheckOutcome(conflict=True,
                                confl_cid=self._root_conflict)
        engine.new_level()
        for enc in self._assumption_encs(index):
            enc_neg = enc ^ 1
            value = engine.value(enc_neg)
            if value == TRUE:
                continue
            if value == FALSE:
                # Falsified either by a sibling assumption (tautological
                # clause — nothing responsible) or by a root assignment,
                # whose reason clause then carries the conflict.
                return CheckOutcome(conflict=True,
                                    confl_cid=engine.reasons[enc_neg >> 1])
            engine.enqueue(enc_neg, None)
        confl = engine.propagate()
        if confl is not None:
            return CheckOutcome(conflict=True, confl_cid=confl)
        return CheckOutcome(conflict=False)

    def _sync_root(self, ceiling: int) -> None:
        """Bring the persistent root level down to the given ceiling.

        Retirement removes the clauses above the ceiling for good, so a
        ceiling above the retirement floor is refused before any root
        state changes.
        """
        floor = self.engine.retire_ceiling
        if ceiling > floor:
            raise ValueError(
                "the incremental checker requires monotonically "
                f"decreasing check ceilings (ceiling {ceiling} is above "
                f"the retirement floor {floor}); use mode=\"rebuild\" "
                "for other check orders")
        if ceiling == self._root_ceiling:
            return
        if self._root_ceiling is None or self._root_conflict is not None:
            # No root yet, or the old one stopped at a conflict, so its
            # trail is not a usable fixpoint: build from scratch.
            self._build_root(ceiling)
        else:
            self._lower_root(ceiling)
        self._root_ceiling = ceiling
        if self._detached \
                and self._detached[-1][0] > ceiling - self.num_input:
            self._attach_live(ceiling)

    def _attach_live(self, ceiling: int) -> None:
        """Attach the deleted clauses below ``ceiling`` whose deletion
        the ceiling has passed, and close the root over them."""
        engine = self.engine
        position = ceiling - self.num_input
        start = len(engine.trail)
        detached = self._detached
        while detached and detached[-1][0] > position:
            cid = detached.pop()[1]
            if cid >= ceiling:
                continue    # added above the ceiling: never checked
            if engine.clause_len(cid) == 1:
                at = bisect_left(self._unit_cids, cid)
                self._unit_cids.insert(at, cid)
                self.units.insert(at, (cid, engine.clause_lits(cid)[0]))
            if not engine.attach(cid) and self._root_conflict is None:
                self._root_conflict = cid
        if self._root_conflict is not None:
            return
        confl = engine.propagate()
        if confl is not None:
            self._root_conflict = confl
            return
        self._record_root_positions(start)

    def _record_root_positions(self, start: int) -> None:
        trail = self.engine.trail
        reasons = self.engine.reasons
        positions = self._root_reason_pos
        for pos in range(start, len(trail)):
            positions[reasons[trail[pos] >> 1]] = pos

    def _assert_units(self, ceiling: int) -> bool:
        """Enqueue unasserted units with ``cid < ceiling``.

        Returns False (setting the root conflict) if a unit is already
        falsified by the standing root assignment.
        """
        engine = self.engine
        stop = bisect_left(self._unit_cids, ceiling)
        for cid, enc in self.units[:stop]:
            value = engine.value(enc)
            if value == TRUE:
                continue
            if value == FALSE:
                self._root_conflict = cid
                return False
            engine.enqueue(enc, cid)
        return True

    def _build_root(self, ceiling: int) -> None:
        self.root_stats["root_builds"] += 1
        engine = self.engine
        engine.backtrack(0)
        self._root_reason_pos.clear()
        self._root_conflict = None
        engine.retire_above(ceiling)
        engine.new_level()
        if not self._assert_units(ceiling):
            return
        confl = engine.propagate()
        if confl is not None:
            self._root_conflict = confl
            return
        self._record_root_positions(0)

    def _lower_root(self, ceiling: int) -> None:
        """Move the root down: retract assignments whose reason cid
        crossed the ceiling (plus their trail suffix) and re-close."""
        self.root_stats["root_lowers"] += 1
        old_ceiling = self._root_ceiling
        engine = self.engine
        engine.retire_above(ceiling)
        positions = self._root_reason_pos
        cut: int | None = None
        for cid in range(ceiling, old_ceiling):
            pos = positions.get(cid)
            if pos is not None and (cut is None or pos < cut):
                cut = pos
        if cut is None:
            # Every root assignment is still justified below the new
            # ceiling; a fixpoint of the larger clause set over the same
            # trail is a fixpoint of any subset.
            return
        trail = engine.trail
        reasons = engine.reasons
        for pos in range(cut, len(trail)):
            reason = reasons[trail[pos] >> 1]
            if positions.get(reason) == pos:
                del positions[reason]
        self.root_stats["root_retracted"] += len(trail) - cut
        engine.unwind_to(cut)
        # Re-assert the retracted units that survive the new ceiling and
        # re-close from the *start* of the trail: a retracted assignment
        # may still be implied by a clause whose falsified literals all
        # sit below the cut (derived literals land after every batched
        # unit, so trail position does not bound derivation depth), and
        # only a full rescan of the surviving prefix re-fires it.
        if not self._assert_units(ceiling):
            return
        engine.qhead = 0
        confl = engine.propagate()
        if confl is not None:
            self._root_conflict = confl
            return
        self._record_root_positions(cut)
