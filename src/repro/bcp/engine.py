"""Shared machinery of the BCP engines: trail, values, reasons, levels.

The paper's verification procedure needs exactly one nontrivial component —
Boolean Constraint Propagation (Section 2) — and the same component drives
the CDCL solver.  Both the two-watched-literal engine (Section 6 of the
paper: "an optimized version of the BCP procedure that employs the
machinery of watched literals") and the reference counting engine derive
from :class:`PropagatorBase`.

Conventions
-----------
* Literals are *encoded* (see :mod:`repro.core.literals`).
* ``values`` is indexed by encoded literal: ``TRUE``/``FALSE``/``UNDEF``.
* Clause ids (*cids*) are dense indices into ``clauses`` and are never
  reused; removed clauses leave a tombstone (empty list).
* ``propagate(ceiling=cid)`` ignores clauses with id ``>= cid`` — this is
  how the verifier checks proof clause *i* against only the clauses deduced
  before it without rebuilding the engine (Section 3: BCP over
  ``F ∪ F*``-prefix).
* :meth:`PropagatorBase.promote` moves clauses into a second, *core*
  tier that propagate() scans to fixpoint before each step through the
  rest; ``qhead`` is the rest tier's head, so every trail literal before
  it is processed in both tiers.
"""

from __future__ import annotations

import sys

TRUE = 1
FALSE = -1
UNDEF = 0

# Sentinel for "no clause is retired": larger than any clause id, so the
# hot loops can compare against it without a None test.
NO_CEILING = sys.maxsize


class PropagationCounters:
    """Observable BCP work, accumulated across propagate() calls.

    The backward-verification speedups (persistent root trail, watch
    purging) are claimed in these units, so both engines maintain them:

    * ``assignments`` — literals actually assigned (enqueued and new);
    * ``watch_visits`` — watch-list / occurrence-list entries scanned;
    * ``clause_visits`` — clause bodies inspected (past the ceiling and
      retirement filters);
    * ``purged`` — retired entries lazily dropped from watch/occurrence
      lists by :meth:`PropagatorBase.retire_above`;
    * ``detach_misses`` — ``_detach`` calls that found a watch entry
      already gone (e.g. purged after retirement); a nonzero value is
      normal only for retired clauses.

    :meth:`as_dict` keeps this field order: it is the order of the
    CLI's ``c bcp:`` line.
    """

    __slots__ = ("assignments", "watch_visits", "clause_visits", "purged",
                 "detach_misses")

    def __init__(self, assignments: int = 0, watch_visits: int = 0,
                 clause_visits: int = 0, purged: int = 0,
                 detach_misses: int = 0):
        self.assignments = assignments
        self.watch_visits = watch_visits
        self.clause_visits = clause_visits
        self.purged = purged
        self.detach_misses = detach_misses

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={value!r}"
                           for key, value in self.as_dict().items())
        return f"{type(self).__qualname__}({fields})"

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def total_work(self) -> int:
        """Machine-independent BCP effort: assignments + clause visits.

        This is the unit :class:`~repro.verify.budget.CheckBudget`'s
        ``max_props`` limit is charged in — unlike wall-clock time it is
        deterministic for a given formula/proof/engine, so budgets stay
        portable across hardware.
        """
        return self.assignments + self.clause_visits

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)


class PropagatorBase:
    """Trail, assignment and clause bookkeeping shared by all BCP engines."""

    def __init__(self, num_vars: int = 0):
        self.num_vars = 0
        # Indexed by encoded literal (size 2 * (num_vars + 1)).
        self.values: list[int] = [UNDEF, UNDEF]
        # Indexed by variable.
        self.levels: list[int] = [-1]
        self.reasons: list[int | None] = [None]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.clauses: list[list[int]] = []
        self.empty_clause_cid: int | None = None
        # Set when a unit clause added at level 0 contradicts the current
        # level-0 assignment; propagate() then reports it as the conflict
        # (unit clauses carry no watches, so this cannot be detected by
        # the watch machinery).
        self.conflict_unit_cid: int | None = None
        # Clauses with id >= retire_ceiling are permanently out of play:
        # they neither propagate nor conflict, and their watch/occurrence
        # entries are lazily purged as the lists are scanned.
        self.retire_ceiling: int = NO_CEILING
        # False until the first promote(): propagate() then keeps the
        # single-tier visit order (and counters) of an unmarked engine.
        self.tiered = False
        self.counters = PropagationCounters()
        self.ensure_vars(num_vars)

    # -- variable / clause management ------------------------------------

    def ensure_vars(self, num_vars: int) -> None:
        """Grow internal arrays to accommodate variables ``1..num_vars``."""
        while self.num_vars < num_vars:
            self.num_vars += 1
            self.values.extend((UNDEF, UNDEF))
            self.levels.append(-1)
            self.reasons.append(None)
            self._on_new_var()

    def _on_new_var(self) -> None:
        """Subclass hook: grow per-literal structures (watches, occs)."""

    def add_clause(self, enc_lits: list[int],
                   propagate_units: bool = True,
                   attach: bool = True) -> int:
        """Add a clause of encoded literals; return its clause id.

        Duplicate literals are removed (order otherwise preserved).  A unit
        clause added at decision level 0 is enqueued immediately unless
        ``propagate_units`` is False (the verifier manages units itself so
        it can exclude clauses beyond its ceiling).  An empty clause is
        recorded and makes every subsequent :meth:`propagate` report it.
        With ``attach=False`` the clause is only stored: it takes no
        part in BCP until :meth:`attach` brings it in.
        """
        seen: set[int] = set()
        lits = []
        max_var = 0
        for enc in enc_lits:
            if enc in seen:
                continue
            seen.add(enc)
            lits.append(enc)
            var = enc >> 1
            if var > max_var:
                max_var = var
        self.ensure_vars(max_var)
        cid = len(self.clauses)
        self.clauses.append(lits)
        if not attach:
            return cid
        if not lits:
            if self.empty_clause_cid is None:
                self.empty_clause_cid = cid
            return cid
        self._attach(cid)
        if len(lits) == 1 and propagate_units and not self.trail_lim:
            if not self.enqueue(lits[0], cid):
                if self.conflict_unit_cid is None:
                    self.conflict_unit_cid = cid
        return cid

    def attach(self, cid: int) -> bool:
        """Bring a clause stored with ``add_clause(..., attach=False)``
        into BCP under the current assignment.

        Backward checking of a DRUP trace attaches a deleted clause
        once the falling ceiling passes its deletion.  The literals are
        reordered so that the non-false ones come first, then the false
        ones from the highest level down, and the engine indexes the
        clause on that order (watched: its first two literals).  A
        clause that is unit under the assignment enqueues its literal
        with reason ``cid``.  Returns False, and enqueues nothing, when
        every literal is false: the caller's conflict.
        """
        lits = self.clauses[cid]
        if not lits:
            if self.empty_clause_cid is None or cid < self.empty_clause_cid:
                self.empty_clause_cid = cid
            return False
        values = self.values
        levels = self.levels
        lits.sort(key=lambda enc: (values[enc] == FALSE,
                                   -levels[enc >> 1]))
        self._attach(cid)
        first = values[lits[0]]
        if first == FALSE:
            return False
        if first == UNDEF and (len(lits) == 1 or values[lits[1]] == FALSE):
            self.enqueue(lits[0], cid)
        return True

    def clause_lits(self, cid: int):
        """The literals of clause ``cid`` (a sequence of encoded
        literals; empty for a removed clause's tombstone)."""
        return self.clauses[cid]

    def clause_len(self, cid: int) -> int:
        return len(self.clauses[cid])

    def _standing_conflict(self, ceiling: int | None) -> int | None:
        """A conflict that exists independently of the propagation queue:
        an empty clause, or a level-0-falsified unit clause."""
        for cid in (self.empty_clause_cid, self.conflict_unit_cid):
            if cid is not None and (ceiling is None or cid < ceiling) \
                    and cid < self.retire_ceiling:
                return cid
        return None

    def retire_above(self, ceiling: int) -> None:
        """Permanently exclude clauses with id ``>= ceiling`` from BCP.

        Backward proof verification moves its clause ceiling monotonically
        down, so clauses above the frontier are never needed again.
        Retiring them lets the propagation loops *drop* their
        watch/occurrence entries on the next scan (counted in
        ``counters.purged``) instead of re-testing a per-call ceiling on
        every visit forever.  The retirement ceiling only moves down;
        raising it again is impossible because purged entries are gone.
        """
        if ceiling < self.retire_ceiling:
            self.retire_ceiling = ceiling

    def promote(self, cids) -> None:
        """Move clauses ``cids`` into the core tier.

        Verification2 promotes each clause the moment conflict analysis
        first marks it.  From the first promotion on, propagate() runs
        the core tier to fixpoint before each step through the unmarked
        tier, so conflicts are found over already-marked clauses where
        possible (DRAT-trim's core-first propagation).  Either tier
        order reaches the same fixpoint, and a conflict exists in one
        order exactly when it exists in the other.

        Marks only grow, so each clause is promoted at most once.
        Retired clauses are skipped: they are out of play, and
        retirement may already have purged their entries.  Promoted
        clauses cannot be removed (only the solver removes clauses, and
        it never promotes).
        """
        raise NotImplementedError

    def _attach(self, cid: int) -> None:
        """Subclass hook: register the clause with the propagation index."""
        raise NotImplementedError

    def remove_clause(self, cid: int) -> None:
        """Detach and tombstone a clause (used by learned-clause deletion).

        The caller must guarantee the clause is not the reason of any
        current assignment.
        """
        if self.clause_len(cid):
            self._detach(cid)
        self.clauses[cid] = []

    def _detach(self, cid: int) -> None:
        raise NotImplementedError

    # -- assignment ------------------------------------------------------

    @property
    def decision_level(self) -> int:
        return len(self.trail_lim)

    def value(self, enc: int) -> int:
        """Current truth value of an encoded literal."""
        return self.values[enc]

    def enqueue(self, enc: int, reason: int | None) -> bool:
        """Assign an encoded literal true with the given reason clause.

        Returns False if the literal is already false (a conflict the
        caller must handle); True otherwise (including the already-true
        no-op case).
        """
        current = self.values[enc]
        if current == TRUE:
            return True
        if current == FALSE:
            return False
        self.values[enc] = TRUE
        self.values[enc ^ 1] = FALSE
        var = enc >> 1
        self.levels[var] = len(self.trail_lim)
        self.reasons[var] = reason
        self.trail.append(enc)
        self.counters.assignments += 1
        return True

    def assume(self, enc: int) -> bool:
        """Open a new decision level and assign the literal (no reason)."""
        self.trail_lim.append(len(self.trail))
        return self.enqueue(enc, None)

    def new_level(self) -> None:
        """Open a new decision level without assigning anything yet."""
        self.trail_lim.append(len(self.trail))

    def backtrack(self, level: int) -> None:
        """Undo all assignments above the given decision level."""
        if level >= len(self.trail_lim):
            return
        limit = self.trail_lim[level]
        self._undo(limit)
        del self.trail_lim[level:]
        self.qhead = limit

    def unwind_to(self, pos: int) -> None:
        """Unassign ``trail[pos:]`` without closing any decision level.

        The incremental backward checker uses this to retract only the
        suffix of the persistent root trail whose reasons crossed the
        moving ceiling; ``pos`` must not cut below an open decision level
        boundary (the caller retracts within the root level only).
        """
        if pos >= len(self.trail):
            return
        if self.trail_lim and pos < self.trail_lim[-1]:
            raise ValueError(
                f"unwind_to({pos}) would cross the decision-level "
                f"boundary at {self.trail_lim[-1]}; use backtrack()")
        self._undo(pos)
        self.qhead = min(self.qhead, pos)

    def _undo(self, start: int) -> None:
        """Unassign ``trail[start:]`` and cut the trail there.

        The one undo loop behind :meth:`backtrack` and :meth:`unwind_to`;
        an engine with per-assignment state (counting's counters)
        overrides it, restores that state, and then calls this.
        """
        trail = self.trail
        values = self.values
        levels = self.levels
        reasons = self.reasons
        for enc in trail[start:]:
            values[enc] = UNDEF
            values[enc ^ 1] = UNDEF
            var = enc >> 1
            levels[var] = -1
            reasons[var] = None
        del trail[start:]

    def propagate(self, ceiling: int | None = None) -> int | None:
        """Run BCP to fixpoint; return the conflicting clause id, if any.

        With a ``ceiling``, clauses with id ``>= ceiling`` neither
        propagate nor conflict (they are "not yet deduced" from the
        verifier's point of view).
        """
        raise NotImplementedError

    def assignment(self) -> dict[int, bool]:
        """The current assignment as a variable → bool mapping."""
        return {enc >> 1: not enc & 1 for enc in self.trail}
