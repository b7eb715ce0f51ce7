"""Two-watched-literal BCP engine.

The propagation machinery of Chaff [16 in the paper] that the paper's own
verifier uses (Section 6): each clause is watched through two of its
literals, and work is done only when a watched literal becomes false.  The
paper notes this is "especially effective" for conflict clause proofs
because ``F*`` contains many long clauses — a falsified long clause is
visited only when one of its two watches fires, not on every assignment.

The implementation follows MiniSat: the falsified watch is normalized to
position 1 of the clause, position 0 holds the other watch, and watch
lists are compacted in place during the scan.
"""

from __future__ import annotations

from operator import length_hint

from repro.bcp.engine import FALSE, TRUE, PropagatorBase


class WatchedPropagator(PropagatorBase):
    """BCP engine using the two-watched-literal scheme."""

    def __init__(self, num_vars: int = 0):
        self.watches: list[list[int]] = [[], []]
        # Per-literal watch lists of promoted clauses, allocated by the
        # first promote(); a clause's watches sit in exactly one tier.
        self.core_watches: list[list[int]] = []
        super().__init__(num_vars)

    def _on_new_var(self) -> None:
        self.watches.append([])
        self.watches.append([])
        if self.tiered:
            self.core_watches.append([])
            self.core_watches.append([])

    def _attach(self, cid: int) -> None:
        lits = self.clauses[cid]
        if len(lits) == 1:
            # Units have no second watch; they are driven by enqueue
            # (solver) or by the verifier's explicit unit pass.
            return
        self.watches[lits[0]].append(cid)
        self.watches[lits[1]].append(cid)

    def _detach(self, cid: int) -> None:
        lits = self.clauses[cid]
        if len(lits) == 1:
            return
        for enc in (lits[0], lits[1]):
            watchlist = self.watches[enc]
            try:
                watchlist.remove(cid)
            except ValueError:
                # A missing entry is legitimate only when retirement
                # already purged it from the list; it is counted rather
                # than silently swallowed so double-scan bugs surface in
                # the instrumentation.
                self.counters.detach_misses += 1

    def promote(self, cids) -> None:
        if not self.tiered:
            self.core_watches = [[] for _ in self.watches]
            self.tiered = True
        clauses = self.clauses
        watches = self.watches
        core = self.core_watches
        retire = self.retire_ceiling
        for cid in cids:
            lits = clauses[cid]
            if cid >= retire or len(lits) < 2:
                continue
            for enc in (lits[0], lits[1]):
                watches[enc].remove(cid)
                core[enc].append(cid)

    def propagate(self, ceiling: int | None = None) -> int | None:
        standing = self._standing_conflict(ceiling)
        if standing is not None:
            return standing
        values = self.values
        clauses = self.clauses
        watches = self.watches
        trail = self.trail
        levels = self.levels
        reasons = self.reasons
        level = len(self.trail_lim)
        qhead = self.qhead
        # The core tier's head restarts at the rest tier's: everything
        # before ``qhead`` is processed in both tiers.
        core_head = qhead
        core = self.core_watches
        tiered = self.tiered
        retire = self.retire_ceiling
        # One comparison filters both: an entry at or above ``limit`` is
        # retired (purged) or above the ceiling (kept but skipped).
        limit = retire if ceiling is None or ceiling > retire else ceiling
        trail_start = len(trail)
        visits = 0
        skipped = 0
        purged = 0
        try:
            while True:
                # Each step scans one literal's list: the next core-tier
                # literal's while there is one, else the next rest-tier
                # literal's, else the fixpoint of both tiers is reached.
                if tiered and core_head < len(trail):
                    false_lit = trail[core_head] ^ 1
                    core_head += 1
                    tier = core
                elif qhead < len(trail):
                    false_lit = trail[qhead] ^ 1
                    qhead += 1
                    tier = watches
                else:
                    return None
                watchlist = tier[false_lit]
                # Counted per list: a conflict subtracts the entries it
                # leaves unvisited, and clause visits are derived from
                # visits, skips and purges in the ``finally``.
                visits += len(watchlist)
                j = 0
                entries = iter(watchlist)
                for cid in entries:
                    if cid >= limit:
                        if cid >= retire:
                            # Lazily purge the retired entry: do not copy
                            # it back, so this list never re-visits it.
                            purged += 1
                        else:
                            skipped += 1
                            watchlist[j] = cid
                            j += 1
                        continue
                    clause = clauses[cid]
                    # Normalize: the false watch sits at position 1.
                    first = clause[0]
                    if first == false_lit:
                        first = clause[1]
                        clause[0] = first
                        clause[1] = false_lit
                    if values[first] == TRUE:
                        watchlist[j] = cid
                        j += 1
                        continue
                    for k in range(2, len(clause)):
                        other = clause[k]
                        if values[other] != FALSE:
                            clause[1] = other
                            clause[k] = false_lit
                            tier[other].append(cid)
                            break
                    else:
                        # No replacement: the clause is unit or
                        # conflicting.
                        watchlist[j] = cid
                        j += 1
                        if values[first] == FALSE:
                            # Conflict: keep the unvisited tail, closing
                            # the gap the compaction left before it.
                            unvisited = length_hint(entries)
                            visits -= unvisited
                            del watchlist[j:len(watchlist) - unvisited]
                            return cid
                        values[first] = TRUE
                        values[first ^ 1] = FALSE
                        var = first >> 1
                        levels[var] = level
                        reasons[var] = cid
                        trail.append(first)
                del watchlist[j:]
        finally:
            self.qhead = qhead
            counters = self.counters
            counters.watch_visits += visits
            counters.clause_visits += visits - skipped - purged
            counters.assignments += len(trail) - trail_start
            counters.purged += purged
