"""Counter-based BCP engine (GRASP/SATO style).

The pre-watched-literals propagation scheme: every clause keeps a count of
its falsified and satisfied literals, updated on each assignment through
full occurrence lists.  It visits every clause containing the assigned
variable, which is exactly the overhead watched literals avoid.

Kept for two purposes:

* a differential-testing oracle for :class:`repro.bcp.WatchedPropagator`
  (the engines must deduce the same assignments and agree on conflicts);
* the baseline of the watched-vs-counting ablation benchmark (paper
  Section 6 argues watched literals are especially effective on conflict
  clause proofs, which contain many long clauses).

Counters are maintained at *enqueue* time, so they always agree with the
``values`` array.  Limitation: clause removal is unsupported (counters
would need a rebuild), so a solver using this engine must disable
learned-clause deletion.

Retirement (:meth:`PropagatorBase.retire_above`) lazily purges retired
cids from the occurrence lists as they are scanned; the n_true/n_false
counters of *retired* clauses are allowed to drift afterwards (their
occurrence entries disappear asymmetrically), which is harmless because
retired clauses are never consulted again.
"""

from __future__ import annotations

from repro.bcp.engine import FALSE, NO_CEILING, TRUE, UNDEF, PropagatorBase


class CountingPropagator(PropagatorBase):
    """BCP engine using per-clause falsified/satisfied literal counters."""

    def __init__(self, num_vars: int = 0):
        self.occurrences: list[list[int]] = [[], []]
        # Per-literal occurrence lists of promoted clauses, allocated by
        # the first promote(); a clause's entries sit in exactly one
        # tier.  The counters are kept over both tiers, so only the scan
        # for unit and empty clauses is tiered.
        self.core_occurrences: list[list[int]] = []
        self.n_false: list[int] = []
        self.n_true: list[int] = []
        super().__init__(num_vars)

    def _on_new_var(self) -> None:
        self.occurrences.append([])
        self.occurrences.append([])
        if self.tiered:
            self.core_occurrences.append([])
            self.core_occurrences.append([])

    def _attach(self, cid: int) -> None:
        values = self.values
        false_count = 0
        true_count = 0
        for enc in self.clauses[cid]:
            self.occurrences[enc].append(cid)
            value = values[enc]
            if value == FALSE:
                false_count += 1
            elif value == TRUE:
                true_count += 1
        while len(self.n_false) <= cid:
            self.n_false.append(0)
            self.n_true.append(0)
        self.n_false[cid] = false_count
        self.n_true[cid] = true_count

    def _detach(self, cid: int) -> None:
        raise NotImplementedError(
            "CountingPropagator does not support clause removal")

    def promote(self, cids) -> None:
        if not self.tiered:
            self.core_occurrences = [[] for _ in self.occurrences]
            self.tiered = True
        occurrences = self.occurrences
        core = self.core_occurrences
        retire = self.retire_ceiling
        for cid in cids:
            if cid >= retire:
                continue
            for enc in self.clauses[cid]:
                occurrences[enc].remove(cid)
                core[enc].append(cid)

    def _purge_retired(self, occs: list[int]) -> None:
        """Drop retired cids from an occurrence list in place."""
        retire = self.retire_ceiling
        j = 0
        for cid in occs:
            if cid < retire:
                occs[j] = cid
                j += 1
        if j != len(occs):
            self.counters.purged += len(occs) - j
            del occs[j:]

    def enqueue(self, enc: int, reason: int | None) -> bool:
        current = self.values[enc]
        if current == TRUE:
            return True
        if current == FALSE:
            return False
        super().enqueue(enc, reason)
        self._count(enc, 1)
        return True

    def _count(self, enc: int, delta: int) -> None:
        """Add ``delta`` to the counters of the live clauses of both
        tiers that ``enc`` satisfies or falsifies."""
        retire = self.retire_ceiling
        n_true = self.n_true
        n_false = self.n_false
        tiers = (self.occurrences, self.core_occurrences) if self.tiered \
            else (self.occurrences,)
        for occurrences in tiers:
            for cid in occurrences[enc]:
                if cid < retire:
                    n_true[cid] += delta
            for cid in occurrences[enc ^ 1]:
                if cid < retire:
                    n_false[cid] += delta

    def _undo(self, start: int) -> None:
        for enc in self.trail[start:]:
            self._count(enc, -1)
        super()._undo(start)

    def propagate(self, ceiling: int | None = None) -> int | None:
        standing = self._standing_conflict(ceiling)
        if standing is not None:
            return standing
        values = self.values
        clauses = self.clauses
        n_false = self.n_false
        n_true = self.n_true
        retire = self.retire_ceiling
        counters = self.counters
        trail = self.trail
        # Tiered as in the watched engine: the core head restarts at
        # ``qhead``, and each step scans the next core-tier literal's
        # list before the next rest-tier literal's.
        core_head = self.qhead
        tiered = self.tiered
        visits = 0
        body_visits = 0
        try:
            while True:
                if tiered and core_head < len(trail):
                    enc = trail[core_head]
                    core_head += 1
                    occs = self.core_occurrences[enc ^ 1]
                elif self.qhead < len(trail):
                    enc = trail[self.qhead]
                    self.qhead += 1
                    occs = self.occurrences[enc ^ 1]
                else:
                    return None
                # Clauses containing ¬enc just lost a literal; find the
                # ones that became unit or empty.
                if retire != NO_CEILING:
                    self._purge_retired(occs)
                for cid in occs:
                    visits += 1
                    if ceiling is not None and cid >= ceiling:
                        continue
                    if n_true[cid]:
                        continue
                    body_visits += 1
                    clause = clauses[cid]
                    remaining = len(clause) - n_false[cid]
                    if remaining == 0:
                        return cid
                    if remaining == 1:
                        for lit in clause:
                            if values[lit] == UNDEF:
                                self.enqueue(lit, cid)
                                break
        finally:
            counters.watch_visits += visits
            counters.clause_visits += body_visits
