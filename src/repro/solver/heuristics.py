"""Branching heuristics: VSIDS and the BerkMin clause-stack heuristic.

The paper's proofs were produced by BerkMin [9], whose decision heuristic
prefers variables of the most recently deduced clause that is not yet
satisfied, falling back to activity order.  We provide both that heuristic
and plain VSIDS (Chaff-style exponential activities with lazy-heap
selection) so the solver can be run in either configuration.

The activity order is a binary heap of ``(-activity, var)`` tuples on
:mod:`heapq`, kept as MiniSat's indexed heap would be: each variable has
at most one *current* entry, the newest one it was given, and
``queued[var]`` holds that entry's activity (``None`` once ``pick`` has
popped it).  ``bump`` pushes a fresh entry only while the variable
still has one (increase-key); an assigned variable's entry is popped
when it reaches the top, and ``push`` gives it back when the variable
is unassigned.  So every unassigned variable has a current entry with
its present activity, which outranks the superseded entries it left
behind, and ``pick`` returns the same variable as a heap that kept
every entry ever pushed: the highest activity, ties broken by the lower
index.  Superseded entries are dropped when they reach the top or when
the heap outgrows ``2 * (num_vars + 1) + 64`` entries, at which point it
is rebuilt from the current entries alone; the heap stays within that
bound at an amortised O(1) cost per operation.
"""

from __future__ import annotations

import heapq

from repro.bcp.engine import TRUE, UNDEF, PropagatorBase

_RESCALE_LIMIT = 1e100
_RESCALE_FACTOR = 1e-100


class VsidsOrder:
    """Exponential VSIDS with a bounded lazy max-heap over variable
    activities (see the module docstring for its invariant)."""

    def __init__(self, num_vars: int = 0, decay: float = 0.95):
        if not 0 < decay <= 1:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self.decay = decay
        self.inc = 1.0
        self.activity: list[float] = [0.0]
        self.queued: list[float | None] = [None]
        self.heap: list[tuple[float, int]] = []
        self.heap_limit = 64
        self.ensure_vars(num_vars)

    def ensure_vars(self, num_vars: int) -> None:
        while len(self.activity) <= num_vars:
            var = len(self.activity)
            self.activity.append(0.0)
            self.queued.append(0.0)
            heapq.heappush(self.heap, (-0.0, var))
        self.heap_limit = 2 * len(self.activity) + 64

    def bump(self, var: int) -> None:
        """Increase a variable's activity (called on conflict analysis)."""
        activity = self.activity[var] + self.inc
        self.activity[var] = activity
        if activity > _RESCALE_LIMIT:
            self._rescale()
        elif self.queued[var] is not None:
            self.queued[var] = activity
            heap = self.heap
            heapq.heappush(heap, (-activity, var))
            if len(heap) > self.heap_limit:
                self._compact()

    def _compact(self) -> None:
        """Drop every superseded entry: one entry per queued variable."""
        self.heap = [(-activity, var)
                     for var, activity in enumerate(self.queued)
                     if activity is not None]
        heapq.heapify(self.heap)

    def _rescale(self) -> None:
        self.activity = [a * _RESCALE_FACTOR for a in self.activity]
        self.inc *= _RESCALE_FACTOR
        self.queued = [None, *self.activity[1:]]
        self._compact()

    def decay_step(self) -> None:
        """Geometrically inflate future bumps (equivalent to decaying)."""
        self.inc /= self.decay

    def push(self, var: int) -> None:
        """Re-offer a variable after it became unassigned."""
        if self.queued[var] is None:
            activity = self.activity[var]
            self.queued[var] = activity
            heap = self.heap
            heapq.heappush(heap, (-activity, var))
            if len(heap) > self.heap_limit:
                self._compact()

    def pick(self, engine: PropagatorBase) -> int | None:
        """Highest-activity unassigned variable, or None if all assigned."""
        values = engine.values
        heap = self.heap
        queued = self.queued
        while heap:
            var = heap[0][1]
            if values[var << 1] == UNDEF:
                return var
            heapq.heappop(heap)
            queued[var] = None  # push re-offers it when unassigned
        return None


class BerkMinOrder(VsidsOrder):
    """BerkMin's heuristic: branch inside the newest unsatisfied
    deduced clause, by activity; fall back to VSIDS when the recent
    deduced clauses are all satisfied."""

    def __init__(self, num_vars: int = 0, decay: float = 0.95,
                 max_scan: int = 256):
        super().__init__(num_vars, decay)
        self.max_scan = max_scan
        self.learned_stack: list[int] = []

    def on_learn(self, cid: int) -> None:
        self.learned_stack.append(cid)

    def pick(self, engine: PropagatorBase) -> int | None:
        values = engine.values
        clauses = engine.clauses
        activity = self.activity
        scanned = 0
        for cid in reversed(self.learned_stack):
            if scanned >= self.max_scan:
                break
            clause = clauses[cid]
            if not clause:
                continue  # deleted clause, skip without charging the scan
            scanned += 1
            best_var = None
            best_activity = -1.0
            satisfied = False
            for enc in clause:
                value = values[enc]
                if value == TRUE:
                    satisfied = True
                    break
                if value == UNDEF:
                    var = enc >> 1
                    if activity[var] > best_activity:
                        best_activity = activity[var]
                        best_var = var
            if satisfied:
                continue
            if best_var is not None:
                return best_var
        return super().pick(engine)


def make_order(name: str, num_vars: int, decay: float) -> VsidsOrder:
    """Factory for branching heuristics by name."""
    if name == "vsids":
        return VsidsOrder(num_vars, decay)
    if name == "berkmin":
        return BerkMinOrder(num_vars, decay)
    raise ValueError(f"unknown heuristic {name!r}")
