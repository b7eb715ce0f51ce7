"""Flat clause-arena BCP engine with zero-copy shared-memory export.

The list-of-lists clause database of the other engines pays a Python
object per clause and a pointer chase per literal.  DRAT-trim (Heule
2016) stores its whole clause database in one flat literal array and
window shifting (Chen 2016) demonstrates that memory layout is the
decisive factor in proof-checking throughput; this module is that
observation applied to our engines.

:class:`ClauseArena` is a struct-of-arrays clause store:

* ``pool`` — every clause's encoded literals, concatenated, in one
  ``array('i')``;
* ``starts`` — CSR-style offsets (``len == num_clauses + 1``), clause
  ``cid`` occupying ``pool[starts[cid]:starts[cid+1]]``;
* ``flags`` — one byte per clause; bit 0 marks a deletion tombstone
  (the pool itself is never compacted, cids stay dense and stable).

Because the arena is two contiguous ``int32`` buffers, it serializes to
a single :class:`multiprocessing.shared_memory.SharedMemory` block:
:meth:`ClauseArena.to_shared_memory` lays out
``[num_vars, num_clauses, pool_len] + starts + pool`` and returns a
small picklable :class:`ArenaHandle`; :meth:`ClauseArena
.from_shared_memory` maps it back as **read-only** ``memoryview``\\ s
without copying a byte.  That gives the parallel verification backend
a zero-copy transport: the parent builds ``F ∪ F*`` once, every worker
maps the same physical pages and keeps only its private
trail/assignment state — no fork-time page duplication, and the spawn
start method works because nothing large crosses a pickle boundary.

:class:`ArenaPropagator` implements the :class:`~repro.bcp.engine.
PropagatorBase` contract over an arena.  The watch machinery lives
*outside* the (possibly immutable, possibly shared) pool:

* ``watch_a``/``watch_b`` — the two watched literals per clause
  (MiniSat normalizes watches by reordering the clause body; a shared
  pool cannot be written, so the watch *table* is what moves);
* a process-local list mirror of ``pool``/``starts`` that the hot loop
  scans — CPython builds a fresh int object per ``array`` element
  access, while list elements are pre-built objects, so mirroring the
  compact buffers into lists once per process buys back the per-access
  boxing cost without giving up the shared transport format;
* ``watch_cids``/``watch_blockers`` — per-literal watch lists as
  parallel flat lists, each entry carrying a *blocker* literal (any
  literal of the clause, typically the other watch).  A visit whose
  blocker is already true keeps the entry and never touches the clause
  body — the branch-light fast path that skips most of the inner loop
  on the long conflict clauses proofs are made of.

Counter semantics match the other engines: ``watch_visits`` counts
watch-list entries scanned, ``clause_visits`` counts clause bodies
inspected (a blocker hit is a watch visit but *not* a clause visit —
that saved body inspection is precisely the optimization, and it is
observable), ``assignments``/``purged``/``detach_misses`` as in
:class:`~repro.bcp.engine.PropagationCounters`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.bcp.engine import FALSE, TRUE, NO_CEILING as _NO_CEILING, \
    PropagatorBase

# flags bits
_DELETED = 1

# Header words of the shared-memory layout.
_HEADER_WORDS = 3


@dataclass(frozen=True)
class ArenaHandle:
    """A picklable reference to a shared-memory arena.

    Small enough to cross any start-method boundary (a name and two
    integers); the receiving process attaches with
    :meth:`ClauseArena.from_shared_memory`.
    """

    name: str
    num_clauses: int
    pool_len: int


class ClauseArena:
    """Struct-of-arrays clause store (flat literal pool + offsets)."""

    def __init__(self) -> None:
        self.pool: "array[int]" = array("i")
        self.starts: "array[int]" = array("i", [0])
        self.flags = bytearray()
        self.num_vars = 0
        # Live-set accounting: clauses/pool words not yet tombstoned.
        # The streaming verifier budgets and evicts on these, so they
        # are maintained eagerly by append()/tombstone() instead of
        # recomputed by scanning flags.
        self.live_clauses = 0
        self.live_words = 0
        # True when pool/starts are read-only views of shared memory.
        self.readonly = False
        self._shm = None

    @property
    def num_clauses(self) -> int:
        return len(self.starts) - 1

    @property
    def dead_words(self) -> int:
        """Pool words held by tombstoned clauses (the pool is never
        compacted in place — eviction means rebuilding elsewhere)."""
        return len(self.pool) - self.live_words

    def live_bytes(self) -> int:
        """Estimated resident footprint of the *live* clause set:
        live pool words plus one offset word per live clause."""
        return (self.live_words + self.live_clauses) \
            * self.pool.itemsize

    def append(self, enc_lits) -> int:
        """Append a clause of encoded literals; return its cid."""
        if self.readonly:
            raise ValueError(
                "cannot append to a shared-memory-attached arena")
        cid = len(self.starts) - 1
        pool = self.pool
        num_vars = self.num_vars
        for enc in enc_lits:
            pool.append(enc)
            var = enc >> 1
            if var > num_vars:
                num_vars = var
        self.num_vars = num_vars
        self.live_words += len(pool) - self.starts[cid]
        self.live_clauses += 1
        self.starts.append(len(pool))
        self.flags.append(0)
        return cid

    def tombstone(self, cid: int) -> None:
        """Mark clause ``cid`` deleted and update the live accounting
        (idempotent: a second tombstone of the same cid is a no-op)."""
        if self.flags[cid] & _DELETED:
            return
        self.flags[cid] |= _DELETED
        self.live_clauses -= 1
        self.live_words -= self.length(cid)

    def length(self, cid: int) -> int:
        return self.starts[cid + 1] - self.starts[cid]

    def lits(self, cid: int):
        """The literals of clause ``cid`` (empty if tombstoned)."""
        if self.flags[cid] & _DELETED:
            return ()
        return self.pool[self.starts[cid]:self.starts[cid + 1]]

    # -- shared-memory transport ------------------------------------------

    def to_shared_memory(self) -> ArenaHandle:
        """Copy the arena into one shared-memory block; return its handle.

        The creating process owns the segment: call
        :meth:`release_shared` (with ``unlink=True``) once every
        attached process is done with it.  ``flags`` are deliberately
        not shipped — deletions are process-local state and the
        verification workers never delete.
        """
        from multiprocessing import shared_memory

        if self._shm is not None:
            raise ValueError("arena is already exported")
        header = array("i", [self.num_vars, self.num_clauses,
                             len(self.pool)])
        itemsize = header.itemsize
        words = _HEADER_WORDS + len(self.starts) + len(self.pool)
        shm = shared_memory.SharedMemory(create=True,
                                         size=max(1, words * itemsize))
        view = memoryview(shm.buf).cast("B").cast("i")
        offset = _HEADER_WORDS
        view[:offset] = header
        view[offset:offset + len(self.starts)] = self.starts
        offset += len(self.starts)
        if len(self.pool):
            view[offset:offset + len(self.pool)] = self.pool
        view.release()
        self._shm = shm
        return ArenaHandle(name=shm.name,
                           num_clauses=self.num_clauses,
                           pool_len=len(self.pool))

    @classmethod
    def from_shared_memory(cls, handle: ArenaHandle) -> "ClauseArena":
        """Attach to an exported arena without copying the pool.

        ``pool``/``starts`` become read-only ``memoryview``\\ s into the
        shared block; ``flags`` is a fresh (private) zero bytearray so
        tombstoning stays process-local.  Attaching must not register
        the segment with this process's ``resource_tracker`` — the
        *creator* owns the unlink; Python 3.11 has no ``track=False``
        yet, so registration is suppressed around the attach (an
        after-the-fact ``unregister`` would unbalance a fork-shared
        tracker: every worker's extra UNREGISTER past the parent's one
        REGISTER makes the tracker print KeyError noise).
        """
        from multiprocessing import resource_tracker, shared_memory

        orig_register = resource_tracker.register

        def _no_track(name, rtype):
            if rtype != "shared_memory":
                orig_register(name, rtype)

        resource_tracker.register = _no_track
        try:
            shm = shared_memory.SharedMemory(name=handle.name)
        finally:
            resource_tracker.register = orig_register
        view = memoryview(shm.buf).cast("B").cast("i")
        num_vars = view[0]
        num_clauses = view[1]
        pool_len = view[2]
        offset = _HEADER_WORDS
        arena = cls.__new__(cls)
        arena.starts = view[offset:offset + num_clauses + 1].toreadonly()
        offset += num_clauses + 1
        arena.pool = view[offset:offset + pool_len].toreadonly()
        arena.flags = bytearray(num_clauses)
        arena.num_vars = num_vars
        arena.live_clauses = num_clauses
        arena.live_words = pool_len
        arena.readonly = True
        arena._shm = shm
        view.release()
        import atexit

        # Views must be released before the SharedMemory finalizer runs
        # or interpreter shutdown prints BufferError noise.
        atexit.register(arena.detach)
        return arena

    def detach(self) -> None:
        """Release the shared views and close this process's mapping
        (idempotent; a no-op for plain in-process arenas)."""
        if self._shm is None:
            return
        if self.readonly:
            try:
                self.starts.release()
                self.pool.release()
            except AttributeError:
                pass
            self.starts = array("i", [0])
            self.pool = array("i")
            self.readonly = False
        shm, self._shm = self._shm, None
        shm.close()

    def release_shared(self, unlink: bool = True) -> None:
        """Creator-side cleanup: close the mapping and (by default)
        unlink the segment.  Safe to call when nothing was exported."""
        shm = self._shm
        if shm is None:
            return
        self._shm = None
        shm.close()
        if unlink:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass


def build_arena(formula, proof) -> tuple[ClauseArena, int]:
    """One arena holding ``F`` followed by ``F*``; returns
    ``(arena, num_input)``.

    Literal encoding and order-preserving deduplication match
    :meth:`PropagatorBase.add_clause` exactly, so arena cid ``i`` holds
    the same body the in-process checkers would store — proof clause
    ``k`` is arena clause ``num_input + k``, and a worker attaching the
    arena needs no pickled formula or proof at all.
    """
    from repro.core.literals import encode

    arena = ClauseArena()
    for clause in formula:
        arena.append(_dedup([encode(lit) for lit in clause.literals]))
    for lits in proof:
        arena.append(_dedup([encode(lit) for lit in lits]))
    if formula.num_vars > arena.num_vars:
        arena.num_vars = formula.num_vars
    return arena, formula.num_clauses


def _dedup(enc_lits: list[int]) -> list[int]:
    seen: set[int] = set()
    out = []
    for enc in enc_lits:
        if enc not in seen:
            seen.add(enc)
            out.append(enc)
    return out


class ArenaPropagator(PropagatorBase):
    """Two-watched-literal BCP over a flat clause arena, with blockers."""

    def __init__(self, num_vars: int = 0,
                 arena: ClauseArena | None = None):
        adopt = arena is not None
        self.arena = arena if adopt else ClauseArena()
        # Process-local scan mirror of the arena's pool/starts.  The
        # compact ``array('i')`` buffers are the storage and transport
        # format, but CPython materializes a fresh int object on every
        # array element access; a plain list derefs a cached object
        # instead, which is what the hot loop needs.  The mirror is
        # extended lazily as the arena grows (one bulk copy when
        # adopting a shared arena) and is never shipped anywhere.
        self._pool: list[int] = []
        self._starts: list[int] = [0]
        # Watched literals per clause (-1 for clauses with < 2
        # literals, which carry no watches).
        self.watch_a: list[int] = []
        self.watch_b: list[int] = []
        # Per-literal watch lists: parallel (cid, blocker) columns.
        self.watch_cids: list[list[int]] = [[], []]
        self.watch_blockers: list[list[int]] = [[], []]
        super().__init__(num_vars)
        if adopt:
            self._adopt()

    # -- storage ----------------------------------------------------------

    def _on_new_var(self) -> None:
        self.watch_cids.append([])
        self.watch_cids.append([])
        self.watch_blockers.append([])
        self.watch_blockers.append([])

    def _store_clause(self, lits: list[int]) -> int:
        cid = self.arena.append(lits)
        if len(lits) >= 2:
            self.watch_a.append(lits[0])
            self.watch_b.append(lits[1])
        else:
            self.watch_a.append(-1)
            self.watch_b.append(-1)
        return cid

    def _sync_mirror(self) -> None:
        arena = self.arena
        pool_len = arena.starts[arena.num_clauses]
        if len(self._pool) != pool_len:
            self._pool.extend(arena.pool[len(self._pool):pool_len])
            self._starts.extend(
                arena.starts[len(self._starts):arena.num_clauses + 1])

    def clause_lits(self, cid: int):
        return self.arena.lits(cid)

    def clause_len(self, cid: int) -> int:
        if self.arena.flags[cid] & _DELETED:
            return 0
        return self.arena.length(cid)

    def _adopt(self) -> None:
        """Build watch tables for a pre-populated (possibly shared,
        read-only) arena; units are *not* enqueued — the verification
        checkers manage unit clauses explicitly."""
        arena = self.arena
        self._sync_mirror()
        starts = self._starts
        pool = self._pool
        self.ensure_vars(arena.num_vars)
        watch_a = self.watch_a
        watch_b = self.watch_b
        watch_cids = self.watch_cids
        watch_blockers = self.watch_blockers
        for cid in range(arena.num_clauses):
            begin = starts[cid]
            end = starts[cid + 1]
            if end - begin >= 2:
                lit_a = pool[begin]
                lit_b = pool[begin + 1]
                watch_a.append(lit_a)
                watch_b.append(lit_b)
                watch_cids[lit_a].append(cid)
                watch_blockers[lit_a].append(lit_b)
                watch_cids[lit_b].append(cid)
                watch_blockers[lit_b].append(lit_a)
            else:
                watch_a.append(-1)
                watch_b.append(-1)
                if end == begin and self.empty_clause_cid is None:
                    self.empty_clause_cid = cid

    # -- watch maintenance -------------------------------------------------

    def _attach(self, cid: int) -> None:
        lit_a = self.watch_a[cid]
        if lit_a < 0:
            return  # units/empties carry no watches
        lit_b = self.watch_b[cid]
        self.watch_cids[lit_a].append(cid)
        self.watch_blockers[lit_a].append(lit_b)
        self.watch_cids[lit_b].append(cid)
        self.watch_blockers[lit_b].append(lit_a)

    def _detach(self, cid: int) -> None:
        lit_a = self.watch_a[cid]
        if lit_a < 0:
            return
        for enc in (lit_a, self.watch_b[cid]):
            watchlist = self.watch_cids[enc]
            try:
                pos = watchlist.index(cid)
            except ValueError:
                # Legitimate only when retirement already purged the
                # entry; counted so double-scan bugs stay visible.
                self.counters.detach_misses += 1
            else:
                del watchlist[pos]
                del self.watch_blockers[enc][pos]

    def remove_clause(self, cid: int) -> None:
        """Tombstone a clause via its flag byte (the pool is immutable,
        and for a shared arena also physically read-only)."""
        if self.arena.flags[cid] & _DELETED:
            return
        if self.arena.length(cid):
            self._detach(cid)
        self.arena.tombstone(cid)

    # -- propagation -------------------------------------------------------

    def propagate(self, ceiling: int | None = None) -> int | None:
        standing = self._standing_conflict(ceiling)
        if standing is not None:
            return standing
        values = self.values
        self._sync_mirror()
        pool = self._pool
        starts = self._starts
        watch_a = self.watch_a
        watch_b = self.watch_b
        watch_cids = self.watch_cids
        watch_blockers = self.watch_blockers
        retire = self.retire_ceiling
        counters = self.counters
        trail = self.trail
        levels = self.levels
        reasons = self.reasons
        # One comparison per entry instead of an is-None test + compare.
        ceil = _NO_CEILING if ceiling is None else ceiling
        visits = 0
        body_visits = 0
        assigns = 0
        purged = 0
        qhead = self.qhead
        try:
            while qhead < len(trail):
                enc = trail[qhead]
                qhead += 1
                false_lit = enc ^ 1
                watchlist = watch_cids[false_lit]
                blockers = watch_blockers[false_lit]
                i = 0
                # Deferred compaction: j stays -1 (no write-back at
                # all) until the first entry is dropped — most scans
                # drop nothing, and skipping the kept-entry copy is
                # the bulk of the per-visit saving over the plain
                # watched loop.  A kept entry's stale blocker is still
                # a literal of its clause, so leaving it in place is
                # sound.
                j = -1
                end = len(watchlist)
                while i < end:
                    cid = watchlist[i]
                    blocker = blockers[i]
                    i += 1
                    visits += 1
                    if cid >= retire:
                        # Lazy purge: the retired entry is not copied
                        # back, so this list never re-visits it.
                        purged += 1
                        if j < 0:
                            j = i - 1
                        continue
                    if values[blocker] == TRUE:
                        # Blocker satisfied: the clause is true and its
                        # body is never touched (no clause visit).
                        if j >= 0:
                            watchlist[j] = cid
                            blockers[j] = blocker
                            j += 1
                        continue
                    if cid >= ceil:
                        if j >= 0:
                            watchlist[j] = cid
                            blockers[j] = blocker
                            j += 1
                        continue
                    body_visits += 1
                    # Normalize in the watch *table*: A holds the other
                    # watch, B the falsified one (the pool is immutable).
                    first = watch_a[cid]
                    if first == false_lit:
                        first = watch_b[cid]
                        watch_a[cid] = first
                        watch_b[cid] = false_lit
                    first_val = values[first]
                    if first_val == TRUE:
                        if j >= 0:
                            watchlist[j] = cid
                            blockers[j] = first
                            j += 1
                        else:
                            # Refresh the blocker in place: the other
                            # watch is the literal most likely to be
                            # TRUE on the next visit.
                            blockers[i - 1] = first
                        continue
                    k = starts[cid]
                    stop = starts[cid + 1]
                    moved = False
                    # Binary clauses (k + 2 == stop) skip the scan:
                    # both literals are watches, so no replacement can
                    # exist.
                    if k + 2 < stop:
                        while k < stop:
                            other = pool[k]
                            k += 1
                            # values first: on the hot path most body
                            # literals are already false, so the two
                            # watch-exclusion tests rarely need to run.
                            if values[other] != FALSE \
                                    and other != first \
                                    and other != false_lit:
                                watch_b[cid] = other
                                watch_cids[other].append(cid)
                                watch_blockers[other].append(first)
                                moved = True
                                break
                        if moved:
                            if j < 0:
                                j = i - 1
                            continue
                    # No replacement: the clause is unit or conflicting.
                    if j >= 0:
                        watchlist[j] = cid
                        blockers[j] = first
                        j += 1
                    else:
                        blockers[i - 1] = first
                    if first_val == FALSE:
                        if j >= 0:
                            # Conflict: keep the rest of the list.
                            while i < end:
                                watchlist[j] = watchlist[i]
                                blockers[j] = blockers[i]
                                j += 1
                                i += 1
                            del watchlist[j:]
                            del blockers[j:]
                        return cid
                    assigns += 1
                    values[first] = TRUE
                    values[first ^ 1] = FALSE
                    var = first >> 1
                    levels[var] = len(self.trail_lim)
                    reasons[var] = cid
                    trail.append(first)
                if j >= 0:
                    del watchlist[j:]
                    del blockers[j:]
            return None
        finally:
            self.qhead = qhead
            counters.watch_visits += visits
            counters.clause_visits += body_visits
            counters.assignments += assigns
            counters.purged += purged
