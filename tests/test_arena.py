"""Unit tests for the flat clause arena and its shared-memory transport."""

import pytest

from repro.bcp.arena import (
    ArenaPropagator,
    ClauseArena,
    build_arena,
)
from repro.bcp.engine import TRUE
from repro.core.formula import CnfFormula
from repro.core.literals import encode
from repro.proofs.conflict_clause import (
    ENDING_FINAL_PAIR,
    ConflictClauseProof,
)


def enc_clause(lits):
    return [encode(lit) for lit in lits]


class TestClauseArena:
    def test_append_and_lits(self):
        arena = ClauseArena()
        cid = arena.append(enc_clause([1, -2]))
        assert cid == 0
        assert arena.num_clauses == 1
        assert list(arena.lits(0)) == enc_clause([1, -2])
        assert arena.length(0) == 2
        assert arena.num_vars == 2

    def test_empty_clause(self):
        arena = ClauseArena()
        arena.append([])
        assert arena.length(0) == 0
        assert list(arena.lits(0)) == []

    def test_csr_offsets_dense(self):
        arena = ClauseArena()
        arena.append(enc_clause([1, 2, 3]))
        arena.append([])
        arena.append(enc_clause([-1]))
        assert list(arena.starts) == [0, 3, 3, 4]

    def test_tombstone_hides_lits(self):
        arena = ClauseArena()
        arena.append(enc_clause([1, 2]))
        arena.flags[0] |= 1
        assert tuple(arena.lits(0)) == ()
        # length() reads the offsets; the propagator's clause_len is
        # the flag-aware accessor.

    def test_live_accounting(self):
        """The streaming window-shift trigger reads these counters:
        appends grow them, tombstones shrink them, idempotently."""
        arena = ClauseArena()
        arena.append(enc_clause([1, 2, 3]))
        arena.append(enc_clause([-1]))
        assert arena.live_clauses == 2
        assert arena.live_words == 4
        assert arena.dead_words == 0
        bytes_before = arena.live_bytes()
        assert bytes_before == (4 + 2) * arena.pool.itemsize

        arena.tombstone(0)
        assert arena.live_clauses == 1
        assert arena.live_words == 1
        assert arena.dead_words == 3
        assert arena.live_bytes() < bytes_before
        # The pool itself never shrinks — only the live view does.
        assert len(arena.pool) == 4

        arena.tombstone(0)     # idempotent: no double decrement
        assert arena.live_clauses == 1
        assert arena.live_words == 1

    def test_remove_clause_tombstones(self):
        propagator = ArenaPropagator(3)
        cid = propagator.add_clause(enc_clause([1, 2, 3]),
                                    propagate_units=False)
        live_before = propagator.arena.live_clauses
        propagator.remove_clause(cid)
        assert propagator.arena.live_clauses == live_before - 1
        assert propagator.clause_len(cid) == 0


class TestBuildArena:
    def test_layout_matches_checker_cids(self):
        formula = CnfFormula([[1, 2], [1, -2], [-1, 2], [-1, -2]])
        proof = ConflictClauseProof([(1,), (-1,)], ENDING_FINAL_PAIR)
        arena, num_input = build_arena(formula, proof)
        assert num_input == 4
        assert arena.num_clauses == 6
        # Proof clause k is arena clause num_input + k.
        assert list(arena.lits(4)) == enc_clause([1])
        assert list(arena.lits(5)) == enc_clause([-1])

    def test_duplicate_literals_deduped(self):
        formula = CnfFormula([[1, 1, -2]])
        proof = ConflictClauseProof([()], "empty")
        arena, _ = build_arena(formula, proof)
        assert list(arena.lits(0)) == enc_clause([1, -2])


class TestSharedMemory:
    def test_round_trip_exact(self):
        formula = CnfFormula([[1, 2, 3], [-1, -2], [3]])
        proof = ConflictClauseProof([()], "empty")
        arena, _ = build_arena(formula, proof)
        handle = arena.to_shared_memory()
        try:
            attached = ClauseArena.from_shared_memory(handle)
            assert attached.num_vars == arena.num_vars
            assert attached.num_clauses == arena.num_clauses
            assert list(attached.pool) == list(arena.pool)
            assert list(attached.starts) == list(arena.starts)
            attached.detach()
        finally:
            arena.release_shared(unlink=True)

    def test_attached_arena_rejects_append(self):
        arena = ClauseArena()
        arena.append(enc_clause([1, 2]))
        handle = arena.to_shared_memory()
        try:
            attached = ClauseArena.from_shared_memory(handle)
            with pytest.raises(ValueError, match="attached"):
                attached.append(enc_clause([3]))
            attached.detach()
        finally:
            arena.release_shared(unlink=True)

    def test_double_export_rejected(self):
        arena = ClauseArena()
        arena.append(enc_clause([1]))
        arena.to_shared_memory()
        try:
            with pytest.raises(ValueError, match="already exported"):
                arena.to_shared_memory()
        finally:
            arena.release_shared(unlink=True)

    def test_detach_idempotent(self):
        arena = ClauseArena()
        arena.append(enc_clause([1, 2]))
        handle = arena.to_shared_memory()
        try:
            attached = ClauseArena.from_shared_memory(handle)
            attached.detach()
            attached.detach()  # second call is a no-op
            assert not attached.readonly
        finally:
            arena.release_shared(unlink=True)

    def test_release_shared_idempotent(self):
        arena = ClauseArena()
        arena.append(enc_clause([1]))
        arena.to_shared_memory()
        arena.release_shared(unlink=True)
        arena.release_shared(unlink=True)  # nothing exported: no-op

    def test_detach_on_plain_arena_is_noop(self):
        arena = ClauseArena()
        arena.append(enc_clause([1]))
        arena.detach()
        assert arena.num_clauses == 1

    def test_tombstones_stay_process_local(self):
        """flags are never shipped: an attached arena starts with a
        fresh zero flag set regardless of the creator's deletions."""
        arena = ClauseArena()
        arena.append(enc_clause([1, 2]))
        arena.flags[0] |= 1
        handle = arena.to_shared_memory()
        try:
            attached = ClauseArena.from_shared_memory(handle)
            assert tuple(attached.lits(0)) == tuple(enc_clause([1, 2]))
            attached.detach()
        finally:
            arena.release_shared(unlink=True)


class TestAdoptedPropagator:
    def test_propagates_over_shared_arena(self):
        formula = CnfFormula([[1], [-1, 2], [-2, 3]])
        proof = ConflictClauseProof([()], "empty")
        arena, _ = build_arena(formula, proof)
        handle = arena.to_shared_memory()
        try:
            attached = ClauseArena.from_shared_memory(handle)
            engine = ArenaPropagator(arena=attached)
            # Adoption does not enqueue units; do it explicitly.
            engine.enqueue(encode(1), 0)
            assert engine.propagate(ceiling=3) is None
            for var in (1, 2, 3):
                assert engine.value(encode(var)) == TRUE
            attached.detach()
        finally:
            arena.release_shared(unlink=True)

    def test_adopt_finds_empty_clause(self):
        arena = ClauseArena()
        arena.append(enc_clause([1, 2]))
        arena.append([])
        engine = ArenaPropagator(arena=arena)
        assert engine.empty_clause_cid == 1

    def test_blocker_hit_skips_body(self):
        engine = ArenaPropagator()
        engine.add_clause(enc_clause([1, 2]), propagate_units=False)
        engine.new_level()
        engine.enqueue(encode(2), None)   # blocker of watch on ¬1 …
        engine.propagate()
        before = engine.counters.clause_visits
        engine.enqueue(encode(-1), None)  # … now visiting keeps it true
        engine.propagate()
        assert engine.counters.clause_visits == before
        assert engine.counters.watch_visits >= 1

    def test_checker_over_attached_arena(self):
        """A checker built over a shared-memory-attached arena (the
        parallel workers' path) runs the arena engine and accepts the
        proof's checks."""
        from repro.verify.checker import ProofChecker

        formula = CnfFormula([[1, 2], [1, -2], [-1, 3], [-1, -3], [4, 5]])
        proof = ConflictClauseProof([(1,), (-1,)], ENDING_FINAL_PAIR)
        arena, num_input = build_arena(formula, proof)
        handle = arena.to_shared_memory()
        try:
            attached = ClauseArena.from_shared_memory(handle)
            checker = ProofChecker.from_arena(attached, num_input)
            assert isinstance(checker.engine, ArenaPropagator)
            for index in (1, 0):
                assert checker.check_clause(index).conflict
                checker.reset()
        finally:
            arena.release_shared(unlink=True)

    def test_from_arena_local_arena(self):
        """A checker over a local (not shared-memory) arena also runs
        the arena engine, adopting the arena rather than copying it."""
        from repro.verify.checker import ProofChecker

        formula = CnfFormula([[1, 2], [1, -2], [-1, 3], [-1, -3], [4, 5]])
        proof = ConflictClauseProof([(1,), (-1,)], ENDING_FINAL_PAIR)
        arena, num_input = build_arena(formula, proof)
        checker = ProofChecker.from_arena(arena, num_input)
        assert isinstance(checker.engine, ArenaPropagator)
        assert checker.engine.arena is arena
        assert checker.check_clause(1).conflict
