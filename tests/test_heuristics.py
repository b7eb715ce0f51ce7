"""Unit tests for the branching heuristics."""

import heapq
import random

import pytest

from repro.bcp.engine import UNDEF
from repro.bcp.watched import WatchedPropagator
from repro.core.literals import encode
from repro.solver import heuristics
from repro.solver.heuristics import BerkMinOrder, VsidsOrder, make_order


def engine_with(num_vars, clauses=()):
    engine = WatchedPropagator(num_vars)
    for clause in clauses:
        engine.add_clause([encode(lit) for lit in clause])
    return engine


class TestVsids:
    def test_pick_highest_activity(self):
        order = VsidsOrder(3)
        engine = engine_with(3)
        order.bump(2)
        assert order.pick(engine) == 2

    def test_pick_skips_assigned(self):
        order = VsidsOrder(3)
        engine = engine_with(3)
        order.bump(2)
        order.bump(2)
        order.bump(1)
        engine.assume(encode(2))
        assert order.pick(engine) == 1

    def test_all_assigned_returns_none(self):
        order = VsidsOrder(2)
        engine = engine_with(2)
        engine.assume(encode(1))
        engine.enqueue(encode(2), None)
        assert order.pick(engine) is None

    def test_push_after_unassign(self):
        order = VsidsOrder(2)
        engine = engine_with(2)
        order.bump(1)
        engine.assume(encode(1))
        assert order.pick(engine) == 2
        engine.backtrack(0)
        order.push(1)
        assert order.pick(engine) == 1

    def test_decay_amplifies_recent_bumps(self):
        order = VsidsOrder(2, decay=0.5)
        order.bump(1)          # activity 1
        order.decay_step()     # future bumps worth 2
        order.bump(2)          # activity 2
        assert order.activity[2] > order.activity[1]

    def test_rescale_preserves_order(self):
        order = VsidsOrder(3, decay=0.5)
        order.bump(3)
        # Force a rescale by massive decay inflation.
        for _ in range(400):
            order.decay_step()
        order.bump(2)  # triggers rescale (activity > 1e100)
        engine = engine_with(3)
        assert order.pick(engine) == 2
        assert all(a <= 1e100 for a in order.activity)

    def test_invalid_decay(self):
        with pytest.raises(ValueError):
            VsidsOrder(1, decay=0.0)
        with pytest.raises(ValueError):
            VsidsOrder(1, decay=1.5)

    def test_ensure_vars_grows(self):
        order = VsidsOrder(0)
        order.ensure_vars(5)
        assert len(order.activity) == 6
        engine = engine_with(5)
        assert order.pick(engine) in range(1, 6)


class UnboundedLazyOrder:
    """The oracle: VSIDS over a lazy heap that keeps every entry ever
    pushed until it reaches the top (the heap before it was bounded)."""

    def __init__(self, num_vars, decay):
        self.decay = decay
        self.inc = 1.0
        self.activity = [0.0] * (num_vars + 1)
        self.heap = [(-0.0, var) for var in range(1, num_vars + 1)]

    def bump(self, var):
        activity = self.activity[var] + self.inc
        self.activity[var] = activity
        if activity > 1e100:
            self._rescale()
        else:
            heapq.heappush(self.heap, (-activity, var))

    def _rescale(self):
        self.activity = [a * 1e-100 for a in self.activity]
        self.inc *= 1e-100
        self.heap = [(-self.activity[var], var)
                     for var in range(1, len(self.activity))]
        heapq.heapify(self.heap)

    def decay_step(self):
        self.inc /= self.decay

    def push(self, var):
        heapq.heappush(self.heap, (-self.activity[var], var))

    def pick(self, engine):
        heap = self.heap
        while heap:
            neg_activity, var = heap[0]
            if (engine.values[var << 1] != UNDEF
                    or -neg_activity != self.activity[var]):
                heapq.heappop(heap)
                continue
            return var
        return None


def heap_bound(num_vars):
    return 2 * (num_vars + 1) + 64


class TestBoundedHeap:
    """The bounded heap picks what the unbounded lazy heap picks."""

    @pytest.mark.parametrize("seed", range(40))
    def test_differential_against_unbounded_heap(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(1, 40)
        decay = rng.choice([0.5, 0.8, 0.95, 1.0])
        engine = engine_with(num_vars)
        order = VsidsOrder(num_vars, decay)
        oracle = UnboundedLazyOrder(num_vars, decay)
        ops = ("bump",) * 8 + ("assign", "assign", "unassign", "pick",
                               "decay", "decay", "decay")
        for step in range(3000):
            op = rng.choice(ops) if step % 1000 != 999 else "rescale"
            if op == "bump":
                var = rng.randint(1, num_vars)
                order.bump(var)
                oracle.bump(var)
            elif op == "assign":
                free = [var for var in range(1, num_vars + 1)
                        if engine.values[var << 1] == UNDEF]
                if free:
                    var = rng.choice(free)
                    engine.assume(encode(var if rng.random() < 0.5
                                         else -var))
            elif op == "unassign":
                if engine.decision_level:
                    level = rng.randrange(engine.decision_level)
                    unassigned = [enc >> 1 for enc in
                                  engine.trail[engine.trail_lim[level]:]]
                    engine.backtrack(level)
                    for var in unassigned:
                        order.push(var)
                        oracle.push(var)
            elif op == "pick":
                assert order.pick(engine) == oracle.pick(engine)
            elif op == "decay":
                order.decay_step()
                oracle.decay_step()
            else:
                order._rescale()
                oracle._rescale()
            assert order.activity == oracle.activity
            assert len(order.heap) <= heap_bound(num_vars)
        assert order.pick(engine) == oracle.pick(engine)

    def test_bump_of_a_popped_variable_waits_for_push(self):
        order = VsidsOrder(2)
        engine = engine_with(2)
        engine.assume(encode(1))
        assert order.pick(engine) == 2
        assert order.queued[1] is None
        order.bump(1)
        assert (-order.activity[1], 1) not in order.heap
        engine.backtrack(0)
        order.push(1)
        assert order.queued[1] == order.activity[1]
        assert order.pick(engine) == 1

    def test_barrel5_solve_stays_bounded(self, monkeypatch):
        from repro.benchgen.registry import build_instance
        from repro.solver.cdcl import solve

        formula = build_instance("barrel5")
        bound = heap_bound(formula.num_vars)
        real_heappush = heapq.heappush
        pushes = []

        def bounded_heappush(heap, item):
            # A push may take the heap one past the bound; the
            # compaction that follows must bring it back.
            assert len(heap) <= bound
            pushes.append(item)
            real_heappush(heap, item)

        monkeypatch.setattr(heuristics.heapq, "heappush", bounded_heappush)
        assert solve(formula).status == "UNSAT"
        assert pushes


class TestBerkMin:
    def test_picks_from_newest_unsatisfied_learned_clause(self):
        order = BerkMinOrder(4)
        engine = engine_with(4, [[1, 2], [3, 4]])
        order.on_learn(0)
        order.on_learn(1)
        order.bump(3)
        # Newest clause (cid 1) is unsatisfied: picks its best var.
        assert order.pick(engine) == 3

    def test_skips_satisfied_clause(self):
        order = BerkMinOrder(4)
        engine = engine_with(4, [[1, 2], [3, 4]])
        order.on_learn(0)
        order.on_learn(1)
        order.bump(1)
        order.bump(1)
        order.bump(4)
        engine.assume(encode(3))  # satisfies newest clause
        assert order.pick(engine) == 1  # falls to clause 0's best

    def test_skips_deleted_clause(self):
        order = BerkMinOrder(4)
        engine = engine_with(4, [[1, 2], [3, 4]])
        order.on_learn(0)
        order.on_learn(1)
        engine.remove_clause(1)
        order.bump(2)
        assert order.pick(engine) == 2

    def test_fallback_to_vsids(self):
        order = BerkMinOrder(3)
        engine = engine_with(3)
        order.bump(3)
        assert order.pick(engine) == 3  # no learned clauses at all

    def test_max_scan_bounded(self):
        order = BerkMinOrder(3, max_scan=1)
        engine = engine_with(3, [[1, 2], [2, 3]])
        order.on_learn(0)
        order.on_learn(1)
        engine.assume(encode(2))  # satisfies both learned clauses
        order.bump(1)
        # Scans only clause 1 (satisfied), then falls back to VSIDS.
        assert order.pick(engine) == 1


class TestFactory:
    def test_vsids(self):
        assert isinstance(make_order("vsids", 3, 0.95), VsidsOrder)

    def test_berkmin(self):
        assert isinstance(make_order("berkmin", 3, 0.95), BerkMinOrder)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_order("chaff", 3, 0.95)
