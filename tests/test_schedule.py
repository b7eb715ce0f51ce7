"""Unit tests for the proof-shape cost-model shard planner.

The planner feeds the fault-tolerant parallel backend, so its two
load-bearing properties are pinned hard: every plan is a *partition*
(contiguous shards covering each index exactly once — retry keying and
first-failure reduction rely on it) and a *pure function* of its
inputs (the ``--jobs 1`` vs ``--jobs 4`` artifact-identity guarantee
extends to planned runs only because the plan never depends on pool
state, wall clock, or worker count at execution time).
"""

import json

import pytest

from repro.verify.schedule import (
    MIN_CHECKS_PER_SHARD,
    Calibration,
    ShardPlan,
    load_calibration,
    plan_shards,
    plan_verification1,
    planner_choice,
    predict_costs,
    shard_count,
)


def _assert_partition(plan: ShardPlan, n: int) -> None:
    seen = [i for lo, hi in plan.shards for i in range(lo, hi)]
    assert sorted(seen) == list(range(n))
    assert len(seen) == len(set(seen))
    # Contiguity: each shard starts where the previous ended.
    for (_, hi), (lo, _) in zip(plan.shards, plan.shards[1:]):
        assert lo == hi


class TestPlannerChoice:
    def test_default_is_cost(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD_PLANNER", raising=False)
        assert planner_choice() == "cost"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_PLANNER", "contiguous")
        assert planner_choice() == "contiguous"
        # Explicit argument beats the environment.
        assert planner_choice("cost") == "cost"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown shard planner"):
            planner_choice("fastest")


class TestShardCount:
    def test_zero_and_negative(self):
        assert shard_count(0, 4) == 0
        assert shard_count(-3, 4) == 0

    def test_min_checks_clamp(self):
        # 20 checks, 4 jobs: the unclamped split would cut 16 shards
        # of 1-2 checks; the clamp keeps one shard per worker instead.
        assert shard_count(20, 4) == 4
        # Plenty of checks: full over-sharding.
        assert shard_count(16 * MIN_CHECKS_PER_SHARD, 4) == 16

    def test_never_below_one_shard_per_worker(self):
        # A small proof still spreads across the pool.
        assert shard_count(3, 2) == 2
        assert shard_count(2, 8) == 2  # ...but never exceeds n.

    def test_single_job(self):
        assert shard_count(1000, 1) == 4  # SHARDS_PER_JOB


class TestPlanShards:
    def test_empty(self):
        plan = plan_shards([], 4)
        assert plan.shards == ()
        assert plan.dispatch == ()
        assert plan.source == "empty"

    def test_single_check(self):
        plan = plan_shards([5.0], 4)
        assert plan.shards == ((0, 1),)
        _assert_partition(plan, 1)

    def test_partition_and_determinism(self):
        costs = [float(i + 1) for i in range(200)]
        first = plan_shards(costs, 4, planner="cost")
        again = plan_shards(costs, 4, planner="cost")
        assert first == again
        _assert_partition(first, 200)

    def test_cost_planner_balances_ramp(self):
        # Linearly growing costs: the equal-count split gives the last
        # shard ~7x the first's cost; the cost planner must flatten
        # that far below the contiguous skew.
        costs = [float(i + 1) for i in range(512)]
        planned = plan_shards(costs, 4, planner="cost")
        contiguous = plan_shards(costs, 4, planner="contiguous")
        _assert_partition(planned, 512)
        _assert_partition(contiguous, 512)
        assert planned.predicted_skew() < contiguous.predicted_skew()
        assert planned.predicted_skew() < 1.2

    def test_min_checks_respected(self):
        costs = [1.0] * 100 + [1000.0]  # one huge check at the end
        plan = plan_shards(costs, 4, planner="cost", min_checks=16)
        _assert_partition(plan, 101)
        assert all(hi - lo >= min(16, 101 // len(plan.shards))
                   for lo, hi in plan.shards)

    def test_dispatch_is_lpt(self):
        costs = [float(i + 1) for i in range(512)]
        plan = plan_shards(costs, 4, planner="cost")
        dispatched = [plan.predicted[i] for i in plan.dispatch]
        assert dispatched == sorted(dispatched, reverse=True)

    def test_degenerate_costs_fall_back_contiguous(self):
        for costs in ([0.0] * 64, [float("nan")] * 64,
                      [float("inf")] * 64):
            plan = plan_shards(costs, 2, planner="cost")
            assert plan.planner == "contiguous"
            assert plan.source == "degenerate"
            _assert_partition(plan, 64)

    def test_contiguous_planner_equal_counts(self):
        plan = plan_shards([float(i) for i in range(64)], 2,
                           planner="contiguous")
        sizes = {hi - lo for lo, hi in plan.shards}
        assert max(sizes) - min(sizes) <= 1
        _assert_partition(plan, 64)

    def test_as_event_shape(self):
        plan = plan_shards([1.0] * 64, 2, planner="cost")
        event = plan.as_event()
        assert set(event) == {"planner", "source", "shards",
                              "predicted_skew", "first_dispatched"}
        assert event["shards"] == len(plan.shards)
        json.dumps(event)  # obs events must be JSON-serializable


class TestPlanVerification1:
    def test_jobs_independent_indices(self):
        """Different --jobs values cut different shard *bounds* but
        always the same total index set, in the same order within
        shards — the artifact-identity property."""
        widths = [3 + (i % 5) for i in range(300)]
        for jobs in (1, 2, 4, 8):
            plan = plan_verification1(100, widths, jobs)
            _assert_partition(plan, 300)

    def test_deterministic_across_calls(self):
        widths = [4] * 200
        assert plan_verification1(50, widths, 4) \
            == plan_verification1(50, widths, 4)

    def test_rebuild_flatter_than_incremental(self):
        """The rebuild replay term flattens the position ramp, so the
        rebuild plan's first shard is wider (cheap early checks need
        more of them to reach the quantile)."""
        widths = [4] * 400
        inc = plan_verification1(10, widths, 2, mode="incremental")
        reb = plan_verification1(10, widths, 2, mode="rebuild")
        assert inc.shards[0][1] >= reb.shards[0][1]


class TestCalibration:
    def test_density_lookup(self):
        cal = Calibration(((0, 10, 2.0), (10, 20, 8.0)), "r1")
        assert cal.density(0) == 2.0
        assert cal.density(15) == 8.0
        assert cal.density(25) is None

    def test_predict_costs_uses_calibration(self):
        cal = Calibration(((0, 4, 100.0),), "r1")
        costs = predict_costs(10, [4] * 8, calibration=cal)
        # Covered indices use the measured density, the tail falls
        # back to the analytic position term (much smaller here).
        assert all(c == 100.0 for c in costs[:4])
        assert all(c < 100.0 for c in costs[4:])

    def test_load_calibration_roundtrip(self, tmp_path):
        from repro.obs.insight.history import HistoryStore

        store = HistoryStore(str(tmp_path))
        store.append({
            "schema": "repro.obs.run/v1", "id": "r42",
            "instance": "/bench/pipe_5.cnf", "mode": "incremental",
            "attribution": {"utilization": 0.8, "skew_ratio": 1.1,
                            "shards": [
                                {"lo": 0, "hi": 50, "props": 500},
                                {"lo": 50, "hi": 100, "props": 2500},
                            ]}})
        cal = load_calibration("pipe_5.cnf", "incremental",
                               str(tmp_path))
        assert cal is not None
        assert cal.run_id == "r42"
        assert cal.density(10) == 10.0
        assert cal.density(60) == 50.0
        plan = plan_verification1(10, [4] * 100, 2,
                                  instance="pipe_5.cnf",
                                  history_dir=str(tmp_path))
        assert plan.source == "calibrated:r42"
        _assert_partition(plan, 100)

    def test_missing_store_is_none(self, tmp_path):
        assert load_calibration("x.cnf",
                                directory=str(tmp_path / "no")) is None
        assert load_calibration(None) is None


class TestBackendIntegration:
    def test_make_shards_clamped(self):
        from repro.verify.parallel import make_shards

        shards = make_shards(20, 4)
        assert len(shards) == shard_count(20, 4)
        seen = [i for lo, hi in shards for i in range(lo, hi)]
        assert sorted(seen) == list(range(20))

    def test_planned_shards_matches_planner(self):
        from repro.benchgen.registry import pigeonhole
        from repro.proofs.conflict_clause import ConflictClauseProof
        from repro.solver.cdcl import solve
        from repro.verify.parallel import planned_shards

        formula = pigeonhole(4)
        result = solve(formula)
        proof = ConflictClauseProof.from_log(result.log)
        plan = planned_shards(formula, proof, 4, mode="incremental")
        direct = plan_verification1(
            formula.num_clauses,
            [len(proof[i]) for i in range(len(proof))], 4,
            mode="incremental")
        assert plan.shards == direct.shards
        _assert_partition(plan, len(proof))
