"""Fault tolerance of the parallel verification1 backend.

Worker death (simulated with a hard ``os._exit``, as an OOM kill would
look) must never wedge a run or change its verdict: lost shards are
retried once on a fresh pool, then fall back to in-process sequential
checking, each step leaving a trace in the report's ``warnings`` /
``worker_failures``.
"""

import pytest

from repro.benchgen.registry import pigeonhole
from repro.proofs.conflict_clause import ConflictClauseProof
from repro.solver.cdcl import solve
from repro.verify import RESOURCE_LIMIT_EXCEEDED, CheckBudget
from repro.verify import parallel
from repro.verify.parallel import (
    MIN_CHECKS_PER_SHARD,
    SHARDS_PER_JOB,
    clear_faults,
    fork_available,
    install_fault,
    make_shards,
    run_sharded_v1,
    shard_count,
)
from repro.verify.verification import verify_proof_v1

pytestmark = pytest.mark.skipif(
    not fork_available(),
    reason="fault-tolerance tests need the fork start method")


def _shards(proof, jobs=4):
    """The bounds the run under test will execute (faults are keyed by
    exact shard bounds), in ascending order."""
    return make_shards(len(proof), jobs)


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    clear_faults()


@pytest.fixture(scope="module")
def instance():
    formula = pigeonhole(5)
    result = solve(formula, reduce_base=20, reduce_growth=10)
    assert result.is_unsat
    return formula, ConflictClauseProof.from_log(result.log)


@pytest.fixture(scope="module")
def bad_instance(instance):
    """The same proof with a unit over a fresh variable injected at
    position 0: F alone cannot derive it by BCP, so verification1 must
    fail exactly there (every genuine check still passes — its prefix
    only gained a clause)."""
    formula, proof = instance
    fresh = max(formula.num_vars, proof.max_var()) + 1
    clauses = [(fresh,)] + list(proof.clauses)
    return formula, ConflictClauseProof(clauses)


class TestShards:
    @pytest.mark.parametrize("num_indices,jobs",
                             [(1, 1), (7, 4), (100, 4), (3, 8),
                              (7, 2), (100, 3), (5, 8)])
    def test_cover_exactly_once(self, num_indices, jobs):
        # Contiguous, ascending and of equal count: each shard starts
        # where the previous one ended, so the shards read in order
        # cover the range exactly once.
        shards = make_shards(num_indices, jobs)
        seen = [index for lo, hi in shards for index in range(lo, hi)]
        assert seen == list(range(num_indices))
        assert len(shards) == shard_count(num_indices, jobs)
        sizes = [hi - lo for lo, hi in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_empty(self):
        assert make_shards(0, 4) == []

    def test_zero_and_negative(self):
        assert shard_count(0, 4) == 0
        assert shard_count(-3, 4) == 0

    def test_min_checks_clamp(self):
        # 20 checks, 4 jobs: the unclamped split would cut 16 shards
        # of 1-2 checks; the clamp keeps one shard per worker instead.
        assert shard_count(20, 4) == 4
        # Plenty of checks: full over-sharding.
        assert shard_count(16 * MIN_CHECKS_PER_SHARD, 4) == 16

    def test_make_shards_clamped(self):
        shards = make_shards(20, 4)
        assert len(shards) == shard_count(20, 4)
        assert all(hi - lo == 5 for lo, hi in shards)
        seen = [index for lo, hi in shards for index in range(lo, hi)]
        assert seen == list(range(20))

    def test_never_below_one_shard_per_worker(self):
        # A small proof still spreads across the pool...
        assert shard_count(3, 2) == 2
        assert shard_count(2, 8) == 2  # ...but never exceeds n.

    def test_single_job(self):
        assert shard_count(1000, 1) == SHARDS_PER_JOB


class TestWorkerDeath:
    def test_retry_recovers(self, instance):
        formula, proof = instance
        shards = _shards(proof)
        install_fault(shards[0], deaths=1)
        report = verify_proof_v1(formula, proof, jobs=4,
                                 mode="incremental")
        assert report.ok
        assert report.num_checked == len(proof)
        assert report.worker_failures >= 1
        assert any("retrying" in w for w in report.warnings)

    def test_repeated_death_degrades_in_process(self, instance):
        formula, proof = instance
        shards = _shards(proof)
        install_fault(shards[0], deaths=2)
        report = verify_proof_v1(formula, proof, jobs=4,
                                 mode="incremental")
        assert report.ok
        assert report.num_checked == len(proof)
        assert any("degraded" in w for w in report.warnings)

    def test_verdict_matches_sequential_on_bad_proof(self, bad_instance):
        """Worker deaths on a shard above the failing one, retried or
        degraded to in-process checking, still report the sequential
        failure index — also with retiring incremental workers."""
        formula, proof = bad_instance
        sequential = verify_proof_v1(formula, proof, jobs=1)
        assert not sequential.ok
        shards = _shards(proof)
        assert shards[0][0] <= sequential.failed_clause_index \
            < shards[0][1] < shards[-1][0]
        for mode in ("rebuild", "incremental"):
            for deaths, path in ((0, None), (1, "retrying"),
                                 (2, "degraded")):
                clear_faults()
                if deaths:
                    install_fault(shards[-1], deaths=deaths)
                report = verify_proof_v1(formula, proof, jobs=4,
                                         mode=mode)
                assert not report.ok
                assert (report.failed_clause_index
                        == sequential.failed_clause_index), (mode, deaths)
                assert (report.worker_failures > 0) == (deaths > 0)
                if path is not None:
                    assert any(path in w for w in report.warnings)


class TestDegradedPlatform:
    def test_no_fork_substitutes_arena_over_spawn(self, instance,
                                                  monkeypatch):
        """A fork-less platform no longer degrades to sequential: the
        workers run the shared-memory arena engine across ``spawn``."""
        formula, proof = instance
        monkeypatch.delenv("REPRO_START_METHOD", raising=False)
        monkeypatch.setattr(parallel, "get_all_start_methods",
                            lambda: ["spawn"])
        report = verify_proof_v1(formula, proof, jobs=2)
        assert report.ok
        assert report.num_checked == len(proof)
        assert any("shared-memory arena engine" in w
                   for w in report.warnings)
        assert not any("unavailable" in w for w in report.warnings)

    def test_run_sharded_substitutes_arena_over_spawn(self, instance,
                                                      monkeypatch):
        from repro.bcp.watched import WatchedPropagator

        formula, proof = instance
        monkeypatch.delenv("REPRO_START_METHOD", raising=False)
        monkeypatch.setattr(parallel, "get_all_start_methods",
                            lambda: ["spawn"])
        run = run_sharded_v1(formula, proof, WatchedPropagator,
                             "backward", "incremental", 2)
        assert run.failed_index is None
        assert run.num_checked == len(proof)
        assert any("shared-memory arena engine" in w
                   for w in run.warnings)

    def test_no_start_method_degrades_sequential(self, instance,
                                                 monkeypatch):
        """Only a platform with *no* start method at all degrades to
        the in-process sequential fallback (with a loud warning)."""
        from repro.bcp.watched import WatchedPropagator

        formula, proof = instance
        monkeypatch.delenv("REPRO_START_METHOD", raising=False)
        monkeypatch.setattr(parallel, "get_all_start_methods",
                            lambda: [])
        run = run_sharded_v1(formula, proof, WatchedPropagator,
                             "backward", "incremental", 4)
        assert run.failed_index is None
        assert run.num_checked == len(proof)
        assert any("parallel backend unavailable" in w
                   for w in run.warnings)

    def test_forced_start_method_must_exist(self, instance, monkeypatch):
        from repro.bcp.watched import WatchedPropagator

        formula, proof = instance
        monkeypatch.setattr(parallel, "get_all_start_methods",
                            lambda: ["fork"])
        with pytest.raises(ValueError, match="not available"):
            run_sharded_v1(formula, proof, WatchedPropagator,
                           "backward", "incremental", 2,
                           start_method="spawn")


class TestParallelBudget:
    def test_deadline_yields_clean_partial_report(self, instance):
        formula, proof = instance
        report = verify_proof_v1(formula, proof, jobs=4,
                                 budget=CheckBudget(timeout=1e-6))
        assert report.outcome == RESOURCE_LIMIT_EXCEEDED
        assert not report.ok
        assert report.num_checked <= len(proof)
        assert report.failure_reason

    def test_props_budget_with_worker_death(self, instance):
        """Budget exhaustion and fault recovery compose: the run still
        ends in a well-formed partial report."""
        formula, proof = instance
        shards = _shards(proof)
        install_fault(shards[0], deaths=1)
        report = verify_proof_v1(formula, proof, jobs=4,
                                 budget=CheckBudget(max_props=50))
        assert report.outcome in (RESOURCE_LIMIT_EXCEEDED,
                                  "proof_is_correct")
        assert report.num_checked <= len(proof)


class TestTraceReplayUnderFaults:
    """Shard retry and in-process degradation must leave the merged
    trace duplicate- and orphan-free: exactly one shard span per shard
    bound in the reconstructed timeline."""

    def _timeline(self, formula, proof, jobs=4):
        import io

        from repro.obs import (
            MetricsRegistry,
            Obs,
            Tracer,
            build_timeline,
            read_jsonl,
            validate_trace,
        )
        obs = Obs(metrics=MetricsRegistry(), tracer=Tracer())
        report = verify_proof_v1(formula, proof, jobs=jobs,
                                 mode="incremental", obs=obs)
        buf = io.StringIO()
        obs.tracer.write_jsonl(buf)
        events = read_jsonl(io.StringIO(buf.getvalue()))
        assert validate_trace(events) == []
        return report, build_timeline(events)

    def _assert_one_span_per_shard(self, doc, expected_shards):
        shard_spans = [s for s in doc["spans"]
                       if s["name"] == "shard"]
        bounds = sorted((s["attrs"]["lo"], s["attrs"]["hi"])
                        for s in shard_spans)
        assert bounds == sorted(expected_shards)
        assert len(bounds) == len(set(bounds))
        assert doc["dropped"]["orphans"] == 0
        assert doc["dropped"]["open"] == 0
        # Every shard span sits on a worker lane with cost attrs.
        for span in shard_spans:
            assert span["worker"].startswith("worker-")
            assert span["attrs"]["checks"] == (span["attrs"]["hi"]
                                               - span["attrs"]["lo"])
            assert span["attrs"]["props"] >= 0

    def test_retried_shard_yields_single_span(self, instance):
        formula, proof = instance
        shards = _shards(proof)
        install_fault(shards[0], deaths=1)
        report, doc = self._timeline(formula, proof)
        assert report.ok
        assert report.worker_failures >= 1
        self._assert_one_span_per_shard(doc, shards)
        # Dedup happened at absorb time or merge time — either way
        # nothing duplicated survives and attribution is complete.
        assert len(doc["attribution"]["shards"]) == len(shards)
        assert doc["utilization"] is not None

    def test_degraded_shard_attempt_attr_and_single_span(
            self, instance):
        formula, proof = instance
        shards = _shards(proof)
        install_fault(shards[0], deaths=2)
        report, doc = self._timeline(formula, proof)
        assert report.ok
        assert any("degraded" in w for w in report.warnings)
        self._assert_one_span_per_shard(doc, shards)
        degraded = next(s for s in doc["spans"]
                        if s["name"] == "shard"
                        and tuple(s["attrs"]["shard"]) == shards[0])
        assert degraded["attrs"]["attempt"] == 2

    def test_clean_run_attempt_zero_everywhere(self, instance):
        formula, proof = instance
        shards = _shards(proof)
        report, doc = self._timeline(formula, proof)
        assert report.ok
        self._assert_one_span_per_shard(doc, shards)
        assert all(s["attrs"]["attempt"] == 0
                   for s in doc["spans"] if s["name"] == "shard")
        assert doc["dropped"]["duplicates"] == 0


class TestSpawnTraceRebasing:
    def test_spawn_run_yields_coherent_timeline(self, instance,
                                                monkeypatch):
        """Under ``REPRO_START_METHOD=spawn`` the workers rebase onto
        the parent's time axis (see ``repro.obs.spans.rebase_epoch``):
        shard spans must land *inside* the parent's pool span, carry
        the parent's trace id, and build a coherent timeline — the
        regression this guards is worker timestamps on an unrelated
        monotonic origin."""
        import multiprocessing

        from repro.obs import MetricsRegistry, Obs, Tracer, \
            build_timeline

        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no spawn start method")
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        formula, proof = instance
        obs = Obs(metrics=MetricsRegistry(), tracer=Tracer())
        report = verify_proof_v1(formula, proof, jobs=2,
                                 mode="incremental", obs=obs)
        assert report.ok
        assert all(e["trace"] == obs.tracer.trace_id
                   for e in obs.tracer.events)
        doc = build_timeline(obs.tracer.events)
        pool = next(s for s in doc["spans"] if s["name"] == "pool")
        shard_spans = [s for s in doc["spans"]
                       if s["name"] == "shard"]
        assert shard_spans
        slack = 2.0  # wall-anchor rebase is wall-read accurate
        for span in shard_spans:
            assert span["begin"] >= pool["begin"] - slack
            assert span["end"] <= pool["end"] + slack
        assert doc["utilization"] is not None
        assert doc["dropped"]["orphans"] == 0
