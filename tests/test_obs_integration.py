"""Integration tests: instrumentation threaded through verification.

Covers the observability acceptance contract: deterministic
``run_summary`` metrics across configurations, worker-metric aggregation for
parallel runs, the ``REPRO_JOBS`` override, and — most load-bearing —
the guard asserting the disabled path (``obs=None``) never touches the
metrics registry or tracer at all.
"""

import io
import os

import pytest

from repro.obs import (
    MetricsRegistry,
    Obs,
    Tracer,
    deterministic_view,
    read_jsonl,
    run_summary,
    validate_trace,
)
from repro.proofs.conflict_clause import ConflictClauseProof
from repro.solver.cdcl import solve
from repro.verify.forward import check_drup
from repro.verify.parallel import default_jobs
from repro.verify.verification import (
    verify_proof_v1,
    verify_proof_v2,
)


def proof_of(formula):
    result = solve(formula)
    assert result.is_unsat
    return ConflictClauseProof.from_log(result.log)


@pytest.fixture(scope="module")
def unsat_instance():
    """A nontrivial UNSAT formula + proof shared by this module."""
    from repro.benchgen.php import pigeonhole

    formula = pigeonhole(5)
    return formula, proof_of(formula)


class TestNoOpGuard:
    """obs=None (the default) must never enter the obs package."""

    @pytest.fixture
    def poisoned_obs(self, monkeypatch):
        def forbid(name):
            def boom(*args, **kwargs):
                raise AssertionError(
                    f"disabled path called {name} — the obs=None fast "
                    "path must never touch the observability layer")
            return boom

        monkeypatch.setattr(MetricsRegistry, "_get_or_create",
                            forbid("MetricsRegistry._get_or_create"))
        monkeypatch.setattr(Tracer, "span", forbid("Tracer.span"))
        monkeypatch.setattr(Tracer, "event", forbid("Tracer.event"))
        monkeypatch.setattr(Obs, "__init__", forbid("Obs()"))

    def test_v1_disabled_path(self, poisoned_obs, unsat_instance):
        formula, proof = unsat_instance
        for mode in ("rebuild", "incremental"):
            assert verify_proof_v1(formula, proof, mode=mode).ok

    def test_v2_disabled_path(self, poisoned_obs, unsat_instance):
        formula, proof = unsat_instance
        report = verify_proof_v2(formula, proof, mode="incremental")
        assert report.ok
        assert report.stats is not None  # stats stay on, registry off

    def test_drup_disabled_path(self, poisoned_obs):
        from repro.core.formula import CnfFormula
        from repro.proofs.drup import DrupProof

        formula = CnfFormula([[1, 2], [1, -2], [-1, 2], [-1, -2]])
        result = solve(formula)
        assert result.is_unsat
        assert check_drup(formula, DrupProof.from_log(result.log)).ok


class TestStatsAlwaysOn:
    """Phase timing is cheap enough to run without obs attached."""

    def test_v1_report_has_stats(self, unsat_instance):
        formula, proof = unsat_instance
        report = verify_proof_v1(formula, proof)
        stats = report.stats
        assert stats is not None
        assert stats.checks == report.num_checked
        assert set(stats.phase_times) >= {"setup", "checks"}
        assert stats.total_time >= sum(stats.phase_times.values()) * 0.5
        assert stats.slowest_checks == ()  # per-check timing needs obs

    def test_slowest_checks_need_obs(self, unsat_instance):
        formula, proof = unsat_instance
        obs = Obs(metrics=MetricsRegistry())
        report = verify_proof_v1(formula, proof, obs=obs)
        slowest = report.stats.slowest_checks
        assert 0 < len(slowest) <= 5
        assert all(0 <= index < len(proof) for index, _ in slowest)
        times = [seconds for _, seconds in slowest]
        assert times == sorted(times, reverse=True)


class TestInstrumentedRuns:
    def _run(self, formula, proof, **kwargs):
        obs = Obs(metrics=MetricsRegistry(), tracer=Tracer())
        report = verify_proof_v1(formula, proof, obs=obs, **kwargs)
        assert report.ok
        obs.event("run_summary", **run_summary(obs, "test", report))
        buffer = io.StringIO()
        obs.tracer.write_jsonl(buffer)
        events = read_jsonl(io.StringIO(buffer.getvalue()))
        assert validate_trace(events) == []
        return report, events[-1], obs

    def test_sequential_metrics_complete(self, unsat_instance):
        formula, proof = unsat_instance
        report, summary, obs = self._run(formula, proof,
                                         mode="incremental")
        metrics = summary["attrs"]["metrics"]
        assert metrics["repro_verify_checks_total"]["value"] \
            == report.num_checked
        hist = metrics["repro_check_seconds"]["value"]
        assert hist["count"] == report.num_checked
        assert metrics["repro_bcp_assignments_total"]["value"] \
            == report.bcp_counters["assignments"]
        assert "repro_checker_root_builds_total" in metrics
        buffer = io.StringIO()
        obs.tracer.write_jsonl(buffer)
        events = read_jsonl(io.StringIO(buffer.getvalue()))
        assert validate_trace(events) == []
        check_spans = [e for e in events
                       if e["name"] == "check" and e["type"] == "begin"]
        assert len(check_spans) == report.num_checked

    def test_v2_marked_ratio(self, unsat_instance):
        formula, proof = unsat_instance
        obs = Obs(metrics=MetricsRegistry())
        report = verify_proof_v2(formula, proof, obs=obs)
        assert report.ok
        snap = obs.metrics.snapshot()
        ratio = snap["repro_verify_marked_ratio"]["value"]["value"]
        assert ratio == pytest.approx(report.num_checked / len(proof))
        assert snap["repro_verify_checks_skipped_total"]["value"] \
            == report.num_skipped

    @pytest.mark.parametrize("kwargs", [
        {"order": "backward", "mode": "rebuild"},
        {"order": "backward", "mode": "incremental"},
        {"order": "forward", "mode": "rebuild"},
        {"jobs": 2, "mode": "incremental"},
    ])
    def test_metrics_deterministic_across_reruns(self, unsat_instance,
                                                 kwargs):
        """Rerunning one configuration yields an identical
        deterministic view — the run_summary stability contract."""
        formula, proof = unsat_instance
        _, doc_one, _ = self._run(formula, proof, **kwargs)
        _, doc_two, _ = self._run(formula, proof, **kwargs)
        assert deterministic_view(doc_one) == deterministic_view(doc_two)

    def test_sequential_configs_agree_on_check_totals(self,
                                                      unsat_instance):
        """Order and mode change scheduling-independent metrics not at
        all: same checks_total either way."""
        formula, proof = unsat_instance
        _, backward, _ = self._run(formula, proof, order="backward",
                                   mode="incremental")
        _, forward, _ = self._run(formula, proof, order="forward",
                                  mode="incremental")
        key = "repro_verify_checks_total"
        assert backward["attrs"]["metrics"][key] \
            == forward["attrs"]["metrics"][key]


@pytest.mark.skipif("fork" not in
                    __import__("multiprocessing").get_all_start_methods(),
                    reason="parallel backend needs fork")
class TestParallelAggregation:
    def test_worker_metrics_merge_into_parent(self, unsat_instance):
        formula, proof = unsat_instance
        obs = Obs(metrics=MetricsRegistry(), tracer=Tracer())
        report = verify_proof_v1(formula, proof, mode="incremental",
                                 jobs=2, obs=obs)
        assert report.ok
        snap = obs.metrics.snapshot()
        # Per-check observations made inside workers reach the parent.
        assert snap["repro_check_seconds"]["value"]["count"] \
            == report.num_checked
        assert snap["repro_verify_checks_total"]["value"] \
            == report.num_checked
        assert snap["repro_parallel_shards_total"]["value"] > 0
        # Healthy run: failure counters present and zero ("measured,
        # none" — not absent).
        assert snap["repro_parallel_worker_failures_total"]["value"] == 0
        assert snap["repro_parallel_retries_total"]["value"] == 0
        # BCP totals come from the fold of worker counter deltas; they
        # must match the report exactly (no double counting).
        assert snap["repro_bcp_assignments_total"]["value"] \
            == report.bcp_counters["assignments"]

    def test_worker_spans_replayed_with_shard_attr(self, unsat_instance):
        formula, proof = unsat_instance
        obs = Obs(metrics=MetricsRegistry(), tracer=Tracer())
        assert verify_proof_v1(formula, proof, jobs=2, obs=obs).ok
        shard_spans = [e for e in obs.tracer.events
                       if e["name"] == "shard" and e["type"] == "begin"]
        assert shard_spans
        assert all("shard" in e["attrs"] for e in shard_spans)
        buffer = io.StringIO()
        obs.tracer.write_jsonl(buffer)
        assert validate_trace(
            read_jsonl(io.StringIO(buffer.getvalue()))) == []


class TestReproJobsOverride:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3

    def test_bad_values_rejected(self, monkeypatch):
        for bad in ("zero", "0", "-2", "1.5"):
            monkeypatch.setenv("REPRO_JOBS", bad)
            with pytest.raises(ValueError, match="REPRO_JOBS"):
                default_jobs()

    def test_unset_uses_cpu_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() >= 1

    def test_resolution_recorded(self, monkeypatch, unsat_instance):
        monkeypatch.setenv("REPRO_JOBS", "1")
        formula, proof = unsat_instance
        obs = Obs(metrics=MetricsRegistry(), tracer=Tracer())
        assert verify_proof_v1(formula, proof, jobs=None, obs=obs).ok
        snap = obs.metrics.snapshot()
        assert snap["repro_verify_jobs"]["value"]["value"] == 1
        resolved = [e for e in obs.tracer.events
                    if e["name"] == "jobs_resolved"]
        assert resolved
        assert resolved[0]["attrs"] == {"jobs": 1,
                                        "source": "env:REPRO_JOBS"}


class TestProgressIntegration:
    def test_progress_lines_on_stream(self, unsat_instance):
        formula, proof = unsat_instance
        stream = io.StringIO()
        obs = Obs(progress_stream=stream, progress_interval=0)
        report = verify_proof_v1(formula, proof, obs=obs)
        assert report.ok
        lines = stream.getvalue().splitlines()
        assert lines
        assert all(line.startswith("c progress: ") for line in lines)
        assert lines[-1].startswith(
            f"c progress: {report.num_checked}/{len(proof)} checks")
