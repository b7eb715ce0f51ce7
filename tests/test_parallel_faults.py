"""Fault tolerance of the parallel verification1 backend.

Worker death (simulated with a hard ``os._exit``, as an OOM kill would
look, or a real ``SIGKILL``) and a failing ``os.fork`` must never wedge
a run or change its verdict: lost shards are retried once on a fresh
pool, then fall back to in-process sequential checking, each step
leaving a trace in the report's ``warnings`` / ``worker_failures``.
"""

import errno
import os
import signal
import subprocess
import sys

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


class _ForkFailsOnCall:
    """``os.fork`` that raises ``OSError`` on its ``n``-th call, as it
    does when the system is out of processes."""

    def __init__(self, n: int):
        self.n = n
        self.calls = 0
        self.fork = os.fork

    def __call__(self):
        self.calls += 1
        if self.calls == self.n:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return self.fork()


def _run_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with this checkout's
    ``repro`` on the path and block-buffered stdout."""
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


# A fresh interpreter's php5 instance, as the ``instance`` fixture
# builds it.
_PHP5 = """
from repro.benchgen.registry import pigeonhole
from repro.proofs.conflict_clause import ConflictClauseProof
from repro.solver.cdcl import solve
from repro.verify import parallel
from repro.verify.verification import verify_proof_v1
formula = pigeonhole(5)
proof = ConflictClauseProof.from_log(
    solve(formula, reduce_base=20, reduce_growth=10).log)
"""


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

    @pytest.mark.parametrize("fixture", ["instance", "bad_instance"])
    def test_pool_broken_during_submission(self, fixture, request,
                                           monkeypatch):
        """An ``os.fork`` that raises ``OSError`` while the pool starts
        is a worker failure too: the shard that worker was to run goes
        to the retry rung, and the workers already started go on."""
        formula, proof = request.getfixturevalue(fixture)
        sequential = verify_proof_v1(formula, proof, jobs=1)
        monkeypatch.setattr(os, "fork", _ForkFailsOnCall(2))
        report = verify_proof_v1(formula, proof, jobs=4)
        assert report.ok == sequential.ok
        assert (report.failed_clause_index
                == sequential.failed_clause_index)
        assert report.worker_failures >= 1
        assert any("retrying" in w for w in report.warnings)

    @pytest.mark.parametrize("fixture", ["instance", "bad_instance"])
    def test_sigkilled_worker_keeps_sequential_verdict(
            self, fixture, request, monkeypatch):
        """A worker killed with ``SIGKILL`` halfway through a shard
        costs that shard's execution only: the verdict and the failure
        index are those of a sequential run."""
        formula, proof = request.getfixturevalue(fixture)
        sequential = verify_proof_v1(formula, proof, jobs=1)
        target = _shards(proof)[-2]
        run_shard = parallel._run_shard

        def killed_midway(checker, shard, spec, attempt):
            if shard == target and attempt == 0:
                lo, hi = shard
                run_shard(checker, ((lo + hi) // 2, hi), spec, attempt)
                os.kill(os.getpid(), signal.SIGKILL)
            return run_shard(checker, shard, spec, attempt)

        # Forked workers inherit the patched module.
        monkeypatch.setattr(parallel, "_run_shard", killed_midway)
        report = verify_proof_v1(formula, proof, jobs=4)
        assert report.ok == sequential.ok
        assert (report.failed_clause_index
                == sequential.failed_clause_index)
        assert report.worker_failures == 1
        assert any("retrying 1 shard(s)" in w for w in report.warnings)

    def test_forked_workers_repeat_no_buffered_stdout(self):
        """Output the parent buffered before the pool forked is written
        once: workers leave through ``os._exit`` and flush nothing."""
        result = _run_python(_PHP5 + """
print("before the pool")
report = verify_proof_v1(formula, proof, jobs=4)
print("after the pool", report.ok)
""")
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["before the pool",
                                              "after the pool True"]
        assert result.stderr == ""


class TestDegradedPlatform:
    """Where ``os.fork`` is missing there is no pool: the run checks in
    one process and says so in one report warning."""

    NO_FORK = "os.fork is unavailable; checked in one process"

    @pytest.mark.parametrize("fixture", ["instance", "bad_instance"])
    def test_no_fork_matches_sequential(self, fixture, request,
                                        monkeypatch):
        formula, proof = request.getfixturevalue(fixture)
        sequential = verify_proof_v1(formula, proof, jobs=1)
        monkeypatch.delattr(os, "fork")
        report = verify_proof_v1(formula, proof, jobs=2)
        assert report.outcome == sequential.outcome
        assert (report.failed_clause_index
                == sequential.failed_clause_index)
        assert report.num_checked == sequential.num_checked

    def test_no_fork_report_says_one_process(self, instance, monkeypatch):
        formula, proof = instance
        monkeypatch.delattr(os, "fork")
        report = verify_proof_v1(formula, proof, "counting", jobs=2)
        assert report.ok
        assert report.jobs == 1
        assert report.engine == "counting"
        assert report.warnings == (self.NO_FORK,)
        assert report.worker_failures == 0

    @pytest.mark.parametrize("fixture,code", [("instance", 0),
                                              ("bad_instance", 1)])
    def test_no_fork_cli_warns_and_keeps_exit_code(
            self, fixture, code, request, monkeypatch, tmp_path, capsys):
        from repro.cli import main
        from repro.core.dimacs import write_dimacs
        from repro.proofs.trace_format import write_proof

        formula, proof = request.getfixturevalue(fixture)
        cnf, ccp = tmp_path / "f.cnf", tmp_path / "f.ccp"
        write_dimacs(formula, cnf)
        write_proof(proof, ccp)
        argv = ["verify", str(cnf), str(ccp),
                "--procedure", "verification1", "--jobs", "2"]
        monkeypatch.delattr(os, "fork")
        assert main(argv) == code
        out = capsys.readouterr().out
        assert f"c warning: {self.NO_FORK}\n" in out
        assert out.count("c warning:") == 1
        assert " jobs=1" in out


class TestParallelBudget:
    def test_deadline_yields_clean_partial_report(self, instance):
        formula, proof = instance
        report = verify_proof_v1(formula, proof, jobs=4,
                                 budget=CheckBudget(timeout=1e-6))
        assert report.outcome == RESOURCE_LIMIT_EXCEEDED
        assert not report.ok
        assert report.num_checked <= len(proof)
        assert report.failure_reason
        # No worker died, so the deadline starts no retry rung.
        assert report.worker_failures == 0
        assert report.warnings == ()

    def test_deadline_kills_and_reaps_a_stalled_worker(self):
        """A worker stalled past the deadline does not hold the report
        back: the parent kills it at the deadline, reaps every worker
        it forked, and starts no retry."""
        result = _run_python(_PHP5 + """
import os
import time
from repro.verify import CheckBudget
stall = parallel.make_shards(len(proof), 2)[-1]
run_shard = parallel._run_shard
def stalled(checker, shard, spec, attempt):
    if shard == stall:
        time.sleep(60)
    return run_shard(checker, shard, spec, attempt)
parallel._run_shard = stalled
start = time.monotonic()
report = verify_proof_v1(formula, proof, jobs=2,
                         budget=CheckBudget(timeout=2.0))
elapsed = time.monotonic() - start
try:
    os.waitpid(-1, os.WNOHANG)
    unreaped = "a child is left"
except ChildProcessError:
    unreaped = "no child"
print(report.outcome, report.worker_failures, report.warnings, unreaped)
print(report.failure_reason)
print(elapsed)
""")
        assert result.returncode == 0, result.stderr
        summary, reason, elapsed = result.stdout.splitlines()
        assert summary == "resource_limit_exceeded 0 () no child"
        assert reason == ("wall-clock budget exhausted before 1 shard(s) "
                          "ran")
        assert float(elapsed) < 3.0

    def test_reduce_with_no_finished_shard(self):
        """A deadline that passes before any shard result arrives still
        reduces to every counter at 0, the fields of a sequential
        run's ``PropagationCounters``."""
        from repro.bcp.engine import PropagationCounters

        reduced = parallel._reduce({}, 3, 0, [])
        assert reduced.counters == PropagationCounters().as_dict()
        assert list(reduced.counters) == ["assignments", "watch_visits",
                                          "clause_visits", "purged",
                                          "detach_misses"]
        assert reduced.num_checked == 0
        assert reduced.budget_reason == ("wall-clock budget exhausted "
                                         "before 3 shard(s) ran")

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
        # The lost attempt shipped nothing back, so attribution has
        # one row per shard.
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
        assert doc["dropped"] == {"orphans": 0, "open": 0}


class TestForkTraceCoherence:
    def test_fork_run_yields_coherent_timeline(self, instance):
        """Forked workers stamp their spans on the parent's monotonic
        clock: shard spans land inside the parent's pool span, carry
        the parent's trace id, and build a timeline with no orphan."""
        from repro.obs import MetricsRegistry, Obs, Tracer, \
            build_timeline

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
        for span in shard_spans:
            assert pool["begin"] <= span["begin"] <= span["end"] \
                <= pool["end"]
        assert doc["utilization"] is not None
        assert doc["dropped"]["orphans"] == 0
