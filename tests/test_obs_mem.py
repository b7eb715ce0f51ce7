"""Tests for the memory telemetry layer (``repro.obs.mem``).

Covers procfs parsing and the getrusage fallback, gauge max-merge
associativity (the algebra the cross-worker peak-RSS aggregation
relies on), the memory fields of the trace's ``run_summary`` event,
sampler fault injection (a dying sampler must never touch the
verdict), live-view staleness, the timeline memory section, and the
peak-RSS regression gate.
"""

import pytest

from repro.obs import (
    MemSampler,
    MetricsRegistry,
    Obs,
    Tracer,
    build_timeline,
    check_regression,
    format_top_table,
    parse_proc_status,
    read_jsonl,
    read_rss,
    record_arena_gauges,
    render_timeline_text,
    reset_peak_rss,
    run_summary,
    validate_trace,
)
from repro.obs.mem import (
    MAX_CONSECUTIVE_FAILURES,
    MAX_SAMPLES,
    MemProfiler,
    arena_mem_stats,
)

PROC_STATUS = """\
Name:\trepro
Umask:\t0022
VmPeak:\t  123456 kB
VmSize:\t  100000 kB
VmHWM:\t   51200 kB
VmRSS:\t   40960 kB
Threads:\t1
"""


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_reader(rss=1000, peak=2000, source="proc"):
    def reader():
        return (rss, peak, source)
    return reader


# -- RSS sources -----------------------------------------------------------

class TestReadRss:
    def test_parse_proc_status(self):
        parsed = parse_proc_status(PROC_STATUS)
        assert parsed == {"rss_bytes": 40960 * 1024,
                          "peak_rss_bytes": 51200 * 1024}

    def test_parse_tolerates_junk(self):
        assert parse_proc_status("") == {}
        assert parse_proc_status("VmRSS:\n") == {}
        assert parse_proc_status("VmRSS:\tnot-a-number kB\n") == {}
        # A file with only the peak still yields the peak.
        assert parse_proc_status("VmHWM:\t10 kB\n") == {
            "peak_rss_bytes": 10 * 1024}

    def test_proc_source(self, tmp_path):
        status = tmp_path / "status"
        status.write_text(PROC_STATUS)
        reading = read_rss(proc_status_path=str(status))
        assert reading == (40960 * 1024, 51200 * 1024, "proc")

    def test_getrusage_fallback(self, tmp_path):
        reading = read_rss(
            proc_status_path=str(tmp_path / "does-not-exist"))
        assert reading is not None
        rss, peak, source = reading
        assert source == "getrusage"
        assert rss == peak > 0

    def test_total_failure_returns_none(self, tmp_path, monkeypatch):
        import resource

        def boom(who):
            raise OSError("injected")
        monkeypatch.setattr(resource, "getrusage", boom)
        assert read_rss(
            proc_status_path=str(tmp_path / "missing")) is None

    def test_reset_peak_rss_unsupported_path(self, tmp_path):
        assert reset_peak_rss(
            clear_refs_path=str(tmp_path / "no" / "clear_refs")) \
            is False


# -- gauge algebra ---------------------------------------------------------

class TestGaugeMaxMerge:
    """Cross-worker peak aggregation rests on max-merge being
    associative and commutative; pin it down."""

    def _registry_with(self, value):
        registry = MetricsRegistry()
        registry.gauge("repro_mem_peak_rss_bytes").set(value)
        return registry

    def test_merge_orders_agree(self):
        values = (300, 100, 200)
        left = self._registry_with(values[0])
        left.merge(self._registry_with(values[1]).snapshot())
        left.merge(self._registry_with(values[2]).snapshot())

        right = self._registry_with(values[2])
        right.merge(self._registry_with(values[0]).snapshot())
        right.merge(self._registry_with(values[1]).snapshot())

        entry_l = left.snapshot()["repro_mem_peak_rss_bytes"]
        entry_r = right.snapshot()["repro_mem_peak_rss_bytes"]
        assert entry_l["value"]["max"] == entry_r["value"]["max"] == 300

    def test_max_survives_lower_set(self):
        registry = self._registry_with(500)
        registry.gauge("repro_mem_peak_rss_bytes").set(50)
        entry = registry.snapshot()["repro_mem_peak_rss_bytes"]
        assert entry["value"]["value"] == 50
        assert entry["value"]["max"] == 500


# -- the sampler -----------------------------------------------------------

class TestMemSampler:
    def test_sample_publishes_everywhere(self):
        clock = FakeClock()
        metrics = MetricsRegistry()
        tracer = Tracer(run_id="r", clock=clock, epoch=0.0)
        sampler = MemSampler(metrics=metrics, tracer=tracer,
                             reader=make_reader(rss=1111, peak=2222),
                             wall=clock)
        with tracer.span("verify"):
            entry = sampler.sample()
        assert entry == {"ts": 0.0, "rss_bytes": 1111,
                         "peak_rss_bytes": 2222}
        assert sampler.peak_rss_bytes == 2222
        assert sampler.rss_bytes == 1111
        assert sampler.source == "proc"
        snap = metrics.snapshot()
        assert snap["repro_mem_rss_bytes"]["value"]["value"] == 1111
        assert snap["repro_mem_peak_rss_bytes"]["value"]["max"] == 2222
        events = [e for e in tracer.events if e["type"] == "event"]
        assert events and events[0]["name"] == "mem_sample"
        assert events[0]["attrs"]["rss_bytes"] == 1111

    def test_death_after_consecutive_failures(self):
        calls = []

        def failing_reader():
            calls.append(1)
            raise OSError("injected procfs failure")

        sampler = MemSampler(reader=failing_reader)
        for _ in range(MAX_CONSECUTIVE_FAILURES):
            assert sampler.sample() is None
        assert sampler.dead
        assert sampler.failures == MAX_CONSECUTIVE_FAILURES
        # Dead means quiet: no further reader calls.
        assert sampler.sample() is None
        assert len(calls) == MAX_CONSECUTIVE_FAILURES
        summary = sampler.summary()
        assert summary["sampler_dead"] is True
        assert summary["num_samples"] == 0

    def test_success_resets_failure_streak(self):
        readings = iter([None] * (MAX_CONSECUTIVE_FAILURES - 1)
                        + [(10, 20, "fake")] + [None] * 3)
        sampler = MemSampler(reader=lambda: next(readings))
        for _ in range(MAX_CONSECUTIVE_FAILURES + 3):
            sampler.sample()
        assert not sampler.dead

    def test_buffer_thinning_is_bounded(self):
        clock = FakeClock()
        sampler = MemSampler(reader=make_reader(), wall=clock)
        for i in range(MAX_SAMPLES + 1):
            clock.now = float(i)
            sampler.sample()
        assert len(sampler.samples) <= MAX_SAMPLES
        # Thinning keeps a roughly uniform trajectory, oldest first.
        ts = [s["ts"] for s in sampler.samples]
        assert ts == sorted(ts)
        assert sampler.summary()["num_samples"] == len(sampler.samples)

    def test_dead_sampler_never_affects_verdict(self):
        """Fault injection: an instrumented run whose sampler dies
        (unreadable RSS source) must verify exactly as if memory
        telemetry were absent."""
        from repro.benchgen.php import pigeonhole
        from repro.proofs.conflict_clause import ConflictClauseProof
        from repro.solver.cdcl import solve
        from repro.verify.verification import verify_proof_v1

        formula = pigeonhole(4)
        result = solve(formula)
        assert result.is_unsat
        proof = ConflictClauseProof.from_log(result.log)

        def failing_reader():
            raise OSError("injected")

        sampler = MemSampler(reader=failing_reader)
        obs = Obs(metrics=MetricsRegistry(), mem=sampler)
        sampler.sample()  # pre-run beat, already failing
        report = verify_proof_v1(formula, proof, obs=obs)
        sampler.sample()
        assert report.ok
        assert sampler.failures > 0
        # The run summary still reports the failing sampler.
        mem = run_summary(obs, "verify", report)["mem"]
        assert mem["sampler_failures"] == sampler.failures
        assert mem["peak_rss_bytes"] is None


# -- arena gauges ----------------------------------------------------------

class TestArenaStats:
    def test_arena_engine_reports(self):
        from repro.bcp.arena import ArenaPropagator
        from repro.core.literals import encode

        engine = ArenaPropagator(3)
        cid = engine.add_clause([encode(1), encode(2), encode(3)],
                                propagate_units=False)
        stats = arena_mem_stats(engine)
        assert stats is not None
        assert stats["pool_bytes"] > 0
        assert stats["live_clauses"] == 1
        # Two watched literals, each holding a (cid, blocker) pair.
        assert stats["watch_entries"] == 4
        assert stats["fragmentation"] == 0.0
        engine.remove_clause(cid)
        after = arena_mem_stats(engine)
        assert after["live_clauses"] == 0
        assert after["fragmentation"] > 0.0

    def test_non_arena_engine_is_none(self):
        from repro.bcp.watched import WatchedPropagator

        assert arena_mem_stats(WatchedPropagator(2)) is None


# -- the run summary -------------------------------------------------------

class TestMemArtifact:
    """The memory fields of the trace's closing ``run_summary``
    event: the sampler summary, the tracemalloc section, and the
    ``repro_mem_arena_*`` gauges in the metrics snapshot."""

    def _obs(self):
        clock = FakeClock()
        sampler = MemSampler(reader=make_reader(), wall=clock)
        obs = Obs(metrics=MetricsRegistry(), tracer=Tracer(),
                  mem=sampler)
        sampler.sample()
        clock.now = 1.0
        sampler.sample()
        return obs

    def _trace(self, obs, tmp_path):
        obs.event("run_summary", **run_summary(obs, "verify"))
        path = tmp_path / "trace.jsonl"
        obs.tracer.write_jsonl(str(path))
        return read_jsonl(str(path))

    def test_document_validates(self, tmp_path):
        from repro.bcp.arena import ArenaPropagator
        from repro.core.literals import encode

        engine = ArenaPropagator(2)
        engine.add_clause([encode(1), encode(2)],
                          propagate_units=False)
        obs = self._obs()
        record_arena_gauges(obs, engine)
        events = self._trace(obs, tmp_path)
        assert validate_trace(events) == []
        attrs = events[-1]["attrs"]
        assert attrs["mem"]["num_samples"] == 2
        assert attrs["mem"]["peak_rss_bytes"] == 2000
        assert attrs["mem"]["source"] == "proc"
        assert "tracemalloc" not in attrs["mem"]
        pool = attrs["metrics"]["repro_mem_arena_pool_bytes"]
        assert pool["value"]["max"] \
            == arena_mem_stats(engine)["pool_bytes"]
        # The samples themselves ride the trace as mem_sample events.
        assert [e["name"] for e in events].count("mem_sample") == 2

    def test_roundtrip_through_disk(self, tmp_path):
        obs = self._obs()
        obs.mem_profiler = MemProfiler()
        obs.mem_profiler.phases["checks"] = {"current_bytes": 1,
                                             "peak_bytes": 2}
        events = self._trace(obs, tmp_path)
        assert validate_trace(events) == []
        profile = events[-1]["attrs"]["mem"]["tracemalloc"]
        assert profile == {"phases": {"checks": {"current_bytes": 1,
                                                 "peak_bytes": 2}},
                           "top": []}

    def test_validator_rejects_garbage(self, tmp_path):
        events = self._trace(self._obs(), tmp_path)
        events[-1]["attrs"]["mem"] = [1, 2]
        assert any("mem must be null or an object" in p
                   for p in validate_trace(events))
        events[-1]["attrs"]["metrics"]["repro_mem_rss_bytes"] = {
            "kind": "gauge", "value": -1}
        assert any("gauge value" in p for p in validate_trace(events))


# -- live view -------------------------------------------------------------

class TestLiveMemStaleness:
    def _doc(self, mem, updated=1000.0):
        return {"run": "r1", "pid": 1, "state": "running",
                "updated": updated, "done": 1, "total": 2,
                "mem": mem}

    def test_fresh_mem_stays_running(self):
        table = format_top_table(
            [self._doc({"rss_bytes": 10, "peak_rss_bytes": 20,
                        "updated": 999.0})],
            now=1000.0, stale_after=10.0)
        assert "running" in table
        assert "stale" not in table

    def test_silent_sampler_marks_stale(self):
        """Progress still beats (updated is fresh) but the memory
        sampler went quiet long ago: the run shows as stale."""
        table = format_top_table(
            [self._doc({"rss_bytes": 10, "peak_rss_bytes": 20,
                        "updated": 900.0})],
            now=1000.0, stale_after=10.0)
        assert "stale" in table

    def test_no_mem_section_is_not_stale(self):
        table = format_top_table([self._doc(None)],
                                 now=1000.0, stale_after=10.0)
        assert "running" in table


# -- timeline memory lane --------------------------------------------------

class TestTimelineMemory:
    def _trace_with_samples(self):
        clock = FakeClock()
        tracer = Tracer(run_id="main", clock=clock, epoch=0.0)
        sampler = MemSampler(tracer=tracer, wall=clock,
                             reader=make_reader(rss=100, peak=150))
        with tracer.span("verify"):
            clock.now = 1.0
            sampler.sample()
            clock.now = 2.0
            sampler.sample()
            clock.now = 3.0
        return tracer.events

    def test_memory_section_built(self):
        doc = build_timeline(self._trace_with_samples())
        memory = doc["memory"]
        assert memory is not None
        assert [s["ts"] for s in memory["samples"]] == [1.0, 2.0]
        assert memory["peak_rss_bytes"] == 150

    def test_no_samples_no_section(self):
        clock = FakeClock()
        tracer = Tracer(run_id="main", clock=clock, epoch=0.0)
        with tracer.span("verify"):
            clock.now = 1.0
        doc = build_timeline(tracer.events)
        assert doc["memory"] is None
        # And the renderer skips the lane without complaint.
        assert "memory" not in render_timeline_text(doc)

    def test_shard_peaks_fold_into_run_peak(self):
        """Per-shard peak_rss end-attrs from pool workers raise the
        run-wide peak even when they exceed every parent sample."""
        clock = FakeClock()
        tracer = Tracer(run_id="main", clock=clock, epoch=0.0)
        sampler = MemSampler(tracer=tracer, wall=clock,
                             reader=make_reader(rss=100, peak=150))
        with tracer.span("verify"):
            with tracer.span("pool"):
                worker = Tracer(run_id="w", clock=clock, epoch=0.0)
                clock.now = 0.5
                with worker.span("shard", lo=0, hi=4, pid=7):
                    clock.now = 1.0
                worker.events[-1]["attrs"].update(
                    checks=4, wall=0.5, peak_rss=9000)
                tracer.replay(worker.events)
                clock.now = 1.5
                sampler.sample()
            clock.now = 2.0
        doc = build_timeline(tracer.events)
        assert doc["memory"]["peak_rss_bytes"] == 9000
        text = render_timeline_text(doc)
        assert "memory" in text
        assert "rss=" in text


# -- the regression gate ---------------------------------------------------

class TestPeakRssGate:
    def _fingerprint(self, peak):
        record = {"outcome": "correct", "wall_time": 1.0}
        if peak is not None:
            record["memory"] = {"peak_rss_bytes": peak}
        return record

    def test_growth_over_threshold_violates(self):
        violations = check_regression(
            self._fingerprint(100_000_000),
            self._fingerprint(140_000_000),
            max_peak_rss_growth_pct=25.0)
        assert len(violations) == 1
        assert "peak RSS regressed" in violations[0]

    def test_growth_under_threshold_passes(self):
        assert check_regression(
            self._fingerprint(100_000_000),
            self._fingerprint(110_000_000),
            max_peak_rss_growth_pct=25.0) == []

    @pytest.mark.parametrize("baseline_peak,current_peak",
                             [(None, 140_000_000),
                              (100_000_000, None),
                              (None, None)])
    def test_missing_memory_skips_gate(self, baseline_peak,
                                       current_peak):
        """An unmeasured run cannot be gated — either side missing
        the memory section skips the check instead of failing it."""
        assert check_regression(
            self._fingerprint(baseline_peak),
            self._fingerprint(current_peak),
            max_peak_rss_growth_pct=25.0) == []

    def test_gate_off_by_default(self):
        assert check_regression(
            self._fingerprint(100), self._fingerprint(100_000)) == []
