"""Tests for tracing spans, JSONL round-trips, progress, exporters."""

import io
import json
from types import SimpleNamespace

from repro.obs import (
    MetricsRegistry,
    Obs,
    ProgressReporter,
    Tracer,
    deterministic_view,
    read_jsonl,
    rebase_epoch,
    run_summary,
    stats_footer,
    validate_trace,
    worker_tracer,
)


# The report fields run_summary reads.
REPORT = SimpleNamespace(
    verification_time=0.5,
    stats=SimpleNamespace(as_dict=lambda: {"total_time": 0.5,
                                           "checks": 7}))


def summary_trace(registry: MetricsRegistry) -> list[dict]:
    """A written-and-reread trace closed by a ``run_summary`` event
    over ``registry``."""
    obs = Obs(metrics=registry, tracer=Tracer(run_id="r1"))
    with obs.span("verify"):
        pass
    obs.event("run_summary", **run_summary(obs, "verify", REPORT))
    buffer = io.StringIO()
    obs.tracer.write_jsonl(buffer)
    return read_jsonl(io.StringIO(buffer.getvalue()))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestTracer:
    def test_span_nesting_and_durations(self):
        clock = FakeClock()
        tracer = Tracer(run_id="r1", clock=clock)
        with tracer.span("verify"):
            clock.advance(1.0)
            with tracer.span("check", index=3):
                clock.advance(0.5)
        begin_verify, begin_check, end_check, end_verify = tracer.events
        assert begin_verify["parent"] is None
        assert begin_check["parent"] == begin_verify["span"]
        assert begin_check["attrs"] == {"index": 3}
        assert end_check["dur"] == 0.5
        assert end_verify["dur"] == 1.5

    def test_end_attrs_flow_through_yield(self):
        tracer = Tracer(run_id="r1")
        with tracer.span("shard") as end_attrs:
            end_attrs["checks"] = 42
        assert tracer.events[-1]["attrs"] == {"checks": 42}

    def test_instant_event_attaches_to_current_span(self):
        tracer = Tracer(run_id="r1")
        with tracer.span("verify"):
            tracer.event("budget_exhausted", reason="timeout")
        event = tracer.events[1]
        assert event["type"] == "event"
        assert event["span"] == tracer.events[0]["span"]
        assert event["attrs"] == {"reason": "timeout"}

    def test_replay_renumbers_and_tags(self):
        """Worker events adopt the parent's run id, fresh span ids,
        and the folded-in shard attribute."""
        clock = FakeClock()
        parent = Tracer(run_id="parent", clock=clock)
        worker = Tracer(run_id="worker", clock=clock,
                        epoch=parent.epoch)
        with worker.span("shard", lo=0, hi=5):
            clock.advance(0.1)
        with parent.span("pool"):
            parent.replay(worker.events, shard=[0, 5])
        replayed = [e for e in parent.events if e["name"] == "shard"]
        assert len(replayed) == 2
        for event in replayed:
            assert event["run"] == "parent"
            assert event["attrs"]["shard"] == [0, 5]
        # reparented under the parent's current span
        assert replayed[0]["parent"] == parent.events[0]["span"]

    def test_jsonl_round_trip_validates(self):
        clock = FakeClock()
        tracer = Tracer(run_id="r1", clock=clock)
        with tracer.span("verify", mode="incremental"):
            clock.advance(0.2)
            tracer.event("jobs_resolved", jobs=2)
        buffer = io.StringIO()
        tracer.write_jsonl(buffer)
        events = read_jsonl(io.StringIO(buffer.getvalue()))
        assert validate_trace(events) == []
        assert events[0]["schema"] == "repro.obs.trace/v1"
        assert [e["type"] for e in events[1:]] \
            == ["begin", "event", "end"]

    def test_write_jsonl_sorts_interleaved_replays(self):
        """Shard results arrive in completion order; the serialized
        log must still be time-ordered."""
        clock = FakeClock()
        parent = Tracer(run_id="p", clock=clock)
        early = Tracer(run_id="w1", clock=clock, epoch=parent.epoch)
        clock.advance(1.0)
        late = Tracer(run_id="w2", clock=clock, epoch=parent.epoch)
        with late.span("shard"):
            clock.advance(0.1)
        clock.now = 0.0
        with early.span("shard"):
            clock.advance(0.1)
        clock.now = 2.0
        parent.replay(late.events)
        parent.replay(early.events)  # out of time order
        buffer = io.StringIO()
        parent.write_jsonl(buffer)
        events = read_jsonl(io.StringIO(buffer.getvalue()))
        assert validate_trace(events) == []

    def test_validator_flags_problems(self):
        assert validate_trace([]) != []
        bad = [{"ts": 0.0, "run": "r", "type": "header",
                "schema": "repro.obs.trace/v1", "name": "trace",
                "attrs": {}},
               {"ts": 1.0, "run": "r", "type": "begin", "span": 1,
                "parent": None, "name": "verify", "attrs": {}}]
        problems = validate_trace(bad)
        assert any("never ended" in p for p in problems)


class TestProgress:
    def test_throttles_then_finishes(self):
        clock = FakeClock()
        stream = io.StringIO()
        progress = ProgressReporter(10, stream=stream, interval=1.0,
                                    clock=clock)
        progress.update(1)
        progress.update(2)          # throttled: same instant
        clock.advance(1.5)
        progress.update(5)
        progress.finish(10)         # never throttled
        lines = stream.getvalue().splitlines()
        assert progress.lines_emitted == 3
        assert lines[0] == "c progress: 1/10 checks, 0.0s elapsed"
        assert "eta" in lines[1]
        assert lines[-1].startswith("c progress: 10/10 checks")
        assert "eta" not in lines[-1]

    def test_eta_is_linear_extrapolation(self):
        clock = FakeClock()
        stream = io.StringIO()
        progress = ProgressReporter(100, stream=stream, interval=0,
                                    clock=clock)
        clock.advance(2.0)
        progress.update(50)
        assert stream.getvalue().rstrip().endswith("eta 2s")


class TestExport:
    def _trace(self):
        registry = MetricsRegistry()
        registry.counter("repro_verify_checks_total", help="checks").inc(7)
        registry.gauge("repro_verify_jobs").set(1)
        registry.histogram("repro_check_seconds",
                           buckets=(0.1, 1.0)).observe(0.05)
        return summary_trace(registry)

    def test_document_validates(self):
        events = self._trace()
        assert validate_trace(events) == []
        summary = events[-1]
        assert summary["type"] == "event"
        assert summary["name"] == "run_summary"
        attrs = summary["attrs"]
        assert attrs["command"] == "verify"
        assert attrs["elapsed"] == 0.5
        assert attrs["interrupted"] is False
        assert attrs["stats"] == {"total_time": 0.5, "checks": 7}
        assert attrs["metrics"]["repro_verify_checks_total"]["value"] == 7

    def test_document_json_round_trip(self):
        events = self._trace()
        again = json.loads(json.dumps(events))
        assert validate_trace(again) == []
        assert again == events

    def test_validator_flags_problems(self):
        events = self._trace()
        metrics = events[-1]["attrs"]["metrics"]
        metrics["repro_verify_checks_total"]["value"] = -1
        metrics["repro_check_seconds"]["value"]["count"] = 5
        problems = validate_trace(events)
        assert any("non-negative" in p for p in problems)
        assert any("sum to count" in p for p in problems)
        events[-1]["attrs"]["metrics"] = "nope"
        assert any("snapshot" in p for p in validate_trace(events))
        # The summary closes the trace: nothing may follow it.
        events = self._trace()
        events.insert(-1, dict(events[-1]))
        assert any("last event" in p for p in validate_trace(events))

    def test_stats_footer_lines(self):
        lines = stats_footer(
            {"total_time": 2.0, "phase_times": {"setup": 0.5,
                                                "checks": 1.5},
             "checks": 100, "props": 5000,
             "slowest_checks": [[17, 0.25]]},
            {"assignments": 10})
        assert lines[0] == "c stats: total=2.000s " \
            "(setup=0.500s checks=1.500s)"
        assert "checks=100 props=5000 checks_per_sec=50" in lines[1]
        assert "#17=250.0ms" in lines[2]
        assert lines[3] == "c stats: bcp assignments=10"
        assert stats_footer(None, None) == []


class TestDeterministicView:
    def test_strips_time_and_run(self):
        registry = MetricsRegistry()
        registry.counter("repro_verify_checks_total").inc(5)
        registry.histogram("repro_check_seconds").observe(0.1)
        registry.gauge("repro_verify_jobs").set(1)
        registry.gauge("repro_mem_rss_bytes").set(1 << 20)
        view = deterministic_view(summary_trace(registry)[-1])
        assert set(view) == {"metrics"}
        assert "repro_check_seconds" not in view["metrics"]
        assert "repro_mem_rss_bytes" not in view["metrics"]
        assert "repro_verify_checks_total" in view["metrics"]
        # sequential runs keep the scheduling-dependent metrics
        registry.counter("repro_bcp_assignments_total").inc(9)
        view = deterministic_view(summary_trace(registry)[-1])
        assert "repro_bcp_assignments_total" in view["metrics"]

    def test_parallel_strips_scheduling_dependent(self):
        registry = MetricsRegistry()
        registry.gauge("repro_verify_jobs").set(4)
        registry.counter("repro_bcp_assignments_total").inc(9)
        registry.counter("repro_verify_checks_total").inc(5)
        registry.histogram("repro_check_work",
                           buckets=(10, 100)).observe(50)
        view = deterministic_view(summary_trace(registry)[-1])
        assert "repro_bcp_assignments_total" not in view["metrics"]
        assert "repro_check_work" not in view["metrics"]
        assert "repro_verify_checks_total" in view["metrics"]


class TestTraceContext:
    def test_every_event_carries_the_trace_id(self):
        tracer = Tracer(run_id="r1", trace_id="f" * 32)
        with tracer.span("verify"):
            tracer.event("beat")
        buf = io.StringIO()
        tracer.write_jsonl(buf)
        records = read_jsonl(io.StringIO(buf.getvalue()))
        assert records[0]["type"] == "header"
        assert all(r["trace"] == "f" * 32 for r in records)

    def test_trace_id_is_generated_and_unique(self):
        a, b = Tracer(run_id="r1"), Tracer(run_id="r2")
        assert len(a.trace_id) == 32
        assert int(a.trace_id, 16) >= 0
        assert a.trace_id != b.trace_id

    def test_replay_overrides_worker_trace_id(self):
        parent = Tracer(run_id="p", trace_id="a" * 32)
        worker = Tracer(run_id="w", trace_id="b" * 32)
        with worker.span("shard", lo=0, hi=1):
            pass
        parent.replay(worker.events, shard=[0, 1])
        assert all(e["trace"] == "a" * 32 for e in parent.events)

    def test_validate_trace_rejects_mixed_trace_ids(self):
        tracer = Tracer(run_id="r1")
        with tracer.span("verify"):
            pass
        buf = io.StringIO()
        tracer.write_jsonl(buf)
        events = read_jsonl(io.StringIO(buf.getvalue()))
        events[-1]["trace"] = "0" * 32
        assert any("trace" in p for p in validate_trace(events))
        # Legacy traces without trace ids stay valid.
        for event in events:
            del event["trace"]
        assert validate_trace(events) == []


class TestRebaseEpoch:
    def test_shared_monotonic_clock_reuses_parent_epoch(self):
        """Fork (or any shared system clock): drift is ~0, so the
        parent epoch is reused verbatim."""
        clock = FakeClock()
        wall = FakeClock()
        wall.now = 1000.0
        clock.now = 5.0
        epoch, epoch_wall = 2.0, 997.0  # anchored 3s ago
        assert rebase_epoch(epoch, epoch_wall, clock=clock,
                            wall=wall) == 2.0

    def test_unrelated_clock_rebases_onto_wall_anchor(self):
        """Spawn onto a restarted monotonic clock: the local epoch is
        derived from the wall anchor so worker timestamps land on the
        parent axis."""
        clock = FakeClock()
        wall = FakeClock()
        wall.now = 1000.0
        clock.now = 0.25  # fresh clock, parent's epoch means nothing
        epoch, epoch_wall = 500.0, 997.0
        rebased = rebase_epoch(epoch, epoch_wall, clock=clock,
                               wall=wall)
        assert rebased == 0.25 - 3.0
        # A timestamp taken now lands 3s after the parent anchor.
        assert clock.now - rebased == 3.0

    def test_none_inputs_degrade_gracefully(self):
        assert rebase_epoch(None, None) is None
        assert rebase_epoch(None, 123.0) is None
        assert rebase_epoch(7.0, None) == 7.0

    def test_worker_tracer_stamps_parent_identity(self):
        clock = FakeClock()
        wall = FakeClock()
        wall.now = 1000.0
        parent = Tracer(run_id="p", clock=clock, wall=wall)
        clock.now = 2.0
        wall.now = 1002.0
        worker = worker_tracer(run_id=parent.run_id,
                               epoch=parent.epoch,
                               epoch_wall=parent.epoch_wall,
                               trace_id=parent.trace_id,
                               clock=clock, wall=wall)
        assert worker.run_id == "p"
        assert worker.trace_id == parent.trace_id
        assert worker.epoch == parent.epoch
        with worker.span("shard", lo=0, hi=1):
            clock.now = 3.0
        assert worker.events[0]["ts"] == 2.0  # parent axis
