"""Tests for timeline reconstruction and the live operational view."""

import io
import json

from repro.obs import (
    LIVE_SCHEMA,
    LiveStatusWriter,
    ProgressReporter,
    Tracer,
    attribution_summary,
    build_timeline,
    format_top_table,
    read_live_statuses,
    render_timeline_html,
    render_timeline_text,
    validate_live,
)
from repro.obs.live import all_settled
from repro.obs.timeline import _critical_path  # noqa: F401 (API smoke)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _worker_events(clock, epoch, lo, hi, begin, end, pid,
                   attempt=0, checks=1, props=10, clause_visits=5,
                   with_check_child=False):
    """Record one worker-side shard span exactly the way
    ``repro.verify.parallel._run_shard`` does: lo/hi/pid/attempt on
    the begin, cost counters folded into the end attrs."""
    worker = Tracer(run_id="w", clock=clock, epoch=epoch)
    clock.now = begin
    with worker.span("shard", lo=lo, hi=hi, pid=pid,
                     attempt=attempt):
        if with_check_child:
            clock.now = begin + 0.1
            with worker.span("check", index=lo):
                clock.now = begin + 0.2
        clock.now = end
    worker.events[-1]["attrs"].update(
        checks=checks, wall=end - begin, props=props,
        clause_visits=clause_visits)
    return worker.events


def make_parallel_trace(retry=False):
    """A synthetic two-worker pool run with exact timestamps.

    Layout (seconds on the shared clock):

    * main: ``verify`` 0..10 wrapping ``pool`` 0.5..9.5
    * worker 101: ``shard[0:10]`` 1..4, ``shard[20:30]`` 5..9
    * worker 202: ``shard[10:20]`` 1..6

    With ``retry=True`` worker 202's shard also has a losing
    attempt-0 run at 1..2 (with a child check span) that the
    timeline must drop.
    """
    clock = FakeClock()
    parent = Tracer(run_id="r1", clock=clock, trace_id="ab" * 16)
    with parent.span("verify"):
        clock.now = 0.5
        with parent.span("pool", jobs=2):
            shards = []
            if retry:
                shards.append(_worker_events(
                    clock, parent.epoch, 10, 20, 1.0, 2.0, pid=202,
                    attempt=0, props=1, with_check_child=True))
            shards.append(_worker_events(
                clock, parent.epoch, 0, 10, 1.0, 4.0, pid=101,
                checks=10, props=40))
            shards.append(_worker_events(
                clock, parent.epoch, 10, 20, 1.0, 6.0, pid=202,
                attempt=1 if retry else 0, checks=10, props=60))
            shards.append(_worker_events(
                clock, parent.epoch, 20, 30, 5.0, 9.0, pid=101,
                checks=10, props=80))
            for events in shards:
                lo = events[0]["attrs"]["lo"]
                hi = events[0]["attrs"]["hi"]
                parent.replay(events, shard=[lo, hi])
            clock.now = 9.5
        clock.now = 10.0
    return parent


class TestBuildTimeline:
    def test_window_lanes_and_span_keys(self):
        doc = build_timeline(make_parallel_trace().events)
        assert doc["run"] == "r1"
        assert doc["trace"] == "ab" * 16
        assert doc["window"] == {"begin": 0.0, "end": 10.0,
                                 "wall": 10.0}
        keys = {s["key"] for s in doc["spans"]}
        assert keys == {"verify", "pool", "shard[0:10]",
                        "shard[10:20]", "shard[20:30]"}
        lane = {s["key"]: s["worker"] for s in doc["spans"]}
        assert lane["verify"] == lane["pool"] == "main"
        assert lane["shard[0:10]"] == "worker-101"
        assert lane["shard[20:30]"] == "worker-101"
        assert lane["shard[10:20]"] == "worker-202"
        assert doc["dropped"] == {"duplicates": 0, "orphans": 0,
                                  "open": 0}

    def test_utilization_and_idle_gaps(self):
        doc = build_timeline(make_parallel_trace().events)
        rows = {r["worker"]: r for r in doc["workers"]}
        # Worker window is 1..9 (first worker begin to last end).
        w101 = rows["worker-101"]
        assert w101["busy"] == 7.0
        assert w101["utilization"] == 7.0 / 8.0
        assert [(g["begin"], g["end"]) for g in w101["gaps"]] == [
            (4.0, 5.0)]
        w202 = rows["worker-202"]
        assert w202["busy"] == 5.0
        assert w202["utilization"] == 5.0 / 8.0
        assert [(g["begin"], g["end"]) for g in w202["gaps"]] == [
            (6.0, 9.0)]
        assert rows["main"]["utilization"] == 1.0
        # Overall utilization averages worker lanes only.
        assert doc["utilization"] == (7 / 8 + 5 / 8) / 2

    def test_shard_skew(self):
        doc = build_timeline(make_parallel_trace().events)
        skew = doc["shard_skew"]
        assert skew["max_wall"] == 5.0
        assert skew["min_wall"] == 3.0
        assert skew["mean_wall"] == 4.0
        assert skew["skew_ratio"] == 1.25

    def test_critical_path_walk_and_self_times(self):
        doc = build_timeline(make_parallel_trace().events)
        path = [e["key"] for e in doc["critical_path"]]
        # shard[10:20] ends at 6 < shard[20:30]'s begin-cursor, so
        # the walk picks [20:30] then jumps to [0:10].
        assert path == ["verify", "pool", "shard[0:10]",
                        "shard[20:30]"]
        self_time = {e["key"]: e["self"]
                     for e in doc["critical_path"]}
        assert self_time["verify"] == 1.0
        assert self_time["pool"] == 2.0
        assert self_time["shard[0:10]"] == 3.0
        assert self_time["shard[20:30]"] == 4.0
        # Self times on the path account for the whole wall clock.
        assert doc["critical_path_wall"] == doc["window"]["wall"]

    def test_attribution_rows_and_stragglers(self):
        doc = build_timeline(make_parallel_trace().events)
        shards = doc["attribution"]["shards"]
        assert [s["shard"] for s in shards] == [
            [0, 10], [10, 20], [20, 30]]
        assert [s["props"] for s in shards] == [40, 60, 80]
        assert [s["clause_visits"] for s in shards] == [5, 5, 5]
        stragglers = doc["attribution"]["top_stragglers"]
        assert [s["key"] for s in stragglers] == [
            "shard[10:20]", "shard[20:30]", "shard[0:10]"]

    def test_deterministic_rebuild(self):
        """The same trace always yields byte-identical documents —
        what makes critical paths comparable across re-reads."""
        events = make_parallel_trace().events
        assert json.dumps(build_timeline(events), sort_keys=True) \
            == json.dumps(build_timeline(list(events)), sort_keys=True)


class TestRetryDedup:
    def test_losing_attempt_dropped_with_subtree(self):
        doc = build_timeline(make_parallel_trace(retry=True).events)
        keys = [s["key"] for s in doc["spans"]]
        assert keys.count("shard[10:20]") == 1
        # The loser and its check child are both gone.
        assert doc["dropped"]["duplicates"] == 2
        assert not any(s["name"] == "check" for s in doc["spans"])
        winner = next(s for s in doc["spans"]
                      if s["key"] == "shard[10:20]")
        assert winner["attrs"]["attempt"] == 1
        assert winner["end"] == 6.0
        # Attribution reflects only the winning attempt.
        row = next(s for s in doc["attribution"]["shards"]
                   if s["shard"] == [10, 20])
        assert row["props"] == 60
        assert row["attempt"] == 1


class TestDegradedTraces:
    def test_open_span_closed_and_counted(self):
        events = make_parallel_trace().events
        # Drop the final "end verify" — an in-flight or torn trace.
        truncated = events[:-1]
        doc = build_timeline(truncated)
        assert doc["dropped"]["open"] == 1
        verify = next(s for s in doc["spans"]
                      if s["key"] == "verify")
        assert verify["end"] == verify["begin"]

    def test_orphan_reparented_and_counted(self):
        events = [
            {"ts": 0.0, "run": "r", "type": "begin", "span": 1,
             "parent": 99, "name": "lost", "attrs": {}},
            {"ts": 1.0, "run": "r", "type": "end", "span": 1,
             "parent": 99, "name": "lost", "dur": 1.0, "attrs": {}},
        ]
        doc = build_timeline(events)
        assert doc["dropped"]["orphans"] == 1
        assert doc["spans"][0]["parent"] is None
        assert doc["spans"][0]["worker"] == "main"

    def test_empty_trace(self):
        doc = build_timeline([])
        assert doc["spans"] == []
        assert doc["utilization"] is None
        assert doc["attribution"] is None
        assert doc["critical_path"] == []

    def test_repeated_names_get_occurrence_keys(self):
        clock = FakeClock()
        tracer = Tracer(run_id="r", clock=clock)
        for _ in range(2):
            with tracer.span("window_shift"):
                clock.now += 1.0
        doc = build_timeline(tracer.events)
        assert [s["key"] for s in doc["spans"]] == [
            "window_shift", "window_shift@1"]


class TestAttributionSummary:
    def test_summary_shape(self):
        summary = attribution_summary(make_parallel_trace().events)
        assert summary["workers"] == 2
        assert summary["utilization"] == (7 / 8 + 5 / 8) / 2
        assert summary["skew_ratio"] == 1.25
        assert len(summary["shards"]) == 3

    def test_none_without_shards(self):
        clock = FakeClock()
        tracer = Tracer(run_id="r", clock=clock)
        with tracer.span("verify"):
            clock.now = 1.0
        assert attribution_summary(tracer.events) is None


class TestRenderers:
    def test_text_rendering(self):
        doc = build_timeline(make_parallel_trace(retry=True).events)
        text = render_timeline_text(doc)
        assert "utilization=75.0%" in text
        assert "skew=1.25x" in text
        assert "worker-101" in text and "worker-202" in text
        assert "critical path" in text
        assert "shard[20:30]" in text
        assert "top stragglers:" in text
        assert "2 duplicate" in text
        # Gantt bars render within the fixed width.
        for line in text.splitlines():
            if "|" in line:
                bar = line.split("|")[1]
                assert len(bar) == 48
                assert set(bar) <= {"#", "."}

    def test_html_rendering_is_self_contained(self):
        doc = build_timeline(make_parallel_trace().events)
        page = render_timeline_html(doc)
        assert page.startswith("<!DOCTYPE html>")
        assert "http://" not in page and "https://" not in page
        assert "worker-101" in page and "worker-202" in page
        assert 'class="s"' in page      # Gantt blocks
        assert 'class="f"' in page      # flame blocks
        assert "shard[20:30]" in page


class TestLiveStatus:
    def test_writer_reader_round_trip(self, tmp_path):
        live = tmp_path / "live"
        writer = LiveStatusWriter(live, "r9", meta={
            "command": "verify", "instance": "php5.cnf"},
            wall=lambda: 123.0)
        writer.update(50, 100, "checks", elapsed=2.0, eta=2.0)
        statuses = read_live_statuses(live)
        assert len(statuses) == 1
        doc = statuses[0]
        assert validate_live(doc) == []
        assert doc["schema"] == LIVE_SCHEMA
        assert doc["run"] == "r9"
        assert doc["state"] == "running"
        assert doc["done"] == 50 and doc["total"] == 100
        assert doc["rate"] == 25.0
        assert doc["updated"] == 123.0
        assert doc["meta"]["instance"] == "php5.cnf"

    def test_reader_skips_foreign_files(self, tmp_path):
        (tmp_path / "junk.json").write_text("{not json")
        (tmp_path / "other.json").write_text(
            '{"schema": "something/else"}')
        (tmp_path / "notes.txt").write_text("hi")
        assert read_live_statuses(tmp_path) == []
        assert read_live_statuses(tmp_path / "missing") == []

    def test_top_table_and_stale_detection(self, tmp_path):
        writer = LiveStatusWriter(tmp_path, "r1",
                                  meta={"command": "verify"},
                                  wall=lambda: 100.0)
        writer.update(10, 40, "checks", elapsed=5.0, eta=15.0)
        statuses = read_live_statuses(tmp_path)
        fresh = format_top_table(statuses, now=101.0)
        assert "running" in fresh
        assert "10/40" in fresh
        assert "25.0" in fresh
        stale = format_top_table(statuses, now=500.0)
        assert "stale" in stale
        assert format_top_table([], now=0.0) == "no live runs\n"

    def test_all_settled(self, tmp_path):
        writer = LiveStatusWriter(tmp_path, "r1",
                                  wall=lambda: 100.0)
        writer.update(10, 40, "checks", elapsed=5.0, eta=None)
        statuses = read_live_statuses(tmp_path)
        assert not all_settled(statuses, now=101.0)
        assert all_settled(statuses, now=500.0)  # went stale
        writer.update(40, 40, "checks", elapsed=9.0, eta=None,
                      state="done")
        assert all_settled(read_live_statuses(tmp_path), now=101.0)

    def test_validator_flags_problems(self):
        assert validate_live({"schema": LIVE_SCHEMA, "run": "",
                              "state": "bogus"}) != []

    def test_progress_feeds_status_writer(self, tmp_path):
        clock = FakeClock()
        writer = LiveStatusWriter(tmp_path, "r1",
                                  wall=lambda: 50.0)
        stream = io.StringIO()
        reporter = ProgressReporter(
            total=4, stream=stream, interval=0.0, clock=clock,
            status_writer=writer, console=False)
        clock.now = 1.0
        reporter.update(2)
        doc = read_live_statuses(tmp_path)[0]
        assert doc["done"] == 2 and doc["state"] == "running"
        assert stream.getvalue() == ""  # console=False stays silent
        clock.now = 2.0
        reporter.finish(4)
        doc = read_live_statuses(tmp_path)[0]
        assert doc["done"] == 4 and doc["state"] == "done"
