"""Tests for timeline reconstruction."""

import json

from repro.obs import Tracer, build_timeline, render_timeline_text
from repro.obs.timeline import _critical_path  # noqa: F401 (API smoke)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _worker_events(clock, epoch, lo, hi, begin, end, pid,
                   checks=1, props=10, clause_visits=5):
    """Record one worker-side shard span exactly the way
    ``repro.verify.parallel._run_shard`` does: lo/hi/pid/attempt on
    the begin, cost counters folded into the end attrs."""
    worker = Tracer(run_id="w", clock=clock, epoch=epoch)
    clock.now = begin
    with worker.span("shard", lo=lo, hi=hi, pid=pid, attempt=0):
        clock.now = end
    worker.events[-1]["attrs"].update(
        checks=checks, wall=end - begin, props=props,
        clause_visits=clause_visits)
    return worker.events


def make_parallel_trace():
    """A synthetic two-worker pool run with exact timestamps.

    Layout (seconds on the shared clock):

    * main: ``verify`` 0..10 wrapping ``pool`` 0.5..9.5
    * worker 101: ``shard[0:10]`` 1..4, ``shard[20:30]`` 5..9
    * worker 202: ``shard[10:20]`` 1..6
    """
    clock = FakeClock()
    parent = Tracer(run_id="r1", clock=clock, trace_id="ab" * 16)
    with parent.span("verify"):
        clock.now = 0.5
        with parent.span("pool", jobs=2):
            shards = [
                _worker_events(clock, parent.epoch, 0, 10, 1.0, 4.0,
                               pid=101, checks=10, props=40),
                _worker_events(clock, parent.epoch, 10, 20, 1.0, 6.0,
                               pid=202, checks=10, props=60),
                _worker_events(clock, parent.epoch, 20, 30, 5.0, 9.0,
                               pid=101, checks=10, props=80),
            ]
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
        assert doc["dropped"] == {"orphans": 0, "open": 0}

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


class TestRenderers:
    def test_text_rendering(self):
        doc = build_timeline(make_parallel_trace().events)
        text = render_timeline_text(doc)
        assert "utilization=75.0%" in text
        assert "skew=1.25x" in text
        assert "worker-101" in text and "worker-202" in text
        assert "critical path" in text
        assert "shard[20:30]" in text
        assert "top stragglers:" in text
        # Gantt bars render within the fixed width.
        for line in text.splitlines():
            if "|" in line:
                bar = line.split("|")[1]
                assert len(bar) == 48
                assert set(bar) <= {"#", "."}
