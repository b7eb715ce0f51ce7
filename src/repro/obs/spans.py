"""Tracing spans: a structured JSONL event log for verification runs.

A :class:`Tracer` records *spans* (named, nested intervals — a phase
of the run, one shard) and *instant events* (a worker retry, a budget
trip, the resolved worker count) against a monotonic clock.  Events
are buffered as plain dicts and serialized as one JSON object per line
(JSONL), the format every trace viewer and ``jq`` one-liner can
consume.

Event schema (``repro.obs.trace/v1``) — every event carries:

``ts``
    Seconds since the tracer was created (``time.monotonic`` based, so
    durations are immune to wall-clock steps).
``run``
    The run id shared by every event of one verification run.
``type``
    ``"begin"`` | ``"end"`` | ``"event"``.
``span``
    Integer span id (for ``begin``/``end``; instant events carry the
    id of their *enclosing* span, or None at top level).
``parent``
    The enclosing span's id (None for root spans).
``name``
    The span/event name (``"parse"``, ``"checks"``, ``"shard"``, ...).
``attrs``
    A flat JSON object of metric-free context (procedure, shard
    bounds, worker count...).

``end`` events additionally carry ``dur`` (seconds).  Workers in the
parallel backend buffer events locally and ship them to the parent
inside each shard result, where they are re-emitted with a ``shard``
attribute.

Trace context
-------------
Every event additionally carries ``trace`` — a globally unique trace
id shared by the whole process tree of one run.  The ``run`` id
correlates artifacts written by one parent process; the ``trace`` id
survives worker replay untouched, so events from any number of
processes can be re-assembled into one timeline
(:mod:`repro.obs.timeline`).

Worker timestamps land on the *parent's* time axis: a forked worker
reads the same monotonic clock as its parent, so its tracer reuses the
parent's ``epoch`` verbatim.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from contextlib import contextmanager

TRACE_SCHEMA = "repro.obs.trace/v1"

_run_counter = itertools.count(1)


def make_run_id() -> str:
    """A run id unique enough to correlate artifacts of one process
    tree: pid plus a per-process sequence number."""
    return f"r{os.getpid()}-{next(_run_counter)}"


def make_trace_id() -> str:
    """A globally unique trace id (128 random bits, hex) stamped on
    every event of one run's process tree."""
    return os.urandom(16).hex()


class Tracer:
    """Buffers trace events; write them out with :meth:`write_jsonl`.

    The tracer is deliberately single-threaded (the verification
    drivers are); the parallel backend gives each worker its own
    buffer and replays it in the parent rather than sharing a tracer
    across processes.
    """

    def __init__(self, run_id: str | None = None,
                 clock=time.monotonic, epoch: float | None = None,
                 trace_id: str | None = None):
        self.run_id = run_id if run_id is not None else make_run_id()
        self.trace_id = (trace_id if trace_id is not None
                         else make_trace_id())
        self._clock = clock
        # A shared epoch lets worker-side tracers stamp events on the
        # parent's time axis.
        self.epoch = epoch if epoch is not None else clock()
        self.events: list[dict] = []
        self._next_span = itertools.count(1)
        self._stack: list[int] = []

    def _ts(self) -> float:
        return self._clock() - self.epoch

    @property
    def current_span(self) -> int | None:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attrs):
        """Record a named interval; usable as a context manager."""
        span_id = next(self._next_span)
        parent = self.current_span
        begin_ts = self._ts()
        self.events.append({
            "ts": begin_ts, "run": self.run_id, "trace": self.trace_id,
            "type": "begin", "span": span_id, "parent": parent,
            "name": name, "attrs": dict(attrs)})
        self._stack.append(span_id)
        end_attrs: dict = {}
        try:
            yield end_attrs
        finally:
            self._stack.pop()
            end_ts = self._ts()
            self.events.append({
                "ts": end_ts, "run": self.run_id,
                "trace": self.trace_id, "type": "end",
                "span": span_id, "parent": parent, "name": name,
                "dur": end_ts - begin_ts, "attrs": dict(end_attrs)})

    def split_tail(self, name: str, seconds: float) -> None:
        """Hand the last ``seconds`` of the span that just ended to a
        sibling span ``name``: work that ran interleaved inside it (the
        marking walks between the checks) shows as one span of its
        total, and the two do not overlap."""
        end = self.events[-1]
        end["ts"] -= seconds
        end["dur"] -= seconds
        begin = {**end, "type": "begin", "span": next(self._next_span),
                 "name": name, "attrs": {}}
        del begin["dur"]
        self.events += [begin, {**begin, "type": "end", "dur": seconds,
                                "ts": end["ts"] + seconds, "attrs": {}}]

    def end_open_spans(self, **attrs) -> None:
        """End, now, every span that has a begin event but no end.

        An interrupt (SIGINT, SIGTERM) can land between a span's begin
        and its ``finally``, or inside the ``finally`` before the end
        event is recorded; an interrupted run calls this before writing
        its trace, so the trace stays balanced.  ``attrs`` go on each
        end event.
        """
        open_spans: dict[int, dict] = {}
        for event in self.events:
            if event["type"] == "begin":
                open_spans[event["span"]] = event
            elif event["type"] == "end":
                open_spans.pop(event["span"], None)
        for begin in reversed(list(open_spans.values())):
            end_ts = self._ts()
            self.events.append({
                "ts": end_ts, "run": self.run_id, "trace": self.trace_id,
                "type": "end", "span": begin["span"],
                "parent": begin["parent"], "name": begin["name"],
                "dur": end_ts - begin["ts"], "attrs": dict(attrs)})
        self._stack.clear()

    def event(self, name: str, **attrs) -> None:
        """Record an instant event inside the current span."""
        self.events.append({
            "ts": self._ts(), "run": self.run_id,
            "trace": self.trace_id, "type": "event",
            "span": self.current_span, "parent": self.current_span,
            "name": name, "attrs": dict(attrs)})

    def replay(self, events: list[dict], **extra_attrs) -> None:
        """Adopt events recorded by another tracer (a pool worker).

        Span ids are re-numbered into this tracer's space so ids stay
        unique; ``extra_attrs`` (e.g. ``shard=(lo, hi)``) are folded
        into every replayed event's attrs.
        """
        remap: dict[int, int] = {}
        for event in events:
            copied = dict(event)
            copied["run"] = self.run_id
            copied["trace"] = self.trace_id
            for key in ("span", "parent"):
                old = copied.get(key)
                if old is not None:
                    if old not in remap:
                        remap[old] = next(self._next_span)
                    copied[key] = remap[old]
            if copied.get("parent") is None and copied.get(
                    "type") != "event":
                copied["parent"] = self.current_span
            copied["attrs"] = {**copied.get("attrs", {}), **extra_attrs}
            self.events.append(copied)

    def write_jsonl(self, path_or_file) -> None:
        """Serialize the buffered events, one JSON object per line.

        The first line is a header record (``type: "header"``) naming
        the schema and run id, so a trace file is self-describing.
        """
        header = {"ts": 0.0, "run": self.run_id,
                  "trace": self.trace_id, "type": "header",
                  "schema": TRACE_SCHEMA, "name": "trace",
                  "attrs": {}}
        lines = [json.dumps(header, sort_keys=True)]
        # Replayed worker spans land in completion order, which can
        # interleave their timestamps; serialize in time order (the
        # sort is stable, so a zero-length span's begin stays before
        # its end) to keep the log monotone for consumers.
        lines += [json.dumps(event, sort_keys=True)
                  for event in sorted(self.events,
                                      key=lambda event: event["ts"])]
        text = "\n".join(lines) + "\n"
        if hasattr(path_or_file, "write"):
            path_or_file.write(text)
        else:
            # Atomic like every artifact writer: a reader (or a run
            # interrupted mid-flush) never sees a truncated trace.
            from repro.obs.export import atomic_write_text

            atomic_write_text(path_or_file, text)


def read_jsonl(path_or_file) -> list[dict]:
    """Parse a JSONL trace file back into its event dicts (header
    included); the inverse of :meth:`Tracer.write_jsonl`."""
    if hasattr(path_or_file, "read"):
        text = path_or_file.read()
    else:
        with open(path_or_file, "r", encoding="utf-8") as handle:
            text = handle.read()
    return [json.loads(line) for line in text.splitlines() if line]
