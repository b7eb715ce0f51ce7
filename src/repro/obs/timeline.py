"""Timeline reconstruction: from a span log to a global run timeline.

:func:`build_timeline` consumes the events of a ``repro.obs.trace/v1``
JSONL file (parent spans plus replayed worker spans, already on one
time axis — see :mod:`repro.obs.spans`) and produces one in-memory
timeline view answering the operational questions the raw log
can't:

* **lanes** — every span is assigned to a worker lane (``main`` for
  the parent process, ``worker-<pid>`` for pool workers) so the run
  renders as a Gantt chart;
* **utilization / idle gaps** — per-worker busy time vs the worker
  window, with the explicit gap intervals;
* **shard skew** — max/mean/min shard wall time and their ratio;
* **critical path** — the chain of spans that actually bounds
  wall-clock, computed by the classic trace-analysis walk: start at
  the span that ends last, recurse into the child that ends last
  before the cursor, move the cursor to that child's begin, repeat;
* **attribution** — per-shard wall/checks/props/clause-visits rows
  (plus per-shard ``peak_rss`` when workers reported it) and the top
  stragglers;
* **memory** — the run-wide peak resident set: the larger of the
  parent's ``run_summary`` peak and every shard's ``peak_rss``.

Orphaned and unterminated spans are counted in the document's
``dropped`` section, so tests can assert the merged timeline is whole.

All of this runs at read/merge time over a finished trace — nothing
here executes in a verification hot loop.
"""

from __future__ import annotations

#: Default number of straggler rows kept in the attribution section.
TOP_STRAGGLERS = 5


# ---------------------------------------------------------------------------
# Span assembly


def _span_key(name: str, attrs: dict, seen: dict) -> str:
    """A stable identity for a span, independent of numeric span ids.

    Shard spans are keyed by their clause-index bounds, check spans by
    the check index; anything else by name plus an occurrence counter.
    Stable keys are what make the critical path comparable across
    repeated runs at a fixed shard layout.
    """
    if "lo" in attrs and "hi" in attrs:
        return f"{name}[{attrs['lo']}:{attrs['hi']}]"
    if "index" in attrs:
        return f"{name}#{attrs['index']}"
    # Replay folds a shard=[lo, hi] attr into every worker event, so
    # only use it for spans with no more specific identity.
    shard = attrs.get("shard")
    if isinstance(shard, (list, tuple)) and len(shard) == 2:
        return f"{name}[{shard[0]}:{shard[1]}]"
    count = seen.get(name, 0)
    seen[name] = count + 1
    return name if count == 0 else f"{name}@{count}"


def _assemble_spans(events: list[dict]) -> tuple[list[dict], int, str,
                                                 str]:
    """Pair begin/end events into span dicts.

    Returns ``(spans, open_count, run_id, trace_id)`` where
    ``open_count`` is the number of begins that never ended (an
    in-flight or torn trace).
    """
    run_id = ""
    trace_id = ""
    open_spans: dict[int, dict] = {}
    spans: list[dict] = []
    seen_names: dict[str, int] = {}
    for event in events:
        kind = event.get("type")
        if kind == "header":
            run_id = event.get("run", run_id)
            trace_id = event.get("trace", trace_id) or trace_id
            continue
        if not run_id:
            run_id = event.get("run", "")
        if not trace_id:
            trace_id = event.get("trace", "") or ""
        span_id = event.get("span")
        if kind == "begin":
            open_spans[span_id] = {
                "id": span_id, "name": event.get("name", ""),
                "parent": event.get("parent"),
                "begin": event["ts"], "end": None, "dur": None,
                "attrs": dict(event.get("attrs", {}))}
        elif kind == "end":
            span = open_spans.pop(span_id, None)
            if span is None:
                # An end without a begin: synthesize a zero-length
                # span rather than losing the data.
                span = {"id": span_id, "name": event.get("name", ""),
                        "parent": event.get("parent"),
                        "begin": event["ts"], "attrs": {}}
            span["end"] = event["ts"]
            span["dur"] = event.get("dur",
                                    event["ts"] - span["begin"])
            span["attrs"].update(event.get("attrs", {}))
            spans.append(span)
    # Close still-open spans at their begin time so a live tail still
    # renders; callers can tell from open_count.
    open_count = len(open_spans)
    for span in open_spans.values():
        span["end"] = span["begin"]
        span["dur"] = 0.0
        spans.append(span)
    spans.sort(key=lambda s: (s["begin"], s["id"]))
    for span in spans:
        span["key"] = _span_key(span["name"], span["attrs"],
                                seen_names)
    return spans, open_count, run_id, trace_id


def _assign_lanes(spans: list[dict]) -> tuple[list[dict], int]:
    """Attach a ``worker`` lane to every span.

    A span with a ``pid`` attr (a worker-side root, e.g. ``shard``)
    anchors the lane ``worker-<pid>``; descendants inherit it; spans
    outside any worker subtree belong to ``main``.  Spans whose parent
    id is unknown are counted as orphans and re-parented to the root.
    """
    by_id = {span["id"]: span for span in spans}
    orphans = 0
    for span in spans:
        parent = span["parent"]
        if parent is not None and parent not in by_id:
            span["parent"] = None
            orphans += 1

    def lane_of(span: dict) -> str:
        if "worker" in span:
            return span["worker"]
        if "pid" in span["attrs"]:
            lane = f"worker-{span['attrs']['pid']}"
        elif span["parent"] is not None:
            lane = lane_of(by_id[span["parent"]])
        else:
            lane = "main"
        span["worker"] = lane
        return lane

    for span in spans:
        lane_of(span)
    return spans, orphans


# ---------------------------------------------------------------------------
# Metrics over the assembled spans


def _merge_intervals(intervals: list[tuple]) -> list[tuple]:
    merged: list[list] = []
    for begin, end in sorted(intervals):
        if merged and begin <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([begin, end])
    return [(b, e) for b, e in merged]


def _worker_stats(spans: list[dict]) -> tuple[list[dict], float]:
    """Per-lane busy/idle/utilization rows plus overall utilization.

    Busy time is the union of each lane's *lane-root* span intervals
    (spans whose parent lives in a different lane, or nowhere), so
    nested check spans don't double-count.  Utilization is measured
    against the worker window — first worker begin to last worker end
    — which isolates pool efficiency from setup/teardown; for the
    ``main`` lane it is measured against the whole trace window.
    """
    by_id = {span["id"]: span for span in spans}
    lanes: dict[str, list[dict]] = {}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is None or parent["worker"] != span["worker"]:
            lanes.setdefault(span["worker"], []).append(span)
    worker_lanes = {name: roots for name, roots in lanes.items()
                    if name != "main"}
    if worker_lanes:
        window_begin = min(root["begin"]
                           for roots in worker_lanes.values()
                           for root in roots)
        window_end = max(root["end"]
                         for roots in worker_lanes.values()
                         for root in roots)
    else:
        window_begin = window_end = 0.0
    rows = []
    utilizations = []
    for name in sorted(lanes):
        roots = lanes[name]
        busy_iv = _merge_intervals(
            [(r["begin"], r["end"]) for r in roots])
        busy = sum(e - b for b, e in busy_iv)
        if name == "main":
            lo = min(r["begin"] for r in roots)
            hi = max(r["end"] for r in roots)
        else:
            lo, hi = window_begin, window_end
        wall = hi - lo
        gaps = []
        cursor = lo
        for begin, end in busy_iv:
            if begin - cursor > 1e-9:
                gaps.append({"begin": cursor, "end": begin,
                             "dur": begin - cursor})
            cursor = max(cursor, end)
        if hi - cursor > 1e-9:
            gaps.append({"begin": cursor, "end": hi,
                         "dur": hi - cursor})
        utilization = busy / wall if wall > 0 else 1.0
        rows.append({
            "worker": name, "spans": len(roots), "busy": busy,
            "idle": max(0.0, wall - busy),
            "utilization": utilization,
            "first_begin": min(r["begin"] for r in roots),
            "last_end": max(r["end"] for r in roots),
            "gaps": gaps})
        if name != "main":
            utilizations.append(utilization)
    overall = (sum(utilizations) / len(utilizations)
               if utilizations else None)
    return rows, overall


def _shard_skew(shards: list[dict]) -> dict | None:
    if not shards:
        return None
    walls = sorted(s["wall"] for s in shards)
    mean = sum(walls) / len(walls)
    return {"max_wall": walls[-1], "min_wall": walls[0],
            "mean_wall": mean,
            "skew_ratio": walls[-1] / mean if mean > 0 else 1.0}


def _attribution(spans: list[dict], top: int = TOP_STRAGGLERS,
                 ) -> dict | None:
    """Per-shard cost rows from shard-span attrs; None for runs with
    no shard spans (sequential runs)."""
    shards = []
    for span in spans:
        if span["name"] != "shard":
            continue
        attrs = span["attrs"]
        lo = attrs.get("lo")
        hi = attrs.get("hi")
        if lo is None and isinstance(attrs.get("shard"),
                                     (list, tuple)):
            lo, hi = attrs["shard"][0], attrs["shard"][1]
        shards.append({
            "shard": [lo, hi],
            "key": span["key"],
            "wall": attrs.get("wall", span["dur"]),
            "checks": attrs.get("checks"),
            "props": attrs.get("props"),
            "clause_visits": attrs.get("clause_visits"),
            "peak_rss": attrs.get("peak_rss"),
            "worker": span["worker"],
            "attempt": attrs.get("attempt", 0)})
    if not shards:
        return None
    shards.sort(key=lambda s: (s["shard"][0] if s["shard"][0]
                               is not None else -1))
    ranked = sorted(shards, key=lambda s: (-s["wall"], s["key"]))
    return {"shards": shards,
            "top_stragglers": ranked[:top],
            "skew": _shard_skew(shards)}


def _memory_section(events: list[dict],
                    attribution: dict | None) -> dict | None:
    """The run-wide peak resident set: the larger of the parent's
    ``run_summary`` peak (the kernel's high-water mark, read once at
    the end of the run) and every per-shard ``peak_rss`` end-attr a
    pool worker reported.  None when the trace carries neither —
    renderers then skip the memory line.
    """
    peaks = [(event.get("attrs", {}).get("mem") or {}).get(
                 "peak_rss_bytes")
             for event in events
             if event.get("type") == "event"
             and event.get("name") == "run_summary"]
    if attribution:
        peaks.extend(row.get("peak_rss")
                     for row in attribution["shards"])
    peaks = [peak for peak in peaks if isinstance(peak, (int, float))]
    if not peaks:
        return None
    return {"peak_rss_bytes": int(max(peaks))}


def _critical_path(spans: list[dict]) -> list[dict]:
    """The chain of spans bounding wall-clock.

    Standard trace-analysis walk over the span tree: starting from
    the root that ends last, repeatedly descend into the child that
    ends last at or before the cursor, then move the cursor to that
    child's begin.  Ties break on ``(end, begin, key)`` so the path
    is deterministic for identical traces.  Returns path entries in
    begin-time order, each with the ``self`` time (portion of the
    span not covered by on-path children).
    """
    if not spans:
        return []
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)

    path: list[dict] = []

    def descend(span: dict) -> None:
        entry = {"key": span["key"], "name": span["name"],
                 "begin": span["begin"], "end": span["end"],
                 "dur": span["dur"], "worker": span["worker"],
                 "self": span["dur"]}
        path.append(entry)
        kids = children.get(span["id"], [])
        cursor = span["end"]
        covered = 0.0
        while True:
            candidates = [k for k in kids
                          if k["begin"] < cursor
                          and k["end"] <= cursor + 1e-12]
            if not candidates:
                break
            nxt = max(candidates,
                      key=lambda k: (k["end"], k["begin"], k["key"]))
            descend(nxt)
            covered += min(nxt["end"], cursor) - nxt["begin"]
            cursor = nxt["begin"]
        entry["self"] = max(0.0, span["dur"] - covered)

    roots = children.get(None, [])
    if not roots:
        return []
    # The run's wall clock ends when the last root ends; walk roots
    # backward from there, same cursor discipline as within a span.
    cursor = max(root["end"] for root in roots)
    ordered: list[dict] = []
    while True:
        candidates = [r for r in roots
                      if r["end"] <= cursor + 1e-12
                      and all(r is not o for o in ordered)]
        if not candidates:
            break
        nxt = max(candidates,
                  key=lambda r: (r["end"], r["begin"], r["key"]))
        ordered.append(nxt)
        cursor = nxt["begin"]
    for root in ordered:
        descend(root)
    path.sort(key=lambda e: (e["begin"], e["end"]))
    return path


# ---------------------------------------------------------------------------
# Public API


def build_timeline(events: list[dict], top: int = TOP_STRAGGLERS,
                   ) -> dict:
    """Merge a trace's events into one timeline view."""
    spans, open_count, run_id, trace_id = _assemble_spans(events)
    spans, orphans = _assign_lanes(spans)
    if spans:
        begin = min(s["begin"] for s in spans)
        end = max(s["end"] for s in spans)
    else:
        begin = end = 0.0
    workers, utilization = _worker_stats(spans) if spans else ([],
                                                               None)
    attribution = _attribution(spans, top=top)
    memory = _memory_section(events, attribution)
    critical = _critical_path(spans)
    doc = {
        "run": run_id,
        "trace": trace_id,
        "window": {"begin": begin, "end": end,
                   "wall": end - begin},
        "spans": [{
            "key": s["key"], "id": s["id"], "name": s["name"],
            "parent": s["parent"], "worker": s["worker"],
            "begin": s["begin"], "end": s["end"], "dur": s["dur"],
            "attrs": s["attrs"]} for s in spans],
        "workers": workers,
        "utilization": utilization,
        "shard_skew": attribution["skew"] if attribution else None,
        "critical_path": critical,
        "critical_path_wall": sum(e["self"] for e in critical),
        "attribution": (
            {"shards": attribution["shards"],
             "top_stragglers": attribution["top_stragglers"]}
            if attribution else None),
        "memory": memory,
        "dropped": {"orphans": orphans, "open": open_count},
    }
    return doc


# ---------------------------------------------------------------------------
# Rendering


_BAR_WIDTH = 48


def format_bytes(value) -> str:
    """``62.1M``-style human bytes (``-`` when unknown)."""
    if not isinstance(value, (int, float)) or value <= 0:
        return "-"
    for unit in ("B", "K", "M", "G", "T"):
        if value < 1024 or unit == "T":
            return (f"{value:.0f}{unit}" if unit == "B"
                    else f"{value:.1f}{unit}")
        value /= 1024
    return "-"


def _bar(begin: float, end: float, lo: float, hi: float) -> str:
    """A fixed-width ASCII Gantt bar for [begin, end) within
    [lo, hi)."""
    span = hi - lo
    if span <= 0:
        return "#" * _BAR_WIDTH
    start = int((begin - lo) / span * _BAR_WIDTH)
    stop = max(start + 1, int(round((end - lo) / span * _BAR_WIDTH)))
    start = min(start, _BAR_WIDTH - 1)
    stop = min(stop, _BAR_WIDTH)
    return ("." * start + "#" * (stop - start)
            + "." * (_BAR_WIDTH - stop))


def render_timeline_text(doc: dict) -> str:
    """A terminal Gantt + summary rendering of a timeline doc."""
    lines = []
    window = doc["window"]
    util = doc["utilization"]
    head = (f"timeline {doc['run'] or '?'} "
            f"wall={window['wall']:.3f}s")
    if util is not None:
        head += f" utilization={util * 100:.1f}%"
    if doc["shard_skew"]:
        head += f" skew={doc['shard_skew']['skew_ratio']:.2f}x"
    lines.append(head)
    if doc["trace"]:
        lines.append(f"trace {doc['trace']}")
    lines.append("")
    lines.append("lanes:")
    lo, hi = window["begin"], window["end"]
    by_worker: dict[str, list[dict]] = {}
    for span in doc["spans"]:
        by_worker.setdefault(span["worker"], []).append(span)
    for row in doc["workers"]:
        name = row["worker"]
        roots = [s for s in by_worker.get(name, [])]
        merged = _merge_intervals(
            [(s["begin"], s["end"]) for s in roots])
        bar = list("." * _BAR_WIDTH)
        for begin, end in merged:
            seg = _bar(begin, end, lo, hi)
            for i, ch in enumerate(seg):
                if ch == "#":
                    bar[i] = "#"
        lines.append(
            f"  {name:<14} |{''.join(bar)}| "
            f"busy={row['busy']:.3f}s idle={row['idle']:.3f}s "
            f"util={row['utilization'] * 100:.1f}%")
    memory = doc.get("memory")
    if memory:
        lines.append("")
        lines.append(
            f"  {'memory':<14} "
            f"peak={format_bytes(memory['peak_rss_bytes'])}")
    lines.append("")
    lines.append(
        f"critical path ({doc['critical_path_wall']:.3f}s of "
        f"{window['wall']:.3f}s wall):")
    for entry in doc["critical_path"]:
        lines.append(
            f"  {entry['key']:<24} {entry['dur']:.3f}s "
            f"(self {entry['self']:.3f}s) on {entry['worker']}")
    attribution = doc["attribution"]
    if attribution:
        lines.append("")
        lines.append("top stragglers:")
        for row in attribution["top_stragglers"]:
            props = row["props"]
            line = (
                f"  {row['key']:<24} wall={row['wall']:.3f}s "
                f"checks={row['checks']} "
                f"props={props if props is not None else '?'}")
            if isinstance(row.get("peak_rss"), (int, float)):
                line += f" rss={format_bytes(row['peak_rss'])}"
            lines.append(line + f" on {row['worker']}")
    dropped = doc["dropped"]
    if any(dropped.values()):
        lines.append("")
        lines.append(
            f"dropped: {dropped['orphans']} orphaned, "
            f"{dropped['open']} unterminated span(s)")
    return "\n".join(lines) + "\n"

