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
  stragglers, the section ``obs history`` persists so
  ``obs compare``/``check-regression`` can gate on utilization;
* **memory** — every ``mem_sample`` instant event the
  heartbeat-riding :class:`repro.obs.mem.MemSampler` stamped into the
  trace, folded with per-shard peaks into a run-wide ``peak_rss``,
  rendered as a sparkline lane (text) and a bar lane (HTML).

Retried shards are deduplicated here as well as at absorb time
(:class:`repro.verify.parallel._ObsSink`): among shard spans covering
the same ``[lo, hi)`` bounds only the latest attempt survives, and
anything dropped is counted in the document's ``dropped`` section so
tests can assert the merged timeline is duplicate- and orphan-free.

All of this runs at read/merge time over a finished trace — nothing
here executes in a verification hot loop.
"""

from __future__ import annotations

import html as _html

from repro.obs.live import format_bytes

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
                "attrs": dict(event.get("attrs", {})),
                "events": []}
        elif kind == "end":
            span = open_spans.pop(span_id, None)
            if span is None:
                # An end without a begin: synthesize a zero-length
                # span rather than losing the data.
                span = {"id": span_id, "name": event.get("name", ""),
                        "parent": event.get("parent"),
                        "begin": event["ts"], "attrs": {},
                        "events": []}
            span["end"] = event["ts"]
            span["dur"] = event.get("dur",
                                    event["ts"] - span["begin"])
            span["attrs"].update(event.get("attrs", {}))
            spans.append(span)
        elif kind == "event":
            holder = open_spans.get(span_id)
            record = {"ts": event["ts"],
                      "name": event.get("name", ""),
                      "attrs": dict(event.get("attrs", {}))}
            if holder is not None:
                holder["events"].append(record)
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


def _dedupe_retries(spans: list[dict]) -> tuple[list[dict], int]:
    """Keep only the winning attempt of each retried shard.

    Shard spans covering identical ``[lo, hi)`` bounds are duplicates
    from a retried/degraded shard; the latest ``(attempt, end)`` wins
    and the losers — with their entire subtrees — are dropped.
    """
    by_bounds: dict[tuple, list[dict]] = {}
    for span in spans:
        if span["name"] != "shard":
            continue
        attrs = span["attrs"]
        lo, hi = attrs.get("lo"), attrs.get("hi")
        if lo is None or hi is None:
            shard = attrs.get("shard") or (None, None)
            lo, hi = shard[0], shard[1]
        if lo is None:
            continue
        by_bounds.setdefault((lo, hi), []).append(span)
    doomed: set[int] = set()
    for group in by_bounds.values():
        if len(group) <= 1:
            continue
        group.sort(key=lambda s: (s["attrs"].get("attempt", 0),
                                  s["end"], s["id"]))
        for loser in group[:-1]:
            doomed.add(loser["id"])
    if not doomed:
        return spans, 0
    # Drop descendants of doomed spans too.
    dropped = 0
    while True:
        grew = False
        for span in spans:
            if (span["id"] not in doomed
                    and span["parent"] in doomed):
                doomed.add(span["id"])
                grew = True
        if not grew:
            break
    kept = []
    for span in spans:
        if span["id"] in doomed:
            dropped += 1
        else:
            kept.append(span)
    return kept, dropped


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
    no shard spans (sequential / streaming)."""
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


def _memory_section(spans: list[dict],
                    attribution: dict | None) -> dict | None:
    """The timeline's memory lane: every ``mem_sample`` instant event
    (emitted by :class:`repro.obs.mem.MemSampler` riding the progress
    heartbeat) plus the run-wide peak RSS.

    The peak folds in per-shard ``peak_rss`` end-attrs too, so a
    parallel run whose parent sampled little still reports the true
    max across workers.  None when the trace carries no memory data
    at all (sampler disabled) — renderers skip the lane entirely.
    """
    samples = []
    for span in spans:
        for record in span.get("events", ()):
            if record.get("name") != "mem_sample":
                continue
            attrs = record.get("attrs", {})
            rss = attrs.get("rss_bytes")
            if not isinstance(rss, (int, float)):
                continue
            samples.append({
                "ts": record["ts"],
                "rss_bytes": int(rss),
                "peak_rss_bytes": attrs.get("peak_rss_bytes"),
                "worker": span["worker"]})
    samples.sort(key=lambda s: s["ts"])
    peaks = [s["peak_rss_bytes"] for s in samples
             if isinstance(s["peak_rss_bytes"], (int, float))]
    peaks.extend(s["rss_bytes"] for s in samples)
    if attribution:
        peaks.extend(row["peak_rss"] for row in attribution["shards"]
                     if isinstance(row.get("peak_rss"),
                                   (int, float)))
    if not peaks:
        return None
    return {"samples": samples,
            "peak_rss_bytes": int(max(peaks))}


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
    spans, duplicates = _dedupe_retries(spans)
    spans, orphans = _assign_lanes(spans)
    if spans:
        begin = min(s["begin"] for s in spans)
        end = max(s["end"] for s in spans)
    else:
        begin = end = 0.0
    workers, utilization = _worker_stats(spans) if spans else ([],
                                                               None)
    attribution = _attribution(spans, top=top)
    memory = _memory_section(spans, attribution)
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
        "dropped": {"duplicates": duplicates, "orphans": orphans,
                    "open": open_count},
    }
    return doc


def attribution_summary(events: list[dict],
                        top: int = TOP_STRAGGLERS) -> dict | None:
    """The compact attribution record ``obs history`` persists for a
    parallel run: utilization, skew, and per-shard cost rows.

    Returns None when the trace has no shard spans (nothing to
    attribute)."""
    doc = build_timeline(events, top=top)
    if doc["attribution"] is None:
        return None
    return {
        "utilization": doc["utilization"],
        "skew_ratio": (doc["shard_skew"]["skew_ratio"]
                       if doc["shard_skew"] else None),
        "workers": len([w for w in doc["workers"]
                        if w["worker"] != "main"]),
        "peak_rss_bytes": (doc["memory"]["peak_rss_bytes"]
                           if doc.get("memory") else None),
        "shards": doc["attribution"]["shards"],
        "top_stragglers": doc["attribution"]["top_stragglers"],
    }


# ---------------------------------------------------------------------------
# Rendering


_BAR_WIDTH = 48


def _memory_lane(memory: dict, lo: float, hi: float) -> str:
    """A fixed-width RSS sparkline over the timeline window: each
    column shows the largest sample falling in that time slice,
    scaled against the run peak (`` .:-=+*#`` from empty to peak)."""
    levels = " .:-=+*#"
    peak = max(memory["peak_rss_bytes"], 1)
    cols = [0] * _BAR_WIDTH
    span = max(hi - lo, 1e-9)
    for sample in memory["samples"]:
        col = int((sample["ts"] - lo) / span * _BAR_WIDTH)
        col = min(max(col, 0), _BAR_WIDTH - 1)
        cols[col] = max(cols[col], sample["rss_bytes"])
    return "".join(
        levels[min(len(levels) - 1,
                   int(value / peak * (len(levels) - 1) + 0.5))]
        if value else " " for value in cols)


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
        lane = _memory_lane(memory, lo, hi)
        lines.append(
            f"  {'memory':<14} |{lane}| "
            f"peak={format_bytes(memory['peak_rss_bytes'])} "
            f"samples={len(memory['samples'])}")
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
            f"dropped: {dropped['duplicates']} duplicate, "
            f"{dropped['orphans']} orphaned, "
            f"{dropped['open']} unterminated span(s)")
    return "\n".join(lines) + "\n"


_LANE_COLORS = ["#4e79a7", "#f28e2b", "#59a14f", "#e15759",
                "#76b7b2", "#edc948", "#b07aa1", "#9c755f"]


def render_timeline_html(doc: dict) -> str:
    """A self-contained HTML Gantt + critical-path flame rendering
    (inline CSS only, no external resources)."""
    window = doc["window"]
    lo, hi = window["begin"], window["end"]
    span_wall = max(window["wall"], 1e-9)
    lanes: list[str] = []
    for row in doc["workers"]:
        if row["worker"] not in lanes:
            lanes.append(row["worker"])
    for span in doc["spans"]:
        if span["worker"] not in lanes:
            lanes.append(span["worker"])
    color = {lane: _LANE_COLORS[i % len(_LANE_COLORS)]
             for i, lane in enumerate(lanes)}
    critical_keys = {entry["key"] for entry in doc["critical_path"]}

    def pct(value: float) -> float:
        return (value - lo) / span_wall * 100.0

    rows = []
    for lane in lanes:
        blocks = []
        for span in doc["spans"]:
            if span["worker"] != lane:
                continue
            left = pct(span["begin"])
            width = max(0.05, pct(span["end"]) - left)
            title = _html.escape(
                f"{span['key']} {span['dur']:.4f}s")
            edge = ("outline:2px solid #d62728;"
                    if span["key"] in critical_keys else "")
            blocks.append(
                f'<div class="s" title="{title}" '
                f'style="left:{left:.3f}%;width:{width:.3f}%;'
                f'background:{color[lane]};{edge}"></div>')
        rows.append(
            f'<div class="lane"><span class="label">'
            f'{_html.escape(lane)}</span>'
            f'<div class="track">{"".join(blocks)}</div></div>')

    flame = []
    depth_end: list[float] = []
    for entry in doc["critical_path"]:
        depth = 0
        while depth < len(depth_end) and entry["begin"] < \
                depth_end[depth] - 1e-12:
            depth += 1
        if depth == len(depth_end):
            depth_end.append(entry["end"])
        else:
            depth_end[depth] = entry["end"]
        left = pct(entry["begin"])
        width = max(0.05, pct(entry["end"]) - left)
        title = _html.escape(
            f"{entry['key']} {entry['dur']:.4f}s "
            f"(self {entry['self']:.4f}s)")
        flame.append(
            f'<div class="f" title="{title}" '
            f'style="left:{left:.3f}%;top:{depth * 22}px;'
            f'width:{width:.3f}%;">'
            f'{_html.escape(entry["key"])}</div>')
    flame_height = max(22 * len(depth_end), 22)

    memory = doc.get("memory")
    mem_html = ""
    if memory:
        mem_peak = max(memory["peak_rss_bytes"], 1)
        mem_bars = []
        for sample in memory["samples"]:
            left = pct(sample["ts"])
            height = max(2.0, sample["rss_bytes"] / mem_peak * 40.0)
            title = _html.escape(
                f"{format_bytes(sample['rss_bytes'])} rss "
                f"at +{sample['ts'] - lo:.3f}s "
                f"({sample['worker']})")
            mem_bars.append(
                f'<div class="m" title="{title}" '
                f'style="left:{left:.3f}%;'
                f'height:{height:.0f}px;"></div>')
        mem_html = (
            f'<h2>Memory — peak '
            f'{_html.escape(format_bytes(memory["peak_rss_bytes"]))}'
            f'</h2>\n<div class="memlane">{"".join(mem_bars)}</div>\n')

    util = doc["utilization"]
    summary = (f"wall {window['wall']:.3f}s · critical path "
               f"{doc['critical_path_wall']:.3f}s")
    if util is not None:
        summary += f" · utilization {util * 100:.1f}%"
    if doc["shard_skew"]:
        summary += (f" · shard skew "
                    f"{doc['shard_skew']['skew_ratio']:.2f}x")
    if memory:
        summary += (f" · peak rss "
                    f"{format_bytes(memory['peak_rss_bytes'])}")
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8">
<title>repro timeline {_html.escape(doc['run'] or '')}</title>
<style>
body {{ font: 13px/1.4 monospace; margin: 1.5em; color: #222; }}
h1 {{ font-size: 16px; }}
.lane {{ display: flex; align-items: center; margin: 2px 0; }}
.label {{ width: 9em; flex: none; }}
.track {{ position: relative; flex: 1; height: 18px;
  background: #f2f2f2; }}
.s {{ position: absolute; top: 2px; height: 14px;
  border-radius: 2px; }}
.flame {{ position: relative; height: {flame_height}px;
  margin-left: 9em; }}
.f {{ position: absolute; height: 20px; background: #d62728;
  color: #fff; overflow: hidden; white-space: nowrap;
  font-size: 11px; line-height: 20px; padding-left: 2px;
  border-radius: 2px; box-sizing: border-box; }}
.memlane {{ position: relative; height: 44px; margin-left: 9em;
  background: #f2f2f2; }}
.m {{ position: absolute; bottom: 0; width: 0.6%;
  min-width: 2px; background: #76b7b2; }}
</style></head><body>
<h1>repro timeline — run {_html.escape(doc['run'] or '?')}</h1>
<p>{_html.escape(summary)}</p>
<h2>Gantt</h2>
{''.join(rows)}
{mem_html}<h2>Critical path</h2>
<div class="flame">{''.join(flame)}</div>
</body></html>
"""
