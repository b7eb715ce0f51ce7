"""``repro.obs`` — tracing, metrics, and progress instrumentation.

A zero-dependency observability layer for the verification pipeline:

* :class:`MetricsRegistry` with :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` and associative snapshot merging (worker
  aggregation);
* :class:`Tracer` spans emitting a structured JSONL event log with a
  cross-process trace context (``trace_id`` + the monotonic epoch the
  forked pool workers share).  The trace is the one telemetry
  artifact: the CLI closes it with a ``run_summary`` event
  (:func:`run_summary`) carrying the registry snapshot, the report's
  stats, the memory summary, and the proof-shape analytics;
* the :mod:`repro.obs.timeline` reconstructor — one global timeline
  per trace with utilization, idle gaps, shard skew, critical path,
  and per-shard attribution, derived on demand by
  ``repro obs timeline``;
* :class:`ProgressReporter` heartbeat lines on stderr;
* :func:`read_rss` — one read of the process's current and peak
  resident set (the kernel's high-water mark);
* the ``c stats:`` footer and schema validators for the two
  artifact kinds (trace, depgraph);
* the :mod:`repro.obs.insight` subpackage — proof dependency graphs
  and Section-5 shape analytics.

Instrumentation is strictly opt-in: every entry point takes
``obs: Obs | None = None`` and the disabled path never touches this
package (see :mod:`repro.obs.context`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".context": ("Obs",),
    ".export": ("atomic_write_text", "run_summary", "stats_footer"),
    ".insight": ("DEPGRAPH_SCHEMA", "DepGraphRecorder",
                 "ProofShapeAnalytics", "analyze_proof_shape",
                 "depgraph_deterministic_view", "write_depgraph_dot",
                 "write_depgraph_jsonl"),
    ".mem": ("parse_proc_status", "read_rss"),
    ".progress": ("ProgressReporter",),
    ".registry": ("DEFAULT_TIME_BUCKETS", "DEFAULT_WORK_BUCKETS", "Counter",
                  "Gauge", "Histogram", "MetricsRegistry"),
    ".schema": ("KNOWN_SCHEMAS", "TRACE_SCHEMA", "deterministic_view",
                "validate_any", "validate_depgraph", "validate_trace"),
    ".spans": ("Tracer", "make_run_id", "make_trace_id", "read_jsonl"),
    ".timeline": ("build_timeline", "format_bytes",
                  "render_timeline_text"),
})

__all__ = [
    "Obs",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "ProgressReporter",
    "run_summary",
    "stats_footer",
    "validate_trace",
    "validate_depgraph",
    "validate_any",
    "deterministic_view",
    "depgraph_deterministic_view",
    "read_jsonl",
    "make_run_id",
    "atomic_write_text",
    "DepGraphRecorder",
    "ProofShapeAnalytics",
    "analyze_proof_shape",
    "write_depgraph_dot",
    "write_depgraph_jsonl",
    "KNOWN_SCHEMAS",
    "TRACE_SCHEMA",
    "DEPGRAPH_SCHEMA",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_WORK_BUCKETS",
    "make_trace_id",
    "build_timeline",
    "render_timeline_text",
    "format_bytes",
    "read_rss",
    "parse_proc_status",
]
