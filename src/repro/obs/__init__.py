"""``repro.obs`` — tracing, metrics, and progress instrumentation.

A zero-dependency observability layer for the verification pipeline:

* :class:`MetricsRegistry` with :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` and associative snapshot merging (worker
  aggregation);
* :class:`Tracer` spans emitting a structured JSONL event log with a
  cross-process trace context (``trace_id`` + monotonic/wall epoch
  anchors rebased into pool workers).  The trace is the one telemetry
  artifact: the CLI closes it with a ``run_summary`` event
  (:func:`run_summary`) carrying the registry snapshot, the report's
  stats, the memory summary, and the proof-shape analytics;
* the :mod:`repro.obs.timeline` reconstructor — one global timeline
  per trace with utilization, idle gaps, shard skew, critical path,
  and per-shard attribution, derived on demand by
  ``repro obs timeline``;
* :class:`ProgressReporter` heartbeat lines, optionally mirrored to
  :mod:`repro.obs.live` status files for ``repro obs top``;
* the :mod:`repro.obs.mem` resource profiler — heartbeat-riding RSS
  sampling (:class:`MemSampler`), arena-native memory gauges, and
  optional tracemalloc phase attribution (:class:`MemProfiler`);
* the ``c stats:`` footer and schema validators for the four artifact
  kinds (trace, depgraph, checkpoint, live status);
* the :mod:`repro.obs.insight` subpackage — proof dependency graphs,
  Section-5 shape analytics, the run-history store with regression
  detection, and cProfile/flamegraph hooks.

Instrumentation is strictly opt-in: every entry point takes
``obs: Obs | None = None`` and the disabled path never touches this
package (see :mod:`repro.obs.context`).
"""

from repro.obs.context import Obs
from repro.obs.export import (
    atomic_write_text,
    collapsed_stack_text,
    run_summary,
    stats_footer,
)
from repro.obs.insight import (
    DEPGRAPH_SCHEMA,
    RUN_SCHEMA,
    DepGraphRecorder,
    HistoryStore,
    ProofShapeAnalytics,
    analyze_proof_shape,
    check_regression,
    compare_runs,
    depgraph_deterministic_view,
    fingerprint,
    write_depgraph_dot,
    write_depgraph_jsonl,
)
from repro.obs.live import (
    LiveStatusWriter,
    format_bytes,
    format_top_table,
    read_live_statuses,
)
from repro.obs.mem import (
    MemProfiler,
    MemSampler,
    arena_mem_stats,
    parse_proc_status,
    read_rss,
    record_arena_gauges,
    reset_peak_rss,
)
from repro.obs.progress import ProgressReporter
from repro.obs.registry import (
    DEFAULT_TIME_BUCKETS,
    DEFAULT_WORK_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.schema import (
    CHECKPOINT_SCHEMA,
    KNOWN_SCHEMAS,
    LIVE_SCHEMA,
    TRACE_SCHEMA,
    deterministic_view,
    validate_any,
    validate_checkpoint,
    validate_depgraph,
    validate_live,
    validate_trace,
)
from repro.obs.spans import (
    Tracer,
    make_run_id,
    make_trace_id,
    read_jsonl,
    rebase_epoch,
    worker_tracer,
)
from repro.obs.timeline import (
    attribution_summary,
    build_timeline,
    render_timeline_html,
    render_timeline_text,
)

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
    "collapsed_stack_text",
    "DepGraphRecorder",
    "HistoryStore",
    "ProofShapeAnalytics",
    "analyze_proof_shape",
    "check_regression",
    "compare_runs",
    "fingerprint",
    "write_depgraph_dot",
    "write_depgraph_jsonl",
    "KNOWN_SCHEMAS",
    "CHECKPOINT_SCHEMA",
    "validate_checkpoint",
    "TRACE_SCHEMA",
    "DEPGRAPH_SCHEMA",
    "RUN_SCHEMA",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_WORK_BUCKETS",
    "LIVE_SCHEMA",
    "validate_live",
    "make_trace_id",
    "rebase_epoch",
    "worker_tracer",
    "build_timeline",
    "attribution_summary",
    "render_timeline_text",
    "render_timeline_html",
    "LiveStatusWriter",
    "read_live_statuses",
    "format_top_table",
    "format_bytes",
    "MemSampler",
    "MemProfiler",
    "read_rss",
    "reset_peak_rss",
    "parse_proc_status",
    "arena_mem_stats",
    "record_arena_gauges",
]
