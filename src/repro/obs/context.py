"""The ``Obs`` bundle: what a verification run carries around.

Every instrumented entry point accepts ``obs: Obs | None = None``.
``None`` — the default everywhere — is the *disabled fast path*: the
drivers branch on it once per check at most, the BCP hot loops never
see it at all, and no registry, tracer, or clock is touched.  An
:class:`Obs` carries up to four optional facilities:

* ``metrics`` — a :class:`~repro.obs.registry.MetricsRegistry`;
* ``tracer`` — a :class:`~repro.obs.spans.Tracer` (JSONL event log);
* ``progress`` — heartbeat configuration (stream + interval); the
  drivers instantiate one
  :class:`~repro.obs.progress.ProgressReporter` per run once the
  total check count is known;
* ``depgraph`` — a :class:`~repro.obs.insight.depgraph.
  DepGraphRecorder`; with one attached the verification scan appends
  each checked clause's conflict-analysis antecedents (the proof
  dependency graph) to its record list, and the parallel parent folds
  worker record buffers in like metric snapshots.

The helpers (`span`, `event`, `counter_add`, ...) are null-safe with
respect to the *facilities* — an ``Obs`` with only a tracer ignores
metric calls — so drivers guard on ``obs is not None`` once and then
call helpers unconditionally.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from repro.obs.progress import ProgressReporter
from repro.obs.registry import (
    DEFAULT_TIME_BUCKETS,
    DEFAULT_WORK_BUCKETS,
    MetricsRegistry,
)
from repro.obs.spans import Tracer, make_run_id

_NULL = nullcontext()


class Obs:
    """Optional instrumentation facilities threaded through a run."""

    def __init__(self, metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 progress_stream=None,
                 progress_interval: float = 0.5,
                 run_id: str | None = None,
                 depgraph=None):
        if run_id is None:
            run_id = tracer.run_id if tracer is not None else make_run_id()
        self.run_id = run_id
        self.metrics = metrics
        self.tracer = tracer
        self.depgraph = depgraph
        self.progress_stream = progress_stream
        self.progress_interval = progress_interval
        self.started = time.perf_counter()

    @classmethod
    def enabled(cls, tracing: bool = True, progress_stream=None,
                depgraph: bool = False) -> "Obs":
        """An Obs with everything on — the library-user one-liner."""
        if depgraph:
            from repro.obs.insight.depgraph import DepGraphRecorder

            recorder = DepGraphRecorder()
        else:
            recorder = None
        return cls(metrics=MetricsRegistry(),
                   tracer=Tracer() if tracing else None,
                   progress_stream=progress_stream,
                   depgraph=recorder)

    # -- tracing -----------------------------------------------------------

    def span(self, name: str, **attrs):
        if self.tracer is None:
            return _NULL
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **attrs) -> None:
        if self.tracer is not None:
            self.tracer.event(name, **attrs)

    # -- metrics -----------------------------------------------------------

    def counter_add(self, name: str, amount: int = 1,
                    help: str = "") -> None:
        # amount == 0 still registers the counter: a zero-valued
        # worker_failures_total in the snapshot says "measured, none"
        # rather than "never measured".
        if self.metrics is not None:
            self.metrics.counter(name, help=help).inc(amount)

    def gauge_set(self, name: str, value: float, help: str = "") -> None:
        if self.metrics is not None:
            self.metrics.gauge(name, help=help).set(value)

    def observe_seconds(self, name: str, value: float,
                        help: str = "") -> None:
        if self.metrics is not None:
            self.metrics.histogram(
                name, help=help,
                buckets=DEFAULT_TIME_BUCKETS).observe(value)

    def observe_work(self, name: str, value: int, help: str = "") -> None:
        if self.metrics is not None:
            self.metrics.histogram(
                name, help=help,
                buckets=DEFAULT_WORK_BUCKETS).observe(value)

    def record_bcp_counters(self, counters: dict[str, int]) -> None:
        """Publish engine ``PropagationCounters`` totals as counters.

        The hot loops keep maintaining their plain-int counters; the
        drivers call this once per run (or the parallel parent once
        per merged result), so the registry stays off the hot path.
        """
        if self.metrics is None:
            return
        for key, value in counters.items():
            self.metrics.counter(
                f"repro_bcp_{key}_total",
                help=f"BCP engine counter: {key}").inc(value)

    def merge_worker_metrics(self, snapshot: dict | None) -> None:
        """Fold a worker's registry snapshot into this run's registry."""
        if self.metrics is not None and snapshot:
            self.metrics.merge(snapshot)

    # -- provenance --------------------------------------------------------

    @property
    def wants_depgraph(self) -> bool:
        return self.depgraph is not None

    def merge_worker_depgraph(self, records) -> None:
        """Fold a worker's dependency record buffer in (order-free:
        the exporter sorts by check index)."""
        if self.depgraph is not None and records:
            self.depgraph.merge(records)

    def publish_depgraph_totals(self) -> None:
        """Summarize the captured graph as counters, once per run."""
        if self.depgraph is None or self.metrics is None:
            return
        self.metrics.counter(
            "repro_depgraph_checks_total",
            help="Checks with recorded provenance").inc(
                self.depgraph.num_checks)
        self.metrics.counter(
            "repro_depgraph_edges_total",
            help="Antecedent edges in the proof dependency graph").inc(
                self.depgraph.num_edges)

    # -- progress ----------------------------------------------------------

    def progress_reporter(self, total: int) -> ProgressReporter | None:
        if self.progress_stream is None:
            return None
        return ProgressReporter(total, stream=self.progress_stream,
                                interval=self.progress_interval)
