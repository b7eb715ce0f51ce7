"""The shared instrumented report builder.

:class:`ReportBuilder` is the single construction point of every
verification report.  It owns the run clock, so every report's
``verification_time`` is measured identically, and the common fields
(``procedure``, ``mode``, ``jobs``, ``warnings``), so a driver states
them once.  It accumulates the
:class:`~repro.verify.report.VerificationStats` breakdown: disjoint
phase times always (a handful of clock reads per run) and, with an
:class:`~repro.obs.context.Obs` attached, what
:func:`~repro.verify.verification.scan` times inline — each check into
two histograms, the slowest-K heap and the progress heartbeat, and the
marking walks into one total.  It feeds the metrics registry and the
tracer, keeping the drivers' loops free of exporter knowledge.
"""

from __future__ import annotations

import heapq
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

from repro.verify.report import VerificationStats

# How many slowest checks a stats breakdown names.
SLOWEST_K = 5


class ReportBuilder:
    """Single construction point for verification reports.

    ``report_cls`` is the report class to build (every one has a
    ``bcp_counters`` field); ``common`` fields are
    merged into every :meth:`build` call (per-call fields win).  When
    ``obs`` is given, the builder also keeps per-check metrics and a
    progress heartbeat; the histograms are looked up once, here.
    """

    def __init__(self, report_cls, *, obs=None, total_checks: int = 0,
                 **common):
        self._report_cls = report_cls
        self._common = dict(common)
        self.obs = obs
        self._start = time.perf_counter()
        self._phase_times: dict[str, float] = defaultdict(float)
        self._checks = 0
        # Seconds of marking walks the scan timed; :meth:`phase` moves
        # them out of the phase they ran in.
        self.marking = 0.0
        # Min-heap of (seconds, -index): the root is the fastest of the
        # current slowest-K, evicted when something slower arrives.
        self._slowest: list[tuple[float, int]] = []
        self.progress = self._seconds = self._work = None
        if obs is not None:
            self.progress = obs.progress_reporter(total_checks)
            self._seconds = obs.histogram(
                "repro_check_seconds",
                help="Wall time per proof-clause check")
            self._work = obs.histogram(
                "repro_check_work", work=True,
                help="Propagation work units per check")

    # -- phases ------------------------------------------------------------

    @contextmanager
    def phase(self, name: str, **attrs):
        """Time a coarse phase (build, checks, core, pool): two clock
        reads, so it runs with or without obs.

        The marking walks timed inside it are the ``marking`` phase
        instead, so no two phases overlap; with a tracer the phase is a
        span, and their total a span that ends where it ends.
        """
        start = time.perf_counter()
        before = self.marking
        with (self.obs.span(name, **attrs) if self.obs is not None
              else nullcontext()):
            try:
                yield
            finally:
                marking = self.marking - before
                self._phase_times[name] += \
                    time.perf_counter() - start - marking
        if marking:
            self._phase_times["marking"] += marking
            if self.obs is not None and self.obs.tracer is not None:
                self.obs.tracer.split_tail("marking", marking)

    # -- per-check instrumentation ----------------------------------------

    def observe_check(self, index: int, seconds: float,
                      work: int) -> None:
        """Record one check the scan timed (obs-enabled path only):
        its wall time and propagation work into the histograms, the
        slowest-K heap, and a progress tick."""
        self._checks += 1
        if self._seconds is not None:
            self._seconds.observe(seconds)
            self._work.observe(work)
        self.merge_slowest(((index, seconds),))
        if self.progress is not None:
            self.progress.update(self._checks)

    def merge_slowest(self, slowest) -> None:
        """Fold ``(index, seconds)`` pairs into the slowest-K heap (one
        check's, or a worker shard's slowest list)."""
        for index, seconds in slowest:
            entry = (seconds, -index)
            if len(self._slowest) < SLOWEST_K:
                heapq.heappush(self._slowest, entry)
            elif entry > self._slowest[0]:
                heapq.heapreplace(self._slowest, entry)

    # -- finishing ---------------------------------------------------------

    def elapsed(self) -> float:
        return time.perf_counter() - self._start

    def stats(self, counters: dict[str, int] | None = None,
              ) -> VerificationStats:
        props = 0
        if counters is not None:
            props = counters.get("assignments", 0) \
                + counters.get("clause_visits", 0)
        slowest = tuple(
            (-neg_index, seconds)
            for seconds, neg_index in sorted(self._slowest,
                                             reverse=True))
        return VerificationStats(
            total_time=self.elapsed(),
            phase_times=dict(self._phase_times),
            props=props, checks=self._checks,
            slowest_checks=slowest)

    def build(self, outcome: str, *, bcp_counters: dict | None = None,
              **fields):
        """Construct the report: common fields + per-call fields +
        the measured ``verification_time`` and ``stats``."""
        if self.obs is not None and bcp_counters is not None:
            self.obs.record_bcp_counters(bcp_counters)
        merged = {**self._common, **fields}
        if bcp_counters is not None:
            merged.setdefault("bcp_counters", bcp_counters)
        # Checks that ran without per-check timing (the disabled fast
        # path, or pool workers whose observations were not merged)
        # still count toward the stats breakdown.
        num_checked = merged.get("num_checked")
        if isinstance(num_checked, int) and num_checked > self._checks:
            self._checks = num_checked
        # Finish the heartbeat only after the reconciliation above, so
        # a pool run's final line reports the real check count.
        if self.progress is not None:
            self.progress.finish(self._checks)
            self.progress = None
        if self.obs is not None:
            self.obs.counter_add("repro_verify_checks_total",
                                 self._checks,
                                 help="Proof-clause checks executed")
        merged["stats"] = self.stats(bcp_counters)
        return self._report_cls(
            outcome=outcome,
            verification_time=self.elapsed(),
            **merged)
