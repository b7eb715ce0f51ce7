"""The shared instrumented report builder.

Before this module, every verification driver hand-rolled its reports:
a dozen call sites each remembered to compute
``verification_time=time.perf_counter() - start`` and to copy the
``mode``/``jobs``/``warnings`` boilerplate — a drift bug waiting to
happen (and one that did happen: early versions disagreed on whether
setup time counted).  :class:`ReportBuilder` is now the single
construction point:

* it owns the run clock, so every report's ``verification_time`` is
  measured identically (setup included);
* it owns the common fields (``procedure``, ``mode``, ``jobs``,
  ``warnings``), so a driver states them once;
* it accumulates the :class:`~repro.verify.report.VerificationStats`
  breakdown (phase times always — that is a handful of clock reads per
  run; per-check timing, histograms, and slowest-K only when an
  :class:`~repro.obs.context.Obs` is attached);
* it feeds the metrics registry and tracer, keeping the drivers' loops
  free of exporter knowledge.
"""

from __future__ import annotations

import heapq
import time
from contextlib import contextmanager, nullcontext

from repro.verify.report import VerificationStats

# How many slowest checks a stats breakdown names.
SLOWEST_K = 5


class ReportBuilder:
    """Single construction point for verification reports.

    ``report_cls`` is the report class to build (every one has a
    ``bcp_counters`` field); ``common`` fields are
    merged into every :meth:`build` call (per-call fields win).  When
    ``obs`` is given, the builder also maintains per-check metrics and
    a progress heartbeat; when it is ``None`` the per-check surface is
    a single ``is None`` branch.
    """

    def __init__(self, report_cls, *, obs=None, total_checks: int = 0,
                 **common):
        self._report_cls = report_cls
        self._common = dict(common)
        self.obs = obs
        self._start = time.perf_counter()
        self._phase_times: dict[str, float] = {}
        self._checks = 0
        # Min-heap of (seconds, -index): the root is the fastest of the
        # current slowest-K, evicted when something slower arrives.
        self._slowest: list[tuple[float, int]] = []
        self.progress = (obs.progress_reporter(total_checks)
                         if obs is not None else None)

    # -- phases ------------------------------------------------------------

    @contextmanager
    def phase(self, name: str, **attrs):
        """Time a coarse phase (setup, checks, pool...).

        Cheap enough to run unconditionally: two clock reads per phase,
        a handful of phases per run.  Emits a trace span when tracing
        is on.
        """
        start = time.perf_counter()
        with (self.obs.span(name, **attrs) if self.obs is not None
              else nullcontext()):
            try:
                yield
            finally:
                self._phase_times[name] = self._phase_times.get(
                    name, 0.0) + time.perf_counter() - start

    # -- per-check instrumentation ----------------------------------------

    @contextmanager
    def check(self, index: int, counters=None):
        """Instrument one proof-clause check (obs-enabled path only).

        Wraps the check in a ``check`` trace span, observes wall time
        and propagation work into histograms, maintains the slowest-K
        heap, and ticks the progress heartbeat.  Drivers call this only
        when ``obs`` is attached; the disabled path calls the checker
        directly.
        """
        obs = self.obs
        work_before = counters.total_work() if counters is not None else 0
        start = time.perf_counter()
        with obs.span("check", index=index):
            try:
                yield
            finally:
                seconds = time.perf_counter() - start
                self._checks += 1
                obs.observe_seconds(
                    "repro_check_seconds", seconds,
                    help="Wall time per proof-clause check")
                self.merge_slowest(((index, seconds),))
                if counters is not None:
                    obs.observe_work(
                        "repro_check_work",
                        counters.total_work() - work_before,
                        help="Propagation work units per check")
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
        num_checked = merged.get("num_checked",
                                 merged.get("num_additions"))
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
