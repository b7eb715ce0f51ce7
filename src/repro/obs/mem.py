"""Measured memory telemetry: RSS sampling and tracemalloc.

Everything else in ``repro.obs`` counts *work*; this module measures
what the work *costs in resident memory* — the quantity that actually
kills industrial proof checking (DRAT-trim-style checkers are
memory-bound long before they are CPU-bound).  Two layers:

* :func:`read_rss` — the process's current and peak resident set, from
  ``/proc/self/status`` (``VmRSS``/``VmHWM``) with a
  ``resource.getrusage`` fallback on platforms without procfs.  One
  read is a single small file open — cheap enough to ride the progress
  heartbeat.
* :class:`MemSampler` — accumulates samples into a bounded buffer,
  publishes ``repro_mem_*`` gauges, and stamps each sample as a
  ``mem_sample`` trace event (so samples carry the cross-process trace
  context and land on the ``repro obs timeline`` memory lane).  An
  optional background thread samples at a fixed period for runs whose
  heartbeat is too coarse.  **A sampler failure can never affect a
  verdict**: every read is guarded, and after a few consecutive
  failures the sampler declares itself dead and goes quiet.

A traced run's ``run_summary`` event carries the sampler's
:meth:`MemSampler.summary` (plus the tracemalloc section) and the
``repro_mem_*`` gauges; the samples themselves are the trace's
``mem_sample`` events.  Tracemalloc phase attribution is opt-in
(``--mem-profile``) because tracing allocations is the one genuinely
expensive facility here.
"""

from __future__ import annotations

import os
import threading
import time

PROC_STATUS_PATH = "/proc/self/status"

#: Sample-buffer cap: past this the buffer is thinned by dropping
#: every other sample, so an arbitrarily long run keeps a bounded,
#: roughly uniform sample of its memory trajectory.
MAX_SAMPLES = 4096

#: Consecutive read failures after which the sampler declares itself
#: dead (stops trying, stops beating) instead of retrying forever.
MAX_CONSECUTIVE_FAILURES = 5


def parse_proc_status(text: str) -> dict:
    """Extract ``VmRSS``/``VmHWM`` (in bytes) from ``/proc/<pid>/status``
    text.  Missing fields are simply absent from the result — the
    caller decides whether that is fatal."""
    result: dict = {}
    fields = {"VmRSS": "rss_bytes", "VmHWM": "peak_rss_bytes"}
    for line in text.splitlines():
        name, _, rest = line.partition(":")
        key = fields.get(name.strip())
        if key is None:
            continue
        parts = rest.split()
        if not parts:
            continue
        try:
            value = int(parts[0])
        except ValueError:
            continue
        # The kernel always reports these in kB.
        result[key] = value * 1024
    return result


def read_rss(proc_status_path: str = PROC_STATUS_PATH,
             ) -> tuple[int, int, str] | None:
    """``(rss_bytes, peak_rss_bytes, source)`` for this process.

    Prefers ``/proc/self/status`` (current *and* peak); falls back to
    ``resource.getrusage`` (peak only — ``ru_maxrss`` is KiB on
    Linux — so current is reported equal to peak).  Returns ``None``
    when neither source works.
    """
    try:
        with open(proc_status_path, encoding="ascii",
                  errors="replace") as handle:
            parsed = parse_proc_status(handle.read())
        if "rss_bytes" in parsed:
            return (parsed["rss_bytes"],
                    parsed.get("peak_rss_bytes", parsed["rss_bytes"]),
                    "proc")
    except OSError:
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if peak > 0:
            # Linux reports KiB; macOS reports bytes.  Treat values
            # that are implausibly large for KiB (> 16 TiB) as bytes.
            peak_bytes = peak * 1024 if peak < 2 ** 44 else peak
            return (peak_bytes, peak_bytes, "getrusage")
    except (ImportError, OSError, ValueError):
        pass
    return None


class MemSampler:
    """Samples process RSS into metrics, trace events, and a buffer.

    ``metrics``/``tracer`` are the sinks (either may be None);
    ``reader`` is the RSS source (:func:`read_rss`, injectable for
    tests).  :meth:`sample` never raises: failures are counted and
    past :data:`MAX_CONSECUTIVE_FAILURES` the sampler marks itself
    ``dead`` — the run's verdict and exit code are unaffected.
    """

    def __init__(self, metrics=None, tracer=None, reader=read_rss,
                 wall=time.time):
        self.metrics = metrics
        self.tracer = tracer
        self._reader = reader
        self._wall = wall
        self.samples: list[dict] = []
        self.source: str | None = None
        self.failures = 0
        self._consecutive_failures = 0
        self.dead = False
        self._peak = 0
        self._last_rss = 0
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._lock = threading.Lock()

    def bind(self, metrics, tracer) -> None:
        """Late-wire the sinks (the Obs bundle owns them)."""
        if self.metrics is None:
            self.metrics = metrics
        if self.tracer is None:
            self.tracer = tracer

    # -- sampling ----------------------------------------------------------

    def sample(self) -> dict | None:
        """Take one sample; swallow every failure."""
        if self.dead:
            return None
        try:
            reading = self._reader()
        except Exception:
            reading = None
        if reading is None:
            self.failures += 1
            self._consecutive_failures += 1
            if self._consecutive_failures >= MAX_CONSECUTIVE_FAILURES:
                self.dead = True
            return None
        self._consecutive_failures = 0
        rss, peak, source = reading
        now = self._wall()
        entry = {"ts": now, "rss_bytes": rss, "peak_rss_bytes": peak}
        with self._lock:
            self.source = source
            self._last_rss = rss
            if peak > self._peak:
                self._peak = peak
            self.samples.append(entry)
            if len(self.samples) > MAX_SAMPLES:
                self.samples = self.samples[::2]
        try:
            if self.metrics is not None:
                self.metrics.gauge(
                    "repro_mem_rss_bytes",
                    help="Sampled resident set size").set(rss)
                self.metrics.gauge(
                    "repro_mem_peak_rss_bytes",
                    help="OS-reported peak resident set size").set(peak)
            if self.tracer is not None:
                self.tracer.event("mem_sample", rss_bytes=rss,
                                  peak_rss_bytes=peak, source=source)
        except Exception:
            self.failures += 1
        return entry

    # -- background thread -------------------------------------------------

    def start(self, period: float) -> None:
        """Sample every ``period`` seconds on a daemon thread, for
        runs whose progress heartbeat is too coarse (or absent).  The
        thread swallows everything: its death is invisible to the
        verification outcome."""
        if self._thread is not None:
            return
        self._stop.clear()

        def _loop() -> None:
            try:
                while not self._stop.wait(period):
                    self.sample()
                    if self.dead:
                        break
            except Exception:
                self.dead = True

        self._thread = threading.Thread(
            target=_loop, name="repro-mem-sampler", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=2.0)
        self._thread = None

    # -- views -------------------------------------------------------------

    @property
    def peak_rss_bytes(self) -> int | None:
        return self._peak or None

    @property
    def rss_bytes(self) -> int | None:
        return self._last_rss or None

    def summary(self) -> dict:
        return {"peak_rss_bytes": self.peak_rss_bytes,
                "rss_bytes": self.rss_bytes,
                "num_samples": len(self.samples),
                "source": self.source,
                "sampler_failures": self.failures,
                "sampler_dead": self.dead}


# -- tracemalloc phase attribution ----------------------------------------

class MemProfiler:
    """Optional tracemalloc-backed phase attribution (``--mem-profile``).

    Allocation tracing is the one expensive facility in this module
    (every allocation takes a traceback), so it is off by default and
    gated behind an explicit flag; the measured overhead is recorded
    by the benchmark harness alongside the sampler's.  Phase marks
    record the traced current/peak at span boundaries and reset the
    traced peak, so each phase's peak is its own."""

    def __init__(self, top: int = 10):
        self.top = top
        self.phases: dict[str, dict] = {}
        self.top_allocations: list[dict] = []
        self.active = False

    def start(self) -> None:
        try:
            import tracemalloc

            tracemalloc.start()
            self.active = True
        except Exception:
            self.active = False

    def mark(self, phase: str) -> None:
        """Record the traced current/peak against ``phase`` and reset
        the peak for the next one."""
        if not self.active:
            return
        try:
            import tracemalloc

            current, peak = tracemalloc.get_traced_memory()
            entry = self.phases.setdefault(
                phase, {"current_bytes": 0, "peak_bytes": 0})
            entry["current_bytes"] = current
            entry["peak_bytes"] = max(entry["peak_bytes"], peak)
            tracemalloc.reset_peak()
        except Exception:
            pass

    def stop(self) -> None:
        if not self.active:
            return
        try:
            import tracemalloc

            snapshot = tracemalloc.take_snapshot()
            stats = snapshot.statistics("lineno")[:self.top]
            self.top_allocations = [
                {"site": f"{stat.traceback[0].filename}:"
                         f"{stat.traceback[0].lineno}",
                 "size_bytes": stat.size, "count": stat.count}
                for stat in stats]
            tracemalloc.stop()
        except Exception:
            pass
        self.active = False

    def document(self) -> dict | None:
        if not self.phases and not self.top_allocations:
            return None
        return {"phases": self.phases, "top": self.top_allocations}

