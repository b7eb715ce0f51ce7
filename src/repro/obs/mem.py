"""Measured memory: one read of the process's resident set.

Everything else in ``repro.obs`` counts *work*; this module measures
what the work *costs in resident memory* — the quantity that actually
kills industrial proof checking (DRAT-trim-style checkers are
memory-bound long before they are CPU-bound).

:func:`read_rss` returns the process's current and peak resident set,
from ``/proc/self/status`` (``VmRSS``/``VmHWM``) with a
``resource.getrusage`` fallback on platforms without procfs.  The peak
is the kernel's high-water mark, so one read at the end of a run gives
the run's exact peak: the trace's ``run_summary`` takes one, each pool
worker takes one per shard, and the streaming checker takes one per
window shift for its drift check.  A failed read returns ``None`` and
never changes a verdict.
"""

from __future__ import annotations

import sys

PROC_STATUS_PATH = "/proc/self/status"


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
    ``resource.getrusage`` (peak only, so current is reported equal to
    peak).  Returns ``None`` when neither source works.
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
            # ru_maxrss is in bytes on macOS and in KiB elsewhere.
            peak_bytes = peak if sys.platform == "darwin" else peak * 1024
            return (peak_bytes, peak_bytes, "getrusage")
    except (ImportError, OSError, ValueError):
        pass
    return None
