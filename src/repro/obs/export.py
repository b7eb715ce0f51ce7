"""Exporters: the trace's run summary and the human footer.

* :func:`run_summary` — the attrs of the ``run_summary`` event the CLI
  appends to every ``--trace-out`` trace: the registry snapshot, the
  report's stats, the memory summary, and the proof-shape analytics,
  so the trace is the run's one telemetry artifact;
* :func:`stats_footer` — the human ``c stats:`` lines the CLI prints
  with ``--stats`` (DIMACS-style comment lines, like DRAT-trim's
  verbose statistics).

Every file-producing exporter goes through :func:`atomic_write_text`
(write ``path.tmp``, then ``os.replace``): a reader never observes a
truncated artifact, and an interrupted run (KeyboardInterrupt, budget
exhaustion) leaves either the previous artifact or a complete new one.
"""

from __future__ import annotations

import os


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (``path.tmp`` + replace).

    The temp file lives next to the target so ``os.replace`` stays a
    same-filesystem rename; a failure mid-write leaves the target
    untouched and removes the temp file.
    """
    path = os.fspath(path)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run_summary(obs, command: str, report=None,
                analytics=None) -> dict:
    """The attrs of a run's closing ``run_summary`` trace event.

    ``report`` is None for an interrupted run (``interrupted: true``,
    ``elapsed: null``); ``analytics`` is the run's
    :class:`~repro.obs.insight.analytics.ProofShapeAnalytics`, when a
    dependency graph was recorded.  ``mem`` is the sampler's summary,
    plus the tracemalloc phase attribution under ``--mem-profile``.
    """
    mem = None
    if obs.mem is not None:
        mem = obs.mem.summary()
        if obs.mem_profiler is not None:
            mem["tracemalloc"] = obs.mem_profiler.document()
    stats = report.stats if report is not None else None
    return {
        "command": command,
        "elapsed": (report.verification_time
                    if report is not None else None),
        "interrupted": report is None,
        "stats": stats.as_dict() if stats is not None else None,
        "metrics": (obs.metrics.snapshot()
                    if obs.metrics is not None else {}),
        "mem": mem,
        "analytics": (analytics.as_dict()
                      if analytics is not None else None),
    }


def stats_footer(stats: dict | None,
                 bcp_counters: dict | None = None) -> list[str]:
    """Human-readable ``c stats:`` lines from a report's breakdown.

    ``stats`` is a :meth:`~repro.verify.report.VerificationStats.
    as_dict` mapping; ``bcp_counters`` the engine counter totals.
    Returns the lines without trailing newlines; empty input, empty
    output.
    """
    lines: list[str] = []
    if stats:
        phases = stats.get("phase_times") or {}
        phase_text = " ".join(f"{name}={seconds:.3f}s"
                              for name, seconds in phases.items())
        line = f"c stats: total={stats.get('total_time', 0.0):.3f}s"
        if phase_text:
            line += f" ({phase_text})"
        lines.append(line)
        checks = stats.get("checks", 0)
        props = stats.get("props", 0)
        detail = f"c stats: checks={checks} props={props}"
        total = stats.get("total_time") or 0.0
        if checks and total > 0:
            detail += f" checks_per_sec={checks / total:.0f}"
        lines.append(detail)
        slowest = stats.get("slowest_checks") or []
        if slowest:
            worst = " ".join(f"#{index}={seconds * 1000:.1f}ms"
                             for index, seconds in slowest)
            lines.append(f"c stats: slowest checks: {worst}")
    if bcp_counters:
        pairs = " ".join(f"{key}={value}"
                         for key, value in bcp_counters.items())
        lines.append(f"c stats: bcp {pairs}")
    return lines
