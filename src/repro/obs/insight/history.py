"""Run history: append-only fingerprints with regression detection.

The history store makes *every* run first-class: each CLI verification
appends one **fingerprint** — a compact JSON object with the run's
verdict, wall time, propagation throughput, per-phase times and
proof-shape analytics — to ``.repro/history.jsonl``.  The store is
append-only JSONL, so concurrent runs interleave whole lines and a
crashed run leaves at most a truncated final line (which the reader
skips).

On top of the store sit three CLI verbs (``repro obs history``,
``repro obs compare A B``, ``repro obs check-regression``) backed by
the pure functions here: :func:`compare_runs` produces a per-metric
delta table and :func:`check_regression` evaluates configurable
thresholds, exiting the CLI with code 3 (the resource/limit exit code
family) when a run regressed past them.

Fingerprint schema (``repro.obs.run/v1``)::

    {"schema": "repro.obs.run/v1", "id": "r123-1", "utc": "...",
     "command": "verify", "instance": "php6.cnf",
     "outcome": "proof_is_correct", "procedure": "verification2",
     "mode": "incremental", "engine": "watched", "jobs": 1,
     "wall_time": 0.041,
     "checks": 120, "props": 5113, "props_per_sec": 124707.3,
     "checks_per_sec": 2926.8, "phase_times": {"setup": ..., ...},
     "analytics": {"local_clauses": ..., ...} | null,
     "memory": {"peak_rss_bytes": ..., "tracemalloc_top": [...]}
               | null}

Selectors: runs are addressed by integer position (``0`` first,
``-1`` latest) or by a unique run-id prefix.
"""

from __future__ import annotations

import json
import os
import time

RUN_SCHEMA = "repro.obs.run/v1"

DEFAULT_HISTORY_DIR = ".repro"
HISTORY_FILENAME = "history.jsonl"


def default_history_dir() -> str:
    """The store location: ``$REPRO_HISTORY_DIR`` or ``.repro``.

    The environment override keeps the store relocatable without
    per-command flags — CI jobs and test harnesses point it at a
    scratch directory so runs never write into the working tree.
    """
    return os.environ.get("REPRO_HISTORY_DIR") or DEFAULT_HISTORY_DIR

# Metrics compared/thresholded, with their direction: +1 means larger
# is worse (times), -1 means smaller is worse (throughput).
_COMPARED = (
    ("wall_time", +1),
    ("checks", 0),
    ("props", 0),
    ("props_per_sec", -1),
    ("checks_per_sec", -1),
)


def fingerprint(report, *, run_id: str, command: str,
                instance: str | None = None,
                analytics=None,
                wall_time: float | None = None,
                attribution: dict | None = None,
                memory: dict | None = None) -> dict:
    """A run's history record, from its report (and optional analytics).

    ``wall_time`` defaults to the report's ``verification_time``;
    ``analytics`` is a :class:`~repro.obs.insight.analytics.
    ProofShapeAnalytics` (or ``None`` when insight capture was off);
    ``attribution`` is the compact parallel-run summary from
    :func:`repro.obs.timeline.attribution_summary` (``None`` for
    sequential runs or runs without tracing); ``memory`` is the
    measured-memory section (``peak_rss_bytes``, optional
    ``tracemalloc_top``) from the run's
    :class:`~repro.obs.mem.MemSampler`, ``None`` when sampling was
    off or never produced a reading.
    """
    wall = report.verification_time if wall_time is None else wall_time
    stats = report.stats
    bcp = getattr(report, "bcp_counters", None)
    props = stats.props if stats is not None else (
        sum(bcp.values()) if bcp else 0)
    # The forward DRUP report counts additions, not checks.
    checks = getattr(report, "num_checked",
                     getattr(report, "num_additions", 0))
    record = {
        "schema": RUN_SCHEMA,
        "id": run_id,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "command": command,
        "instance": instance,
        "outcome": report.outcome,
        "procedure": getattr(report, "procedure", command),
        "mode": getattr(report, "mode", None),
        "engine": getattr(report, "engine", None),
        "jobs": getattr(report, "jobs", 1),
        "wall_time": round(wall, 6),
        "checks": checks,
        "props": props,
        "props_per_sec": round(props / wall, 1) if wall > 0 else 0.0,
        "checks_per_sec": round(checks / wall, 1) if wall > 0 else 0.0,
        "phase_times": ({name: round(seconds, 6) for name, seconds
                         in stats.phase_times.items()}
                        if stats is not None else {}),
        "analytics": None,
        "attribution": attribution,
        "memory": memory,
    }
    if analytics is not None:
        shape = analytics.as_dict()
        record["analytics"] = {
            key: shape[key] for key in (
                "local_clauses", "global_clauses",
                "estimated_resolution_nodes", "proof_literals",
                "marked_fraction", "core_size", "max_chain_depth")}
    return record


class HistoryStore:
    """The append-only ``history.jsonl`` under a ``.repro`` directory."""

    def __init__(self, directory: str | None = None):
        if directory is None:
            directory = default_history_dir()
        self.directory = directory
        self.path = os.path.join(directory, HISTORY_FILENAME)

    def append(self, record: dict) -> None:
        """Append one fingerprint line (creating the store on first use).

        One ``write`` call per line: concurrent appenders in append
        mode interleave whole records, never halves.
        """
        os.makedirs(self.directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    def read(self) -> list[dict]:
        """All fingerprints, oldest first; lenient about torn tails."""
        if not os.path.exists(self.path):
            return []
        records: list[dict] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn tail of a crashed appender
                if isinstance(record, dict) \
                        and record.get("schema") == RUN_SCHEMA:
                    records.append(record)
        return records

    def prune(self, keep: int) -> int:
        """Drop all but the newest ``keep`` fingerprints; returns how
        many were removed.

        The store is append-only and otherwise grows without bound —
        one line per CLI run adds up on a box running benchmarks in a
        loop.  The rewrite is atomic (tmp + replace, like every
        artifact writer), so a concurrent reader sees either the old
        or the new store, never a torn one.  A concurrent *appender*
        racing the replace can lose its line — prune is an operator
        action, not something to run under live traffic.
        """
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        records = self.read()
        if len(records) <= keep:
            return 0
        kept = records[len(records) - keep:]
        from repro.obs.export import atomic_write_text

        text = "".join(json.dumps(record, sort_keys=True) + "\n"
                       for record in kept)
        atomic_write_text(self.path, text)
        return len(records) - keep

    def select(self, selector: str) -> dict:
        """Resolve an index (``-1``, ``2``) or run-id prefix to a run."""
        records = self.read()
        if not records:
            raise LookupError(f"history store {self.path} is empty")
        try:
            return records[int(selector)]
        except ValueError:
            pass
        except IndexError:
            raise LookupError(
                f"history index {selector} out of range "
                f"(store holds {len(records)} runs)") from None
        matches = [record for record in records
                   if record["id"].startswith(selector)]
        if not matches:
            raise LookupError(f"no run with id prefix {selector!r} "
                              f"in {self.path}")
        if len({record["id"] for record in matches}) > 1:
            raise LookupError(
                f"run id prefix {selector!r} is ambiguous: "
                + ", ".join(sorted({r['id'] for r in matches})[:5]))
        return matches[-1]


def load_fingerprint(path) -> dict:
    """Read a standalone fingerprint JSON file (a committed baseline)."""
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    if not isinstance(record, dict) \
            or record.get("schema") != RUN_SCHEMA:
        raise ValueError(
            f"{path} is not a {RUN_SCHEMA} fingerprint "
            f"(schema={record.get('schema') if isinstance(record, dict) else None!r})")
    return record


def _delta_pct(old, new) -> float | None:
    if not isinstance(old, (int, float)) \
            or not isinstance(new, (int, float)) or old == 0:
        return None
    return 100.0 * (new - old) / old


def compare_runs(a: dict, b: dict) -> list[dict]:
    """Per-metric delta rows between two fingerprints (a = baseline).

    Each row: ``{"metric", "a", "b", "delta", "delta_pct", "worse"}``
    where ``worse`` says whether the change is in the metric's bad
    direction (``None`` for direction-free metrics like check counts).
    """
    rows: list[dict] = []

    def row(metric: str, old, new, direction: int) -> dict:
        delta = (new - old if isinstance(old, (int, float))
                 and isinstance(new, (int, float)) else None)
        pct = _delta_pct(old, new)
        worse = None
        if direction and pct is not None:
            worse = pct * direction > 0
        return {"metric": metric, "a": old, "b": new,
                "delta": delta, "delta_pct": pct, "worse": worse}

    # Engine first: a delta table comparing different BCP engines reads
    # very differently (counters are engine-specific), so say so up top.
    rows.append(row("engine", a.get("engine"), b.get("engine"), 0))
    for metric, direction in _COMPARED:
        rows.append(row(metric, a.get(metric), b.get(metric), direction))
    phases = sorted(set(a.get("phase_times", {}))
                    | set(b.get("phase_times", {})))
    for phase in phases:
        rows.append(row(f"phase:{phase}",
                        a.get("phase_times", {}).get(phase),
                        b.get("phase_times", {}).get(phase), +1))
    shape_a, shape_b = a.get("analytics"), b.get("analytics")
    if shape_a and shape_b:
        for key in sorted(set(shape_a) | set(shape_b)):
            rows.append(row(f"analytics:{key}", shape_a.get(key),
                            shape_b.get(key), 0))
    attr_a, attr_b = a.get("attribution"), b.get("attribution")
    if attr_a and attr_b:
        rows.append(row("attribution:utilization",
                        attr_a.get("utilization"),
                        attr_b.get("utilization"), -1))
        rows.append(row("attribution:skew_ratio",
                        attr_a.get("skew_ratio"),
                        attr_b.get("skew_ratio"), +1))
        rows.append(row("attribution:workers",
                        attr_a.get("workers"),
                        attr_b.get("workers"), 0))
    mem_a, mem_b = a.get("memory"), b.get("memory")
    if mem_a and mem_b:
        # Lower is better.
        rows.append(row("memory:peak_rss_bytes",
                        mem_a.get("peak_rss_bytes"),
                        mem_b.get("peak_rss_bytes"), +1))
    return rows


def format_compare_table(a: dict, b: dict,
                         rows: list[dict] | None = None) -> str:
    """The ``repro obs compare`` delta table, aligned and annotated."""
    if rows is None:
        rows = compare_runs(a, b)
    header = ["metric", a.get("id", "A"), b.get("id", "B"),
              "delta", "delta%"]
    table: list[list[str]] = [header]
    for row in rows:
        def cell(value):
            if value is None:
                return "-"
            if isinstance(value, float):
                return f"{value:.6g}"
            return str(value)

        pct = row["delta_pct"]
        pct_text = "-" if pct is None else f"{pct:+.1f}%"
        if row["worse"]:
            pct_text += " !"
        table.append([row["metric"], cell(row["a"]), cell(row["b"]),
                      cell(row["delta"]), pct_text])
    widths = [max(len(line[col]) for line in table)
              for col in range(len(header))]
    lines = []
    for index, line in enumerate(table):
        lines.append("  ".join(
            cell.ljust(width) for cell, width in zip(line, widths))
            .rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def check_regression(baseline: dict, current: dict, *,
                     max_wall_pct: float | None = None,
                     max_props_drop_pct: float | None = None,
                     max_phase_pct: float | None = None,
                     min_utilization_pct: float | None = None,
                     max_peak_rss_growth_pct: float | None = None,
                     ) -> list[str]:
    """Threshold violations of ``current`` against ``baseline``.

    Each threshold is optional (``None`` skips that check):

    * ``max_wall_pct`` — wall time may grow at most this % over the
      baseline;
    * ``max_props_drop_pct`` — props/s throughput may drop at most
      this %;
    * ``max_phase_pct`` — every individual phase time may grow at most
      this %;
    * ``min_utilization_pct`` — an absolute floor on the current run's
      recorded worker utilization (parallel runs with an attribution
      section only; a run without one skips the check — utilization
      is undefined for sequential runs);
    * ``max_peak_rss_growth_pct`` — measured peak RSS may grow at most
      this % over the baseline (runs whose fingerprints carry a
      ``memory`` section only; either side missing skips the check —
      an unmeasured run cannot be gated).

    Returns human-readable violation lines (empty: no regression).
    A current run with a worse outcome than the baseline is always a
    violation — a slower-but-correct run is a regression, a wrong one
    is a failure.
    """
    violations: list[str] = []
    if baseline.get("outcome") != current.get("outcome"):
        violations.append(
            f"outcome changed: {baseline.get('outcome')} -> "
            f"{current.get('outcome')}")
    if max_wall_pct is not None:
        pct = _delta_pct(baseline.get("wall_time"),
                         current.get("wall_time"))
        if pct is not None and pct > max_wall_pct:
            violations.append(
                f"wall_time regressed {pct:+.1f}% "
                f"({baseline['wall_time']:.6g}s -> "
                f"{current['wall_time']:.6g}s; threshold "
                f"+{max_wall_pct:g}%)")
    if max_props_drop_pct is not None:
        pct = _delta_pct(baseline.get("props_per_sec"),
                         current.get("props_per_sec"))
        if pct is not None and -pct > max_props_drop_pct:
            violations.append(
                f"props_per_sec dropped {pct:+.1f}% "
                f"({baseline['props_per_sec']:.6g} -> "
                f"{current['props_per_sec']:.6g}; threshold "
                f"-{max_props_drop_pct:g}%)")
    if max_phase_pct is not None:
        base_phases = baseline.get("phase_times", {})
        for phase, seconds in sorted(
                current.get("phase_times", {}).items()):
            pct = _delta_pct(base_phases.get(phase), seconds)
            if pct is not None and pct > max_phase_pct:
                violations.append(
                    f"phase {phase} regressed {pct:+.1f}% "
                    f"({base_phases[phase]:.6g}s -> {seconds:.6g}s; "
                    f"threshold +{max_phase_pct:g}%)")
    if min_utilization_pct is not None:
        attribution = current.get("attribution") or {}
        utilization = attribution.get("utilization")
        if isinstance(utilization, (int, float)) \
                and utilization * 100.0 < min_utilization_pct:
            violations.append(
                f"worker utilization {utilization * 100:.1f}% below "
                f"floor {min_utilization_pct:g}%")
    if max_peak_rss_growth_pct is not None:
        mem_base = baseline.get("memory") or {}
        mem_cur = current.get("memory") or {}
        pct = _delta_pct(mem_base.get("peak_rss_bytes"),
                         mem_cur.get("peak_rss_bytes"))
        if pct is not None and pct > max_peak_rss_growth_pct:
            violations.append(
                f"peak RSS regressed {pct:+.1f}% "
                f"({mem_base['peak_rss_bytes']} -> "
                f"{mem_cur['peak_rss_bytes']} bytes; threshold "
                f"+{max_peak_rss_growth_pct:g}%)")
    return violations


def format_history(records: list[dict], limit: int = 20) -> str:
    """The ``repro obs history`` listing, newest last."""
    if not records:
        return "history is empty"
    shown = records[-limit:]
    offset = len(records) - len(shown)
    header = ["#", "id", "utc", "command", "instance", "outcome",
              "wall", "props/s"]
    table = [header]
    for position, record in enumerate(shown, start=offset):
        table.append([
            str(position), record.get("id", "-"),
            record.get("utc", "-"), record.get("command", "-"),
            str(record.get("instance") or "-"),
            record.get("outcome", "-"),
            f"{record.get('wall_time', 0.0):.3f}s",
            f"{record.get('props_per_sec', 0.0):.6g}",
        ])
    widths = [max(len(line[col]) for line in table)
              for col in range(len(header))]
    lines = []
    for index, line in enumerate(table):
        lines.append("  ".join(
            cell.ljust(width)
            for cell, width in zip(line, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
