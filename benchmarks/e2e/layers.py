"""Per-layer numbers from the traced pass.

A span's self time is its duration minus the part of it its child spans
cover; a layer's number is the self time of its spans summed over the
pass.  ``cli.boot_s`` is what the child's spans cannot see: from spawn
to the entry's first timestamp, and from its last timestamp to reap.
A span whose function the program no longer has (see trace.TARGETS)
is listed as missing, and the metrics built on it read 0.
"""

from __future__ import annotations

import json
from collections import defaultdict

from . import oracle

# Span name (see trace.TARGETS) -> per-layer time metric.
SPAN_METRICS = {
    "cli.import": "cli.import_s",
    "cli.main": "cli.self_s",
    "core.read_dimacs": "core.read_dimacs_s",
    "proofs.read_proof": "proofs.read_proof_s",
    "proofs.write_proof": "proofs.write_proof_s",
    "proofs.from_log": "proofs.from_log_s",
    "proofs.sizes": "proofs.sizes_s",
    "solver.solve": "solver.solve_s",
    "checker.build": "checker.build_s",
    "bcp.check": "bcp.check_s",
    "marking": "marking.s",
    "verify.driver": "verify.driver_self_s",
    "obs.history": "obs.history_s",
    "parallel.plan": "parallel.plan_s",
    "parallel.pool": "parallel.pool_s",
}

# Span name -> the other per-layer metrics computed from its spans.
SPAN_DERIVED = {
    "solver.solve": ("solver.conflicts", "solver.propagations",
                     "solver.log_overhead_pct"),
    "bcp.check": ("bcp.ns_per_watch_visit",),
    "marking": ("marking.calls",),
}


def lost_metrics(missing_spans) -> set[str]:
    """The per-layer metrics that read 0 because their spans are
    missing."""
    return {metric for span in missing_spans
            for metric in (SPAN_METRICS[span],) + SPAN_DERIVED.get(span, ())}


def read_spans(path: str) -> tuple[dict, list[dict]]:
    """The header and the spans a traced child wrote."""
    with open(path, encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    return lines[0], lines[1:]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per span name: duration minus the duration of direct
    children (which already contain their own children)."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        totals[span["name"]] += span["end"] - span["start"] - covered[index]
    return dict(totals)


def span_counts(spans: list[dict]) -> dict[str, int]:
    """Calls per span name plus the counts spans carry, summed, keyed
    ``<span>.calls`` and ``<span>.<count>``."""
    out: dict[str, int] = defaultdict(int)
    for span in spans:
        out[f"{span['name']}.calls"] += 1
        for key, value in (span["counts"] or {}).items():
            out[f"{span['name']}.{key}"] += value
    return dict(out)


class TracedPass:
    """Accumulates the traced children of one pass."""

    def __init__(self):
        self.wall = 0.0
        self.boot = 0.0
        self.times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: set[str] = set()   # traced spans with no target

    def add(self, spawn: float, reap: float, header: dict,
            spans: list[dict]) -> None:
        self.wall += reap - spawn
        self.missing.update(header["missing"])
        self.boot += (header["t_start"] - spawn) + (reap - header["t_end"])
        for name, seconds in self_times(spans).items():
            self.times[name] += seconds
        for key, value in span_counts(spans).items():
            self.counts[key] += value

    def attributed(self) -> float:
        return self.boot + sum(self.times.values())


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(traced: TracedPass, verify_outputs, overhead_pct: float,
                  extras: dict) -> dict[str, float]:
    """Every per-layer metric of one workload.

    ``verify_outputs`` is ``[(stdout, exit_code, proof_len)]`` of the
    traced pass's verify children; ``overhead_pct`` compares the traced
    pass with the untraced median; ``extras`` holds what the
    traced-pass-only invocations measured: ``nolog_solve_s`` (solver
    time without proof logging), ``jobs1_watch_visits`` and
    ``default_wall`` / ``jobs2_wall`` (see workloads.extra_step).
    """
    out = {metric: traced.times.get(span, 0.0)
           for span, metric in SPAN_METRICS.items()}
    out["cli.boot_s"] = traced.boot
    out["solver.conflicts"] = traced.counts.get("solver.solve.conflicts", 0)
    out["solver.propagations"] = traced.counts.get(
        "solver.solve.propagations", 0)
    out["marking.calls"] = traced.counts.get("marking.calls", 0)

    bcp: dict[str, int] = defaultdict(int)
    checks = accepted_checked = accepted_total = 0
    rejected_checked = rejected_total = worker_failures = 0
    for stdout, code, proof_len in verify_outputs:
        for key, value in oracle.parse_bcp(stdout).items():
            bcp[key] += value
        worker_failures += oracle.parse_worker_failures(stdout)
        checked, skipped = oracle.parse_checked(stdout) or (0, 0)
        checks += checked
        if code == 0:
            accepted_checked += checked
            accepted_total += checked + skipped
        elif code == 1 and proof_len:
            rejected_checked += checked
            rejected_total += proof_len
    out["bcp.checks"] = checks
    for key in ("assignments", "watch_visits", "clause_visits", "purged"):
        out[f"bcp.{key}"] = bcp.get(key, 0)
    out["bcp.ns_per_watch_visit"] = _ratio(
        out["bcp.check_s"] * 1e9, out["bcp.watch_visits"])
    out["verify.marked_ratio"] = _ratio(accepted_checked, accepted_total)
    out["reject.checked_fraction"] = _ratio(rejected_checked,
                                            rejected_total)
    out["parallel.worker_failures"] = worker_failures

    nolog = extras.get("solve-nolog_s", 0.0)
    out["solver.log_overhead_pct"] = 100.0 * _ratio(
        extras.get("solve-log_s", 0.0) - nolog, nolog)
    out["parallel.watch_visits_ratio"] = _ratio(
        out["bcp.watch_visits"], extras.get("jobs1_watch_visits", 0))
    out["parallel.speedup_vs_default"] = _ratio(
        extras.get("default_wall", 0.0), extras.get("jobs2_wall", 0.0))
    out["trace.overhead_pct"] = overhead_pct
    out["trace.coverage_pct"] = 100.0 * _ratio(traced.attributed(),
                                               traced.wall)
    return out
