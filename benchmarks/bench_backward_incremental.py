"""Benchmark: rebuild vs incremental vs parallel Proof_verification1.

Measures what the incremental backward engine buys on the paper's
Table 1 instances: wall-clock verification time plus the engine's
propagation counters (assignments, watch visits, clause visits, purged
watch entries).  The ``rebuild`` rows re-pay the full unit pass per
check; ``incremental`` keeps the persistent root trail and retires
clauses behind the moving ceiling; ``arena`` runs the incremental
checker on the flat clause-arena engine (blocker literals skip clause
bodies — visible in the ``clause_visits`` column); ``parallel`` shards
the incremental checker across a process pool, and ``arena-parallel``
does the same with the clause database in one zero-copy shared-memory
arena.

The ``streaming`` family is different in kind: deletion-chain traces
(``repro.benchgen.deletion_chain``) checked by the one-pass
bounded-memory driver (``repro verify-stream``) under a
``max_live_clauses`` cap set ~10x below the trace's addition volume —
the record proves the over-cap proof verifies inside the budget and
logs the live-window peak and window-shift count alongside the usual
medians.

Runs in two forms:

* under pytest (``pytest benchmarks/ --benchmark-only``) as table rows
  alongside the other paper-table benchmarks;
* standalone (``python benchmarks/bench_backward_incremental.py``),
  appending one JSON record per (instance, variant) to
  ``BENCH_verification.json`` for trend tracking in CI.  Standalone
  wall times are the **median of ``--repeats`` runs** (default 3;
  single-shot times on a noisy runner swing by ±25%), all raw times
  are kept in the record, and each invocation stamps an
  ``environment`` record (python/platform/cpu count) so rows can be
  traced to the stack that produced them.  Every row family also
  carries memory columns — measured ``peak_rss_bytes`` (kernel
  watermark reset per repeat where supported) and, for the arena
  engine, the ``arena_peak_bytes`` pool high-water mark — and the
  ``--overhead-instance`` record bounds both the metrics-only and the
  background-memory-sampler instrumentation cost.
"""

import json
import os
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # standalone: make src/ + repo root importable
    for path in (REPO_ROOT / "src", REPO_ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))

import pytest

from repro.obs import (
    MemSampler,
    MetricsRegistry,
    Obs,
    read_rss,
    reset_peak_rss,
)
from repro.verify.parallel import default_jobs
from repro.verify.verification import verify_proof_v1

from benchmarks.conftest import (
    TableCollector,
    register_collector,
    solved_instance,
)

INCREMENTAL_INSTANCES = ("eq_add8", "barrel5", "stack8_8", "w6_10",
                         "pipe_2")

# variant -> (engine, mode, order, parallel).
VARIANT_SPECS = {
    "rebuild": (None, "rebuild", "backward", False),
    "incremental": (None, "incremental", "backward", False),
    "arena": ("arena", "incremental", "backward", False),
    "parallel": (None, "incremental", "backward", True),
    "arena-parallel": ("arena", "incremental", "backward", True),
}
VARIANTS = tuple(VARIANT_SPECS)

# The backward-incremental pair (standalone runs): a pipe-family
# instance checked backward in incremental mode on the arena engine,
# sequentially and across the pool, so the parallel row is compared
# with the best sequential path (see backward_pair_lines).
BACKWARD_PAIR_INSTANCES = ("pipe_5",)
BACKWARD_PAIR_VARIANTS = ("arena", "arena-parallel")

# The streaming family: deletion-chain traces whose addition volume is
# ~10x the live-clause cap they are verified under.  ``chain400`` is
# the acceptance configuration (10 * cap additions through a cap-40
# window), ``chain2000`` matches the CI streaming job, ``chain20000``
# is the throughput row.  (name -> n_vars, window, max_live_clauses)
STREAMING_SPECS = {
    "chain400": (400, 8, 40),
    "chain2000": (2000, 8, 200),
    "chain20000": (20000, 16, 2000),
}
STREAMING_ENGINES = ("watched", "arena")


class _PeakRssMeter:
    """Per-repeat peak-RSS bookkeeping for the standalone records.

    On Linux, :func:`repro.obs.reset_peak_rss` clears the kernel's
    ``VmHWM`` watermark before each timed repeat so :func:`read_rss`
    afterwards reports the peak attributable to *that* repeat.  Where
    the reset is unsupported the peaks are cumulative across the whole
    invocation; the record says so via ``peak_rss_reset`` so trend
    tooling knows which comparisons are honest.  The two procfs
    touches per repeat are far below timer resolution.
    """

    def __init__(self):
        self.peaks: list[int] = []
        self.reset_ok = True

    def before_repeat(self) -> None:
        self.reset_ok = reset_peak_rss() and self.reset_ok

    def after_repeat(self) -> None:
        reading = read_rss()
        if reading is not None:
            self.peaks.append(reading[1])

    def fields(self) -> dict:
        if not self.peaks:
            return {"peak_rss_bytes": None, "peak_rss_reset": False}
        return {"peak_rss_bytes": max(self.peaks),
                "peak_rss_reset": self.reset_ok}


def _arena_peak_bytes(metrics: MetricsRegistry) -> int | None:
    """The high-water arena pool size a metrics-attached run recorded
    (gauge ``repro_mem_arena_pool_bytes``); None for engines without an
    arena or runs that never published the gauge."""
    entry = metrics.snapshot().get("repro_mem_arena_pool_bytes")
    if entry is None:
        return None
    return entry["value"]["max"]

_table = register_collector(TableCollector(
    "Backward verification1: rebuild vs incremental vs arena "
    "vs parallel",
    f"{'Name':<10} {'variant':<15} {'jobs':>4} {'time(s)':>8} "
    f"{'assigns':>10} {'watch_vis':>10} {'clause_vis':>10} "
    f"{'purged':>8}"))

# rebuild-variant counters per instance, for the reduction assertion.
_rebuild_counters: dict[str, dict[str, int]] = {}


def run_variant(formula, proof, variant: str, jobs: int, obs=None):
    engine, mode, order, parallel = VARIANT_SPECS[variant]
    return verify_proof_v1(formula, proof, engine, order=order,
                           mode=mode, jobs=jobs if parallel else 1,
                           obs=obs)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", INCREMENTAL_INSTANCES)
def test_backward_incremental(benchmark, name, variant):
    data = solved_instance(name)
    jobs = default_jobs() if VARIANT_SPECS[variant][3] else 1

    report = benchmark.pedantic(
        run_variant, args=(data.formula, data.proof, variant, jobs),
        rounds=1, iterations=1)

    assert report.ok
    assert report.num_checked == len(data.proof)
    counters = report.bcp_counters
    if variant == "rebuild":
        _rebuild_counters[name] = counters
    elif variant == "incremental" and name in _rebuild_counters:
        base = _rebuild_counters[name]
        assert counters["assignments"] + counters["watch_visits"] \
            < base["assignments"] + base["watch_visits"], (
            "incremental mode must reduce propagation work vs rebuild")
    _table.add(
        f"{name:<10} {variant:<15} {jobs:>4} "
        f"{report.verification_time:>8.3f} "
        f"{counters['assignments']:>10,} "
        f"{counters['watch_visits']:>10,} "
        f"{counters['clause_visits']:>10,} {counters['purged']:>8,}")


# -- standalone entry point ---------------------------------------------------

def bench_records(instances, jobs: int, repeats: int = 3,
                  variants=VARIANTS) -> list[dict]:
    """One record per (instance, variant), ready for JSON appending.

    Each variant is run ``repeats`` times and the recorded
    ``verification_time`` is the **median** (all raw times are kept in
    ``times``) — single-shot wall times on shared runners are noise.
    Each record also carries the report's per-phase ``stats``
    breakdown — the same numbers the CLI's ``--stats`` footer prints —
    so the trend log separates setup from check time, plus the memory
    columns: ``peak_rss_bytes`` (max measured peak across the timed
    repeats, watermark-reset per repeat where the kernel allows) and,
    for the arena engine, ``arena_peak_bytes`` from an untimed
    metrics-attached run.
    """
    repeats = max(1, repeats)
    records = []
    for name in instances:
        data = solved_instance(name)
        for variant in variants:
            used_jobs = jobs if VARIANT_SPECS[variant][3] else 1
            times = []
            report = None
            rss = _PeakRssMeter()
            for _ in range(repeats):
                rss.before_repeat()
                report = run_variant(data.formula, data.proof, variant,
                                     used_jobs)
                assert report.ok, f"{name}/{variant} failed verification"
                times.append(report.verification_time)
                rss.after_repeat()
            stats = (report.stats.as_dict()
                     if report.stats is not None else None)
            # Parallel variants get one extra *untimed* instrumented
            # run so the record carries pool attribution (utilization,
            # skew, stragglers) without instrumenting the timed
            # repeats; the arena engine piggybacks its peak pool
            # gauge on the same run (or get their own untimed metrics
            # run when sequential).
            attribution = None
            arena_peak = None
            arena_engine = VARIANT_SPECS[variant][0] == "arena"
            if used_jobs > 1:
                from repro.obs import Tracer
                from repro.obs.timeline import attribution_summary

                traced = Obs(tracer=Tracer(),
                             metrics=MetricsRegistry())
                attributed = run_variant(data.formula, data.proof,
                                         variant, used_jobs,
                                         obs=traced)
                assert attributed.ok
                arena_peak = _arena_peak_bytes(traced.metrics)
                attribution = attribution_summary(traced.tracer.events)
                if attribution is not None:
                    # The per-shard rows are bulky; the trend log only
                    # needs the pool-efficiency summary.
                    attribution = {
                        k: attribution[k]
                        for k in ("utilization", "skew_ratio",
                                  "workers")}
            elif arena_engine:
                metered = Obs(metrics=MetricsRegistry())
                gauged = run_variant(data.formula, data.proof, variant,
                                     1, obs=metered)
                assert gauged.ok
                arena_peak = _arena_peak_bytes(metered.metrics)
            median = statistics.median(times)
            records.append({
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                           time.gmtime()),
                "instance": name,
                "variant": variant,
                "mode": report.mode,
                "engine": report.engine,
                "jobs": report.jobs,
                "ok": report.ok,
                "num_checked": report.num_checked,
                "verification_time": round(median, 6),
                "repeats": repeats,
                "times": [round(t, 6) for t in times],
                "counters": report.bcp_counters,
                "stats": stats,
                "cpu_count": os.cpu_count(),
                "attribution": attribution,
                "arena_peak_bytes": arena_peak,
                **rss.fields(),
            })
            print(f"{name:<10} {variant:<15} jobs={report.jobs} "
                  f"engine={report.engine} "
                  f"median={median:.3f}s of {len(times)} "
                  f"assignments={report.bcp_counters['assignments']:,} "
                  f"watch_visits={report.bcp_counters['watch_visits']:,} "
                  f"clause_visits="
                  f"{report.bcp_counters['clause_visits']:,}")
    return records


def streaming_records(names, repeats: int = 3,
                      engines=STREAMING_ENGINES) -> list[dict]:
    """One record per (chain instance, engine) for the streaming family.

    Each trace is written to a temp directory with
    :func:`repro.benchgen.write_deletion_chain_drup` (streamed, never
    materialized) and checked with :func:`repro.verify.verify_stream`
    under a ``max_live_clauses`` budget ~10x below the addition count.
    The recorded ``over_cap_factor`` is that ratio; every record
    asserts the proof verified *correct* inside the cap.
    """
    import tempfile

    from repro.benchgen.streaming import (
        deletion_chain_formula,
        write_deletion_chain_drup,
    )
    from repro.verify.budget import CheckBudget
    from repro.verify.streaming import verify_stream

    repeats = max(1, repeats)
    records = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-stream-") \
            as workdir:
        for name in names:
            n_vars, window, cap = STREAMING_SPECS[name]
            formula = deletion_chain_formula(n_vars)
            trace = Path(workdir) / f"{name}.drup"
            info = write_deletion_chain_drup(trace, n_vars,
                                             window=window)
            for engine in engines:
                times = []
                report = None
                rss = _PeakRssMeter()
                for _ in range(repeats):
                    rss.before_repeat()
                    report = verify_stream(
                        formula, trace, engine_cls=engine,
                        budget=CheckBudget(max_live_clauses=cap))
                    assert report.ok, \
                        f"{name}/{engine} failed streaming verification"
                    times.append(report.verification_time)
                    rss.after_repeat()
                assert report.num_additions == info["additions"]
                # One untimed metrics-attached run for the arena
                # gauges the streaming driver records at every window
                # shift and at the verdict.
                arena_peak = None
                if engine == "arena":
                    metered = Obs(metrics=MetricsRegistry())
                    gauged = verify_stream(
                        formula, trace, engine_cls=engine,
                        budget=CheckBudget(max_live_clauses=cap),
                        obs=metered)
                    assert gauged.ok
                    arena_peak = _arena_peak_bytes(metered.metrics)
                median = statistics.median(times)
                records.append({
                    "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                               time.gmtime()),
                    "kind": "streaming",
                    "instance": name,
                    "variant": f"streaming-{engine}",
                    "engine": report.engine,
                    "n_vars": n_vars,
                    "window": window,
                    "max_live_clauses": cap,
                    "over_cap_factor": round(
                        info["additions"] / cap, 2),
                    "ok": report.ok,
                    "additions": report.num_additions,
                    "deletions": report.num_deletions,
                    "peak_live_clauses": report.peak_live_clauses,
                    "window_shifts": report.window_shifts,
                    "verification_time": round(median, 6),
                    "repeats": repeats,
                    "times": [round(t, 6) for t in times],
                    "counters": report.bcp_counters,
                    "stats": (report.stats.as_dict()
                              if report.stats is not None else None),
                    "arena_peak_bytes": arena_peak,
                    **rss.fields(),
                })
                print(f"{name:<10} streaming/{engine:<8} "
                      f"median={median:.3f}s of {len(times)} "
                      f"additions={report.num_additions:,} "
                      f"(cap {cap}, "
                      f"{info['additions'] / cap:.0f}x over) "
                      f"peak_live={report.peak_live_clauses:,} "
                      f"shifts={report.window_shifts}")
    return records


def backward_pair_lines(records: list[dict]) -> list[str]:
    """Summarize each ``arena-parallel`` row against the sequential
    ``arena`` row of the same instance: median wall-clock speedup and
    the work counters (watch visits, purged entries) of both."""
    by_key: dict[tuple[str, str], dict] = {
        (r["instance"], r["variant"]): r for r in records
        if "variant" in r}
    lines = []
    for (name, variant), rec in by_key.items():
        sequential = by_key.get((name, "arena"))
        if variant != "arena-parallel" or sequential is None:
            continue
        par, seq = rec["counters"], sequential["counters"]
        wall, seq_wall = (rec["verification_time"],
                          sequential["verification_time"])
        lines.append(
            f"{name}: jobs={rec['jobs']} median {wall:.3f}s vs "
            f"sequential {seq_wall:.3f}s ({seq_wall / wall:.2f}x); "
            f"watch visits {par['watch_visits'] / seq['watch_visits']:.2f}x"
            f" sequential; purged {par['purged']:,} vs "
            f"{seq['purged']:,}")
    return lines


def environment_record() -> dict:
    """The stack a bench invocation ran on."""
    import platform

    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "kind": "environment",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def overhead_record(name: str, repeats: int = 3,
                    mem_period: float = 0.05) -> dict:
    """Measure what attaching instrumentation costs on one instance.

    Runs the incremental variant ``repeats`` times plain (``obs=None``,
    the disabled fast path), ``repeats`` times with a metrics registry
    attached, and ``repeats`` times with the metrics registry *plus* a
    background :class:`~repro.obs.MemSampler` ticking every
    ``mem_period`` seconds; takes the best of each (noise floor) and
    reports the enabled-vs-disabled overheads.  The
    ``enabled_overhead_pct`` number is the "disabled means free" CI
    gate (memory sampling never attaches unless asked for, so the
    metrics-only row is the cost every instrumented run pays);
    ``mem_sampler_overhead_pct`` bounds the sampling thread on top of
    that.  The instrumented run's registry snapshot (the ``metrics``
    field of the ``run_summary`` event that closes a ``repro verify
    --trace-out`` trace) is embedded so the trend log carries the
    full metric set.
    """
    data = solved_instance(name)
    disabled = min(
        run_variant(data.formula, data.proof,
                    "incremental", 1).verification_time
        for _ in range(repeats))
    enabled_times = []
    snapshot = None
    for _ in range(repeats):
        obs = Obs(metrics=MetricsRegistry())
        report = run_variant(data.formula, data.proof, "incremental",
                             1, obs=obs)
        assert report.ok
        enabled_times.append(report.verification_time)
        snapshot = obs.metrics.snapshot()
    enabled = min(enabled_times)
    mem_times = []
    mem_samples = 0
    for _ in range(repeats):
        sampler = MemSampler()
        obs = Obs(metrics=MetricsRegistry(), mem=sampler)
        sampler.start(mem_period)
        try:
            report = run_variant(data.formula, data.proof,
                                 "incremental", 1, obs=obs)
        finally:
            sampler.stop()
            # Runs shorter than one period still record a reading.
            sampler.sample()
        assert report.ok
        mem_times.append(report.verification_time)
        mem_samples = max(mem_samples, len(sampler.samples))
    mem_enabled = min(mem_times)

    def _pct(value):
        return (round(100.0 * (value - disabled) / disabled, 2)
                if disabled > 0 else None)

    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "kind": "instrumentation_overhead",
        "instance": name,
        "disabled_time": round(disabled, 6),
        "enabled_time": round(enabled, 6),
        "enabled_overhead_pct": _pct(enabled),
        "mem_sampler_time": round(mem_enabled, 6),
        "mem_sampler_period": mem_period,
        "mem_sampler_samples": mem_samples,
        "mem_sampler_overhead_pct": _pct(mem_enabled),
        # The sampler's *marginal* cost over metrics-only — the number
        # the "<3% when not profiling" acceptance gate reads.
        "mem_sampler_marginal_pct": (
            round(100.0 * (mem_enabled - enabled) / enabled, 2)
            if enabled > 0 else None),
        "metrics": snapshot,
    }


def compare_to_baseline(records: list[dict],
                        baseline: list[dict]) -> list[str]:
    """Per-(instance, variant) time delta vs a prior record list.

    Matches each new record to the latest baseline record of the same
    instance/variant and reports the percent change — the acceptance
    guard for "the disabled path costs nothing".
    """
    latest: dict[tuple[str, str], float] = {}
    for rec in baseline:
        if "instance" in rec and "variant" in rec \
                and "verification_time" in rec:
            latest[(rec["instance"], rec["variant"])] = \
                rec["verification_time"]
    lines = []
    for rec in records:
        key = (rec.get("instance"), rec.get("variant"))
        before = latest.get(key)
        if before is None or not before:
            continue
        delta = 100.0 * (rec["verification_time"] - before) / before
        rec["baseline_delta_pct"] = round(delta, 2)
        lines.append(f"{key[0]}/{key[1]}: {before:.3f}s -> "
                     f"{rec['verification_time']:.3f}s "
                     f"({delta:+.1f}%)")
    return lines


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Benchmark rebuild/incremental/parallel backward "
                    "verification and append records to a JSON log.")
    parser.add_argument("--instances", nargs="*",
                        default=list(INCREMENTAL_INSTANCES),
                        help="registry instance names for the full "
                             "variant sweep (pass no names to skip; "
                             f"default: {' '.join(INCREMENTAL_INSTANCES)})")
    parser.add_argument("--jobs", type=int,
                        default=max(2, default_jobs()),
                        help="worker processes for the parallel variant "
                             "(min 2, so the pool path always runs)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per (instance, variant); the "
                             "recorded time is the median (default 3)")
    parser.add_argument("--backward-pair-instances", nargs="*",
                        default=list(BACKWARD_PAIR_INSTANCES),
                        metavar="NAME",
                        help="instances for the backward-incremental "
                             "arena sequential/parallel pair (pass no "
                             "names to skip; default: "
                             f"{' '.join(BACKWARD_PAIR_INSTANCES)})")
    parser.add_argument("--streaming-instances", nargs="*",
                        default=list(STREAMING_SPECS),
                        metavar="NAME",
                        help="deletion-chain instances for the "
                             "bounded-memory streaming family (pass "
                             "no names to skip; default: "
                             f"{' '.join(STREAMING_SPECS)})")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_verification.json",
                        help="JSON file to append records to")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="prior record list to diff the disabled-"
                             "path times against (percent deltas are "
                             "stamped into the new records)")
    parser.add_argument("--overhead-instance", default=None,
                        metavar="NAME",
                        help="also measure instrumentation overhead "
                             "(enabled vs disabled obs) on this "
                             "instance and append the record")
    args = parser.parse_args(argv)

    records = [environment_record()]
    records += bench_records(args.instances, args.jobs,
                             repeats=args.repeats)
    if args.backward_pair_instances:
        records += bench_records(args.backward_pair_instances,
                                 args.jobs,
                                 repeats=args.repeats,
                                 variants=BACKWARD_PAIR_VARIANTS)
        for line in backward_pair_lines(records):
            print(f"backward-pair: {line}")
    if args.streaming_instances:
        records += streaming_records(args.streaming_instances,
                                     repeats=args.repeats)
    if args.baseline is not None and args.baseline.exists():
        for line in compare_to_baseline(
                records, json.loads(args.baseline.read_text())):
            print(f"baseline: {line}")
    if args.overhead_instance:
        record = overhead_record(args.overhead_instance)
        print(f"instrumentation overhead on {record['instance']}: "
              f"disabled={record['disabled_time']:.3f}s "
              f"enabled={record['enabled_time']:.3f}s "
              f"({record['enabled_overhead_pct']:+.1f}%) "
              f"mem-sampled={record['mem_sampler_time']:.3f}s "
              f"({record['mem_sampler_overhead_pct']:+.1f}%, "
              f"{record['mem_sampler_samples']} samples)")
        records.append(record)
    existing = []
    if args.output.exists():
        existing = json.loads(args.output.read_text())
    existing.extend(records)
    args.output.write_text(json.dumps(existing, indent=2) + "\n")
    print(f"appended {len(records)} records to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
