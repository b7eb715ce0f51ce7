"""Fault-tolerant process-parallel backend for ``Proof_verification1``.

The checks of Proof_verification1 are independent by construction (each
one is a self-contained BCP run over ``F ∪ F*_{<i}``), so the proof
indices can be sharded across a pool of worker processes.  Each worker
builds its checker once, runs each shard through
:func:`~repro.verify.verification.scan` (the loop sequential
verification runs), and streams shard verdicts back.

One transport carries the clause database to the workers: the pool
initializer's ``initargs`` hold the formula, the proof, the engine
class, the checker mode, the budget meter, the fault map and the
observability fields.  Under ``fork`` the workers inherit them through
copy-on-write, so nothing large is pickled; under ``spawn`` they are
pickled once per worker.  Either way every worker runs the engine the
run asked for.  :func:`select_backend` only picks the start method
(``fork`` when available, else ``spawn``), and the choice is announced
with a ``backend_selected`` obs event; ``REPRO_START_METHOD`` (or the
``start_method`` parameter) forces a specific start method, which is
how the fork-vs-spawn report-identity guarantee is tested.

Failure reporting stays deterministic regardless of pool scheduling:
every shard scans backward and reports the first failure it meets, and
the parent reduces shard failures with max (the first failure a
sequential backward scan would hit is the *highest* failing index).

The proof is cut into contiguous equal-count shards
(:func:`make_shards`) and the shards are submitted high→low.  The pool
hands work out first-in first-out, so every worker meets its shards
with falling ceilings, and each worker's incremental checker retires
the clauses above the current shard for good, as in a sequential
backward scan.  Submitting high→low is also largest-first, because
high-index checks propagate over the most clauses.  Should a worker
ever see a rising ceiling, the checker raises ``ValueError``; an
ordering slip fails loudly and never flips a verdict.

Fault tolerance
---------------
A production verifier cannot assume its workers survive: an OOM kill or
a segfault in a worker must degrade the run, not wedge it.  Shards are
therefore dispatched individually through a
:class:`~concurrent.futures.ProcessPoolExecutor`, whose prompt
``BrokenProcessPool`` signal detects a dead worker.  The run is one
loop over three rungs, each running only the shards that have no
result yet:

0. a pool;
1. a fresh pool;
2. in process, sequentially, through the same :func:`_run_shard` —
   correctness is never sacrificed, only parallelism.

A ``BrokenProcessPool`` anywhere in a pool rung, from a finished
future or from a ``submit`` after the break, ends that rung and counts
as a worker failure; every shard without a result climbs to the next
rung.  A dead worker ships nothing back and a shard with a result
never runs again, so each shard yields exactly one result.  Every lost
shard execution is counted in :attr:`ShardRunResult.worker_failures`
and each climb is described in :attr:`ShardRunResult.warnings`, both
of which surface in the :class:`~repro.verify.report.VerificationReport`.

Budgets: the parent's :class:`~repro.verify.budget.BudgetMeter` is
handed to every worker, each of which rebases it onto its own
engine counters and aborts its shard cleanly when the shared deadline
(or its per-process ``max_props`` share) runs out; the parent then
reports ``resource_limit_exceeded`` with the work that did complete.

Observability: with an :class:`~repro.obs.context.Obs` attached, each
worker buffers a ``shard`` trace span, per-check time/work histograms,
and its slowest-K checks *locally* and ships them back inside the
:class:`ShardResult`; the parent replays the trace events (stamped
with the shard bounds) and folds the metric snapshots into its own
registry — merging is associative, so completion order does not
matter.  Worker failures, retries, and the in-process rung are
emitted as trace events, the shard queue depth as a gauge, and the
parent ticks the opt-in progress heartbeat as shard results arrive.
BCP counter totals are *not* shipped in the worker snapshots — the
parent publishes the reduced ``ShardRunResult.counters`` once, so
nothing is double-counted.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, get_context

from repro.bcp import engine_name
from repro.bcp.engine import PropagatorBase
from repro.core.formula import CnfFormula
from repro.proofs.conflict_clause import ConflictClauseProof
from repro.verify.budget import BudgetMeter
from repro.verify.checker import ProofChecker
from repro.verify.instrument import ReportBuilder
from repro.verify.verification import ScanResult, scan

# Worker state: set by the pool initializer from its ``initargs``, then
# extended per process with the lazily built checker.
_SHARED: dict = {}

# Test-only fault injection: shard -> number of times a worker should
# die (hard exit, as an OOM kill would) before executing it.  Populated
# in the parent and shipped to the workers with the initargs; workers
# consult it with the attempt number the parent passes along, so a
# retried shard survives.
_FAULTS: dict[tuple[int, int], int] = {}


def fork_available() -> bool:
    """Whether the fork-based pool backend can run on this platform."""
    return "fork" in get_all_start_methods()


def select_backend(start_method: str | None = None) -> str:
    """Pick the pool's start method for a run.

    ``fork`` when available, else ``spawn`` (which every CPython
    platform has).  ``start_method`` (or a ``REPRO_START_METHOD``
    environment override) forces a specific method; an unavailable one
    raises ``ValueError``.
    """
    methods = get_all_start_methods()
    if start_method is None:
        env = os.environ.get("REPRO_START_METHOD")
        if env is not None and env.strip():
            start_method = env.strip()
    if start_method is not None:
        if start_method not in methods:
            raise ValueError(
                f"start method {start_method!r} is not available on "
                f"this platform (have {tuple(methods)})")
        return start_method
    return "fork" if "fork" in methods else "spawn"


def install_fault(shard: tuple[int, int], deaths: int = 1) -> None:
    """Arrange for the worker executing ``shard`` to die ``deaths``
    times (testing hook; cleared with :func:`clear_faults`)."""
    _FAULTS[shard] = deaths


def clear_faults() -> None:
    _FAULTS.clear()


#: Minimum checks a shard should carry: below this the per-shard
#: overhead (span bookkeeping, IPC, result pickling) outweighs the
#: balancing benefit of more shards.
MIN_CHECKS_PER_SHARD = 16

#: Over-sharding factor: shards per worker, so a worker that finishes
#: early picks up more of the queue.
SHARDS_PER_JOB = 4


def shard_count(num_indices: int, jobs: int) -> int:
    """How many shards to cut ``num_indices`` checks into.

    Over-shards by :data:`SHARDS_PER_JOB` for dynamic balancing but
    never cuts shards smaller than :data:`MIN_CHECKS_PER_SHARD` (tiny
    shards pay per-shard span/IPC overhead for no balancing gain).  The
    clamp trims the over-sharding only: the count never drops below
    one shard per worker while there are enough checks to go around,
    so a small proof still spreads across the pool instead of idling
    every worker but one.
    """
    if num_indices <= 0:
        return 0
    jobs = max(1, jobs)
    return max(1, min(num_indices,
                      jobs * SHARDS_PER_JOB,
                      max(jobs, num_indices // MIN_CHECKS_PER_SHARD)))


def make_shards(num_indices: int, jobs: int) -> list[tuple[int, int]]:
    """Split ``range(num_indices)`` into contiguous ``(lo, hi)`` shards
    of equal count, in ascending order.

    This is the only partition :func:`run_sharded_v1` executes, so
    tests and tooling can key faults by its exact bounds.  The shard
    count comes from :func:`shard_count`; the backend submits the
    shards high→low, which lets every worker retire clauses.
    """
    if num_indices <= 0:
        return []
    num_shards = shard_count(num_indices, jobs)
    bounds = [round(i * num_indices / num_shards)
              for i in range(num_shards + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(num_shards)
            if bounds[i] < bounds[i + 1]]


@dataclass
class ShardResult:
    """One shard's :class:`~repro.verify.verification.ScanResult`
    (``scan``) plus its counters and observability payload.

    ``counter_delta`` is the shard's BCP counter work.  The
    observability fields are populated only when the run carries an
    ``Obs``: ``metrics`` is the worker's local registry snapshot
    (per-check histograms — never BCP totals, which travel in
    ``counter_delta``), ``slowest`` its slowest checks as
    ``(index, seconds)`` pairs, and ``trace`` the worker's buffered
    trace events, replayed by the parent with the shard id attached.
    ``depgraph`` holds the shard's dependency-graph records.
    """

    scan: ScanResult
    counter_delta: dict[str, int] = field(default_factory=dict)
    duration: float = 0.0
    metrics: dict | None = None
    slowest: tuple = ()
    trace: list = field(default_factory=list)
    depgraph: list = field(default_factory=list)


@dataclass
class ShardRunResult:
    """Aggregated outcome of a sharded verification run: the fields of
    a :class:`~repro.verify.verification.ScanResult` plus the summed
    counters and the pool's failure record."""

    num_checked: int = 0
    num_skipped: int = 0
    failed_index: int | None = None
    budget_reason: str | None = None
    stopped_at_index: int | None = None
    counters: dict[str, int] = field(default_factory=dict)
    worker_failures: int = 0
    warnings: tuple[str, ...] = ()


def _init_worker(spec: dict) -> None:
    """Pool initializer: adopt the run's ``initargs`` as worker state.

    Under ``fork`` the worker inherits ``spec`` with the parent's
    memory; under ``spawn`` it arrives pickled.  The checker itself is
    built lazily, on the worker's first shard, by
    :func:`_worker_checker`.
    """
    _SHARED.clear()
    _SHARED.update(spec)
    _FAULTS.clear()
    _FAULTS.update(spec["faults"])


def _worker_checker() -> ProofChecker:
    checker = _SHARED.get("checker")
    if checker is None:
        # Shards arrive high→low (see run_sharded_v1), so a worker's
        # ceilings only ever fall.
        checker = ProofChecker(
            _SHARED["formula"], _SHARED["proof"], _SHARED["engine_cls"],
            mode=_SHARED["mode"])
        meter: BudgetMeter | None = _SHARED["meter"]
        if meter is not None:
            # Fresh engine in this process: keep the shared deadline but
            # charge work units against this worker's own counters.
            checker.meter = meter.rebase(checker.engine.counters)
        _SHARED["checker"] = checker
    return checker


def _run_shard(checker: ProofChecker, shard: tuple[int, int],
               spec: dict, attempt: int) -> ShardResult:
    """Scan one shard backward with
    :func:`~repro.verify.verification.scan` (shared by the pool
    workers and the in-process rung).

    ``spec`` holds the run's observability fields (built once by
    :func:`run_sharded_v1`).  With ``obs_enabled`` set, per-check wall
    time and propagation work are observed into a shard-local
    registry, the slowest checks are kept, and the whole shard is
    wrapped in a ``shard`` trace span — stamped with the parent's
    ``obs_trace`` id and on the parent's time axis via the shared
    ``(obs_epoch, obs_epoch_wall)`` anchor (rebased when this
    process's monotonic clock is unrelated, i.e. under spawn; see
    :func:`repro.obs.spans.rebase_epoch`).  The span's end attrs carry
    the shard's cost attribution (checks, wall, props, clause_visits)
    and the ``attempt`` number that produced it, so the timeline can
    tell a retried shard's spans apart.  With ``depgraph_enabled``
    set, each passing check's dependency-graph record is buffered
    (shipped back in :attr:`ShardResult.depgraph`, merged order-free
    by the parent).
    """
    lo, hi = shard
    counters = checker.engine.counters
    before = counters.as_dict()
    records = [] if spec["depgraph_enabled"] else None
    build = tracer = None
    if spec["obs_enabled"]:
        from repro.obs.context import Obs
        from repro.obs.registry import MetricsRegistry
        from repro.obs.spans import worker_tracer

        # A metrics-only Obs: the builder times each check into the
        # shard-local registry and emits no per-check span.  A shard
        # builds no report, so the builder has no report class.
        build = ReportBuilder(None, obs=Obs(metrics=MetricsRegistry()))
        tracer = worker_tracer(run_id=spec["obs_run"],
                               epoch=spec["obs_epoch"],
                               epoch_wall=spec["obs_epoch_wall"],
                               trace_id=spec["obs_trace"])
        tracer_cm = tracer.span("shard", lo=lo, hi=hi,
                                pid=os.getpid(), attempt=attempt)
        tracer_cm.__enter__()
    shard_start = time.perf_counter()
    result = scan(checker, range(hi - 1, lo - 1, -1), records=records,
                  instrument=build)
    duration = time.perf_counter() - shard_start
    after = counters.as_dict()
    delta = {key: after[key] - before[key] for key in after}
    if build is not None:
        from repro.obs.mem import read_rss

        obs = build.obs
        # One RSS read per shard (far off the per-check path): the
        # worker's peak resident set, max-merged across the pool via
        # the gauge semantics and attributed per shard on the span.
        peak_rss = None
        reading = read_rss()
        if reading is not None:
            rss, peak_rss, _source = reading
            obs.gauge_set("repro_mem_worker_peak_rss_bytes", peak_rss,
                          help="Peak resident set across pool workers")
        tracer_cm.__exit__(None, None, None)
        # Cost attribution on the span's end attrs: the timeline
        # reconstructor reads these into its per-shard attribution
        # rows, straggler ranking, and memory lane.
        tracer.events[-1]["attrs"].update(
            checks=result.num_checked, wall=duration,
            props=(delta.get("assignments", 0)
                   + delta.get("clause_visits", 0)),
            clause_visits=delta.get("clause_visits", 0),
            peak_rss=peak_rss)
        obs.observe_seconds("repro_shard_seconds", duration,
                            help="Wall time per shard")
    return ShardResult(
        result, counter_delta=delta, duration=duration,
        metrics=build.obs.metrics.snapshot() if build else None,
        slowest=build.stats().slowest_checks if build else (),
        trace=tracer.events if tracer else [],
        depgraph=records or [])


def _shard_worker(shard: tuple[int, int], attempt: int) -> ShardResult:
    deaths = _FAULTS.get(shard, 0)
    if attempt < deaths:
        # Simulate an OOM kill / segfault: bypass Python teardown so the
        # parent sees exactly what a hard worker death looks like.
        os._exit(1)
    return _run_shard(_worker_checker(), shard, _SHARED, attempt)


def _reduce(results: dict[tuple[int, int], ShardResult],
            worker_failures: int, warnings: list[str]) -> ShardRunResult:
    # A backward scan meets the highest index first: the first failure
    # or budget stop a sequential scan would report.
    scans = [r.scan for r in results.values()]
    failures = [r.failed_index for r in scans
                if r.failed_index is not None]
    stopped = [r.stopped_at_index for r in scans
               if r.stopped_at_index is not None]
    budget_reasons = [r.budget_reason for r in scans
                      if r.budget_reason is not None]
    counters: dict[str, int] = {}
    for result in results.values():
        for key, value in result.counter_delta.items():
            counters[key] = counters.get(key, 0) + value
    return ShardRunResult(
        num_checked=sum(r.num_checked for r in scans),
        failed_index=max(failures) if failures else None,
        budget_reason=budget_reasons[0] if budget_reasons else None,
        stopped_at_index=max(stopped) if stopped else None,
        counters=counters, worker_failures=worker_failures,
        warnings=tuple(warnings))


class _ObsSink:
    """Parent-side absorption of per-shard observability payloads.

    Centralizes what happens when a shard result lands, on every rung
    of the recovery ladder: merge the worker's metric snapshot, fold
    its slowest checks into the builder's heap, replay its trace events
    (stamped with the shard bounds), tick the progress heartbeat, and
    track the shard queue depth gauge.
    """

    def __init__(self, obs, builder, num_shards: int):
        self.obs = obs
        self.builder = builder
        self.checked = 0
        if obs is not None:
            obs.counter_add("repro_parallel_shards_total", num_shards,
                            help="Shards the proof was split into")
            # Pre-register the failure-path counters at zero so a
            # healthy run's artifact says "measured, none" rather than
            # omitting them.
            obs.counter_add("repro_parallel_retries_total", 0,
                            help="Shard retry rounds after worker "
                                 "deaths")
            obs.counter_add("repro_parallel_degraded_shards_total", 0,
                            help="Shards that fell back to in-process "
                                 "sequential checking")

    def absorb(self, shard: tuple[int, int], result: ShardResult) -> None:
        self.checked += result.scan.num_checked
        obs = self.obs
        if obs is None:
            return
        obs.merge_worker_metrics(result.metrics)
        obs.merge_worker_depgraph(result.depgraph)
        if obs.tracer is not None and result.trace:
            obs.tracer.replay(result.trace, shard=list(shard))
        if self.builder is not None:
            self.builder.merge_slowest(result.slowest)
            if self.builder.progress is not None:
                self.builder.progress.update(self.checked)

    def queue_depth(self, depth: int) -> None:
        if self.obs is not None:
            self.obs.gauge_set("repro_parallel_queue_depth", depth,
                               help="Shards not yet completed")

    def event(self, name: str, **attrs) -> None:
        if self.obs is not None:
            self.obs.event(name, **attrs)

    def counter(self, name: str, amount: int, help: str = "") -> None:
        if self.obs is not None:
            self.obs.counter_add(name, amount, help=help)


def run_sharded_v1(formula: CnfFormula, proof: ConflictClauseProof,
                   engine_cls: type[PropagatorBase], mode: str, jobs: int,
                   meter: BudgetMeter | None = None,
                   obs=None, builder=None,
                   start_method: str | None = None,
                   ) -> ShardRunResult:
    """Check every proof index across a process pool, surviving faults.

    Returns a :class:`ShardRunResult` whose ``failed_index`` matches
    what a sequential backward scan would report (None when every
    check passes); ``num_checked`` can exceed a failing sequential run's
    count — shards past the failure still ran.  Shards lost to dead
    workers climb the recovery ladder of the module docstring (counted
    in ``worker_failures`` / ``warnings``); an exhausted budget surfaces
    as ``budget_reason`` plus partial progress.

    The start method is picked by :func:`select_backend`
    (``start_method`` / ``REPRO_START_METHOD`` force one); every worker
    runs ``engine_cls``, so the verdict, failure index and check counts
    are identical across start methods.

    ``obs`` (and the driver's ``builder``, for slowest-K and progress)
    attach the instrumentation layer; see the module docstring for
    what is collected where.

    The proof is cut by :func:`make_shards` and every rung runs its
    shards high→low, so each worker, and the in-process checker, sees
    falling ceilings, which is what lets it retire clauses.
    """
    shards = make_shards(len(proof), jobs)[::-1]
    sink = _ObsSink(obs, builder, len(shards))
    # The observability fields of every shard run, on the pool and in
    # process alike.
    tracer = obs.tracer if obs is not None else None
    spec = dict(
        obs_enabled=obs is not None,
        obs_epoch=tracer.epoch if tracer is not None else None,
        obs_epoch_wall=getattr(tracer, "epoch_wall", None),
        obs_trace=getattr(tracer, "trace_id", None),
        obs_run=obs.run_id if obs is not None else None,
        depgraph_enabled=obs is not None and obs.wants_depgraph)
    method = select_backend(start_method)
    sink.event("backend_selected", backend=method,
               engine=engine_name(engine_cls))
    # Inherited by forked workers, pickled once per spawned one.
    initargs = (dict(
        spec, formula=formula, proof=proof, engine_cls=engine_cls,
        mode=mode, meter=meter, faults=dict(_FAULTS)),)
    context = get_context(method)
    results: dict[tuple[int, int], ShardResult] = {}
    worker_failures = 0
    warnings: list[str] = []
    for attempt in (0, 1, 2):
        pending = [s for s in shards if s not in results]
        timeout = meter.remaining_time() if meter is not None else None
        if (not pending or (timeout is not None and timeout <= 0)
                or any(r.scan.budget_reason is not None
                       for r in results.values())):
            break
        if attempt == 1:
            warnings.append(
                f"worker died; retrying {len(pending)} shard(s) "
                "on a fresh pool")
            sink.event("worker_retry", pending=len(pending))
            sink.counter("repro_parallel_retries_total", 1,
                         help="Shard retry rounds after worker "
                              "deaths")
        elif attempt == 2:
            warnings.append(
                f"{len(pending)} shard(s) degraded to in-process "
                "sequential checking after repeated worker failures")
            sink.event("degraded_sequential", reason="worker failures",
                       shards=len(pending))
            sink.counter("repro_parallel_degraded_shards_total",
                         len(pending),
                         help="Shards that fell back to in-process "
                              "sequential checking")
        if attempt < 2:
            worker_failures += _pool_rung(
                context, initargs, min(jobs, len(pending)), pending,
                attempt, meter, results, sink)
        else:
            checker = ProofChecker(formula, proof, engine_cls, mode=mode)
            if meter is not None:
                checker.meter = meter.rebase(checker.engine.counters)
            for shard in pending:
                results[shard] = _run_shard(checker, shard, spec, attempt)
                sink.absorb(shard, results[shard])
                if results[shard].scan.budget_reason is not None:
                    break
    sink.counter("repro_parallel_worker_failures_total", worker_failures,
                 help="Shard executions lost to dead workers")
    run = _reduce(results, worker_failures, warnings)
    if len(results) < len(shards) and run.budget_reason is None:
        # The deadline passed with shards still queued: report
        # exhaustion rather than silently dropping coverage.
        run.budget_reason = ("wall-clock budget exhausted before "
                             f"{len(shards) - len(results)} shard(s) ran")
    return run


def _pool_rung(context, initargs: tuple, workers: int,
               pending: list[tuple[int, int]], attempt: int,
               meter: BudgetMeter | None,
               results: dict[tuple[int, int], ShardResult],
               sink: _ObsSink) -> int:
    """Run ``pending`` on a fresh pool, in order, until each submitted
    shard has a result or a lost execution, or the deadline passes.
    Adds the results to ``results`` and returns the number of shard
    executions lost to dead workers.

    A dead worker breaks the whole pool: every shard it had not
    finished raises ``BrokenProcessPool``, and so does a ``submit``
    after the break, which ends the submissions; either counts as one
    worker failure.  Anything else a worker raises is a checker bug
    and propagates unmasked.
    """
    executor = ProcessPoolExecutor(
        max_workers=workers, mp_context=context,
        initializer=_init_worker, initargs=initargs)
    futures = {}
    lost = 0
    not_done: set = set()
    try:
        try:
            for shard in pending:
                futures[executor.submit(_shard_worker, shard,
                                        attempt)] = shard
        except BrokenProcessPool:
            lost += 1
            sink.event("worker_failure", shard=list(shard),
                       attempt=attempt)
        not_done = set(futures)
        sink.queue_depth(len(not_done))
        while not_done:
            timeout = meter.remaining_time() if meter is not None else None
            if timeout is not None and timeout <= 0:
                break  # deadline passed: stop collecting
            done, not_done = wait(not_done, timeout=timeout,
                                  return_when=FIRST_COMPLETED)
            if not done:
                break  # wait() timed out at the deadline
            for future in done:
                shard = futures[future]
                try:
                    results[shard] = future.result()
                except BrokenProcessPool:
                    lost += 1
                    sink.event("worker_failure", shard=list(shard),
                               attempt=attempt)
                else:
                    sink.absorb(shard, results[shard])
            sink.queue_depth(len(not_done))
    finally:
        if not_done:
            # Deadline early exit: drop queued shards and do not wait,
            # so a straggler cannot wedge the parent.
            executor.shutdown(wait=False, cancel_futures=True)
        else:
            # Every future finished: join the pool so no worker or
            # manager thread outlives the run (an unjoined pool can
            # print "Exception ignored" at exit).
            executor.shutdown(wait=True)
    return lost
