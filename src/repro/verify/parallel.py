"""Fault-tolerant process-parallel backend for ``Proof_verification1``.

The checks of Proof_verification1 are independent by construction (each
one is a self-contained BCP run over ``F ∪ F*_{<i}``), so the proof
indices can be sharded across a pool of worker processes.  Each worker
builds its checker once, runs each shard through
:func:`~repro.verify.verification.scan` (the loop sequential
verification runs), and sends shard verdicts back.

The pool
--------
The pool is a few file descriptors and a ``select`` loop.  Each worker
holds two pipes to the parent: the parent sends it one ``(shard,
attempt)`` message at a time and reads back one pickled
:class:`ShardResult` per shard, and waits on every busy worker's result
pipe at once.  The pool needs no executor, no manager thread and no
queue feeder, so a run imports no process-pool library.

Every worker is started with ``os.fork``: it inherits the formula, the
proof, the engine class, the checker mode, the budget meter, the fault
map and the observability fields through copy-on-write, so nothing
large is pickled, and it runs the engine the run asked for.  Its pipes
are raw ``os.pipe`` descriptors carrying length-prefixed pickles.  The
parent flushes ``sys.stdout``/``sys.stderr`` before each fork, and a
forked worker always leaves through ``os._exit``: no buffered output
is written twice, and no ``atexit`` hook or test-runner teardown runs
in a worker.  Where ``os.fork`` is missing there is no pool:
:func:`~repro.verify.verification.verify_proof_v1` checks in one
process and says so in a report warning.

Failure reporting stays deterministic regardless of scheduling: every
shard scans backward and reports the first failure it meets, and the
parent reduces shard failures with max (the first failure a sequential
backward scan would hit is the *highest* failing index).

The proof is cut into contiguous equal-count shards
(:func:`make_shards`) and handed out high→low, first in first out: a
worker gets its next shard when its last result arrives.  So every
worker meets its shards with falling ceilings, and each worker's
incremental checker retires the clauses above the current shard for
good, as in a sequential backward scan.  High→low is also
largest-first, because high-index checks propagate over the most
clauses.  Should a worker ever see a rising ceiling, the checker
raises ``ValueError``; an ordering slip fails loudly and never flips a
verdict.

Fault tolerance
---------------
A production verifier cannot assume its workers survive: an OOM kill or
a segfault in a worker must degrade the run, not wedge it.  The run is
one loop over three rungs, each running only the shards that have no
result yet:

0. a pool;
1. a fresh pool;
2. in process, sequentially, through the same :func:`_run_shard` —
   correctness is never sacrificed, only parallelism.

A worker death is EOF on its result pipe (whatever ended the process:
a crash, a ``SIGKILL``, a non-zero exit), a send that fails because
the worker is gone, or an ``os.fork`` that raises ``OSError`` (out of
processes).  Each one costs the execution of the shard that worker
held, or was about to receive, and counts as one worker failure; that
shard climbs to the next rung.  The surviving workers go
on with the queue; shards still queued when no worker survives climb
too.  A dead worker ships nothing back and a shard with a result never
runs again, so each shard yields exactly one result.  Every lost shard
execution is counted in :attr:`ShardRunResult.worker_failures` and
each climb is described in :attr:`ShardRunResult.warnings`, both of
which surface in the :class:`~repro.verify.report.VerificationReport`.
Anything else a worker raises is a checker bug: the worker sends the
exception back and the parent raises it.

The parent reaps every worker it forks with ``os.waitpid``: on a
clean finish it closes the task pipes (EOF stops an idle worker) and
waits; after a death, a passed deadline or an exception it sends
``SIGKILL`` first.  No worker outlives its rung.

Budgets: the parent's :class:`~repro.verify.budget.BudgetMeter` is
handed to every worker, each of which rebases it onto its own engine
counters and aborts its shard cleanly when the shared deadline (or its
per-process ``max_props`` share) runs out.  The parent also stops
waiting at the deadline, kills the pool and starts no retry; it then
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
import pickle
import select
import sys
import time
from typing import TYPE_CHECKING, NamedTuple

from repro.bcp.engine import PropagationCounters, PropagatorBase
from repro.core.formula import CnfFormula
from repro.proofs.conflict_clause import ConflictClauseProof
from repro.verify.checker import ProofChecker
from repro.verify.instrument import ReportBuilder
from repro.verify.verification import ScanResult, scan

if TYPE_CHECKING:
    from repro.verify.budget import BudgetMeter

# Test-only fault injection: shard -> number of times a worker should
# die (hard exit, as an OOM kill would) before executing it.  Populated
# in the parent and inherited by the forked workers, which consult it
# with the attempt number the parent passes along, so a retried shard
# survives.
_FAULTS: dict[tuple[int, int], int] = {}


def fork_available() -> bool:
    """Whether this platform can fork the pool's workers."""
    return hasattr(os, "fork")


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


class ShardResult(NamedTuple):
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
    counter_delta: dict[str, int]
    duration: float
    metrics: dict | None
    slowest: tuple
    trace: list
    depgraph: list


class ShardRunResult(NamedTuple):
    """Aggregated outcome of a sharded verification run: the fields of
    a :class:`~repro.verify.verification.ScanResult` plus the summed
    counters and the pool's failure record."""

    num_checked: int
    num_skipped: int
    failed_index: int | None
    budget_reason: str | None
    stopped_at_index: int | None
    counters: dict[str, int]
    worker_failures: int
    warnings: tuple[str, ...]


class _Pipe:
    """One end of an ``os.pipe`` carrying pickled messages, each after
    its 8-byte length."""

    __slots__ = ("fd",)

    def __init__(self, fd: int):
        self.fd = fd

    def fileno(self) -> int:
        return self.fd

    def send(self, message) -> None:
        data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        view = memoryview(len(data).to_bytes(8, "little") + data)
        while view:
            view = view[os.write(self.fd, view):]

    def recv(self):
        """The next message; ``EOFError`` once the writer is gone."""
        return pickle.loads(self._read(int.from_bytes(self._read(8),
                                                      "little")))

    def _read(self, size: int) -> bytes:
        chunks = []
        while size:
            chunk = os.read(self.fd, size)
            if not chunk:
                raise EOFError("pipe closed")
            chunks.append(chunk)
            size -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        os.close(self.fd)


class _Worker:
    """The parent's handle on one forked worker: its task and result
    pipes and its pid."""

    __slots__ = ("tasks", "results", "pid")

    def __init__(self, tasks: _Pipe, results: _Pipe, pid: int):
        self.tasks = tasks
        self.results = results
        self.pid = pid

    def stop(self, kill: bool) -> None:
        """Close the pipes and reap the worker; ``kill`` sends
        ``SIGKILL`` first (a busy, stalled or dead worker)."""
        self.tasks.close()  # EOF: an idle worker exits
        if kill:
            import signal

            os.kill(self.pid, signal.SIGKILL)
        self.results.close()
        os.waitpid(self.pid, 0)


def _new_checker(spec: dict) -> ProofChecker:
    """A checker for the run in ``spec``, charged to its own engine."""
    checker = ProofChecker(spec["formula"], spec["proof"],
                           spec["engine_cls"], mode=spec["mode"])
    meter: BudgetMeter | None = spec["meter"]
    if meter is not None:
        # Fresh engine: keep the shared deadline but charge work units
        # against this checker's own counters.
        checker.meter = meter.rebase(checker.engine.counters)
    return checker


def _worker_loop(tasks: _Pipe, results: _Pipe, spec: dict) -> None:
    """A forked worker's life: scan each shard the parent sends until
    the task pipe closes.  The checker is built on the first shard;
    shards arrive high→low (see :func:`run_sharded_v1`), so its
    ceilings only ever fall."""
    checker = None
    while True:
        try:
            shard, attempt = tasks.recv()
        except EOFError:
            return
        if attempt < _FAULTS.get(shard, 0):
            # Simulate an OOM kill / segfault: bypass Python teardown so
            # the parent sees exactly what a hard worker death looks
            # like.
            os._exit(1)
        try:
            if checker is None:
                checker = _new_checker(spec)
            result = _run_shard(checker, shard, spec, attempt)
        except Exception as exc:                    # noqa: BLE001
            result = exc  # a checker bug: the parent raises it
        results.send(result)


def _fork_worker(spec: dict, inherited: list[int]) -> _Worker:
    """Start a worker with ``os.fork``.  ``inherited`` are the parent's
    ends of the other workers' pipes, which the child closes so that
    only the parent holds them."""
    task_r, task_w = os.pipe()
    result_r, result_w = os.pipe()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    try:
        pid = os.fork()
    except OSError:
        for fd in (task_r, task_w, result_r, result_w):
            os.close(fd)
        raise
    if pid == 0:
        code = 1
        try:
            for fd in (task_w, result_r, *inherited):
                os.close(fd)
            _worker_loop(_Pipe(task_r), _Pipe(result_w), spec)
            code = 0
        finally:
            # Never return into the parent's stack: no atexit hook, no
            # buffered-output flush, no test-runner teardown.
            os._exit(code)
    os.close(task_r)
    os.close(result_w)
    return _Worker(_Pipe(task_w), _Pipe(result_r), pid)


def _run_shard(checker: ProofChecker, shard: tuple[int, int],
               spec: dict, attempt: int) -> ShardResult:
    """Scan one shard backward with
    :func:`~repro.verify.verification.scan` (shared by the pool
    workers and the in-process rung).

    ``spec`` holds the run's fields (built once by
    :func:`run_sharded_v1`).  With ``obs_enabled`` set, per-check wall
    time and propagation work are observed into a shard-local
    registry, the slowest checks are kept, and the whole shard is
    wrapped in a ``shard`` trace span — stamped with the parent's
    ``obs_trace`` id and on the parent's time axis through its
    ``obs_epoch`` (a forked worker reads the parent's monotonic
    clock).  The span's end attrs carry the shard's cost attribution
    (checks, wall, props, clause_visits) and the ``attempt`` number
    that produced it, so the timeline can tell a retried shard's spans
    apart.  With ``depgraph_enabled`` set, each passing check's
    dependency-graph record is buffered (shipped back in
    :attr:`ShardResult.depgraph`, merged order-free by the parent).
    """
    lo, hi = shard
    counters = checker.engine.counters
    before = counters.as_dict()
    records = [] if spec["depgraph_enabled"] else None
    build = tracer = None
    if spec["obs_enabled"]:
        from repro.obs.context import Obs
        from repro.obs.registry import MetricsRegistry
        from repro.obs.spans import Tracer

        # A metrics-only Obs: the builder times each check into the
        # shard-local registry and emits no per-check span.  A shard
        # builds no report, so the builder has no report class.
        build = ReportBuilder(None, obs=Obs(metrics=MetricsRegistry()))
        tracer = Tracer(run_id=spec["obs_run"], epoch=spec["obs_epoch"],
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
        # rows, straggler ranking, and run-wide memory peak.
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


def _reduce(results: dict[tuple[int, int], ShardResult], num_shards: int,
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
    if not budget_reasons and len(results) < num_shards:
        # The deadline passed with shards still queued: report
        # exhaustion rather than silently dropping coverage.
        budget_reasons.append("wall-clock budget exhausted before "
                              f"{num_shards - len(results)} shard(s) ran")
    # Every field starts at 0, so a run stopped before any shard
    # finished reports the same counters a sequential run would.
    counters = PropagationCounters().as_dict()
    for result in results.values():
        for key, value in result.counter_delta.items():
            counters[key] += value
    return ShardRunResult(
        num_checked=sum(r.num_checked for r in scans),
        num_skipped=0,
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
                   obs=None, builder=None) -> ShardRunResult:
    """Check every proof index across a process pool, surviving faults.

    Returns a :class:`ShardRunResult` whose ``failed_index`` matches
    what a sequential backward scan would report (None when every
    check passes); ``num_checked`` can exceed a failing sequential run's
    count — shards past the failure still ran.  Shards lost to dead
    workers climb the recovery ladder of the module docstring (counted
    in ``worker_failures`` / ``warnings``); an exhausted budget surfaces
    as ``budget_reason`` plus partial progress.

    Every worker is forked and runs ``engine_cls``; the caller makes
    sure the platform has ``os.fork`` (see :func:`fork_available`).

    ``obs`` (and the driver's ``builder``, for slowest-K and progress)
    attach the instrumentation layer; see the module docstring for
    what is collected where.

    The proof is cut by :func:`make_shards` and every rung runs its
    shards high→low, so each worker, and the in-process checker, sees
    falling ceilings, which is what lets it retire clauses.
    """
    shards = make_shards(len(proof), jobs)[::-1]
    sink = _ObsSink(obs, builder, len(shards))
    # The fields of every shard run, on the pool and in process alike;
    # forked workers inherit them.
    tracer = obs.tracer if obs is not None else None
    spec = dict(
        formula=formula, proof=proof, engine_cls=engine_cls, mode=mode,
        meter=meter, obs_enabled=obs is not None,
        obs_epoch=tracer.epoch if tracer is not None else None,
        obs_trace=getattr(tracer, "trace_id", None),
        obs_run=obs.run_id if obs is not None else None,
        depgraph_enabled=obs is not None and obs.wants_depgraph)
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
                spec, min(jobs, len(pending)), pending, attempt, meter,
                results, sink)
        else:
            checker = _new_checker(spec)
            for shard in pending:
                results[shard] = _run_shard(checker, shard, spec, attempt)
                sink.absorb(shard, results[shard])
                if results[shard].scan.budget_reason is not None:
                    break
    sink.counter("repro_parallel_worker_failures_total", worker_failures,
                 help="Shard executions lost to dead workers")
    return _reduce(results, len(shards), worker_failures, warnings)


def _pool_rung(spec: dict, workers: int,
               pending: list[tuple[int, int]], attempt: int,
               meter: BudgetMeter | None,
               results: dict[tuple[int, int], ShardResult],
               sink: _ObsSink) -> int:
    """Run ``pending`` on a fresh pool of up to ``workers`` workers, in
    order, until each shard has a result or a lost execution, or the
    deadline passes.  Adds the results to ``results`` and returns the
    number of shard executions lost to dead workers.

    A worker gets its next shard as soon as its last result lands.  A
    death (see the module docstring) loses the one shard that worker
    held; a failed fork also ends the launching, and the rung goes on
    with the workers it has.
    """
    queue = list(pending)
    live: list[_Worker] = []
    busy: dict = {}   # result pipe -> (worker, shard)
    lost = 0
    clean = False

    def fail(shard: tuple[int, int], worker: _Worker | None) -> None:
        nonlocal lost
        lost += 1
        sink.event("worker_failure", shard=list(shard), attempt=attempt)
        if worker is not None:
            live.remove(worker)
            worker.stop(kill=True)

    def dispatch(worker: _Worker) -> None:
        shard = queue.pop(0)
        try:
            worker.tasks.send((shard, attempt))
        except OSError:
            fail(shard, worker)
        else:
            busy[worker.results] = worker, shard

    try:
        while queue and len(live) < workers:
            try:
                worker = _fork_worker(spec, [p.fd for w in live
                                             for p in (w.tasks, w.results)])
            except OSError:
                fail(queue.pop(0), None)
                break
            live.append(worker)
            dispatch(worker)
        sink.queue_depth(len(busy) + len(queue))
        while busy:
            timeout = meter.remaining_time() if meter is not None else None
            if timeout is not None and timeout <= 0:
                break  # deadline passed: stop collecting
            ready = select.select(list(busy), [], [], timeout)[0]
            if not ready:
                break  # timed out at the deadline
            for pipe in ready:
                worker, shard = busy.pop(pipe)
                try:
                    result = pipe.recv()
                except (EOFError, OSError):
                    fail(shard, worker)
                    continue
                if isinstance(result, BaseException):
                    raise result
                results[shard] = result
                sink.absorb(shard, result)
                if queue:
                    dispatch(worker)
            sink.queue_depth(len(busy) + len(queue))
        clean = not busy
    finally:
        # A clean finish leaves every worker idle: closing its task
        # pipe ends it.  A deadline or an exception kills the rest.
        for worker in live:
            worker.stop(kill=not clean)
    return lost
