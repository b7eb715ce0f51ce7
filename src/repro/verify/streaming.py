"""Forward verification of DRUP traces, in one bounded-memory pass.

This is the only forward checker: the dual of the paper's backward
procedures, RUP-checking each addition against the *currently live*
clause set and honoring deletion lines, in the window-shifting design
of Chen 2016 and DRAT-trim.  The trace comes from a file, read one
event at a time through the chunked reader
(:class:`repro.proofs.stream.DrupStreamReader`), or from an in-memory
:class:`~repro.proofs.drup.DrupProof`; the file source adds crash-safe
checkpoints.

**Bounded memory.**  Events are parsed, checked, and discarded one at
a time; the resident state is the formula plus the live proof-added
clauses.  :class:`~repro.verify.budget.CheckBudget`'s
``max_live_clauses``/``max_bytes`` axes cap that live set — a trace
whose deletions do not keep it under the cap degrades to a
``resource_limit_exceeded`` partial report (with a resume token, so a
bigger budget can pick up where it stopped) instead of an OOM kill.

**Window shifting.**  A deletion frees most of a clause at once:
:meth:`~repro.bcp.engine.PropagatorBase.remove_clause` detaches both
of its watches and drops its literal list.  What stays behind is the
empty tombstone the deleted cid leaves in ``engine.clauses`` and, in
the ``active`` map, the key whose cid list the deletion emptied.
When dead clauses outnumber live ones by ``DEFAULT_WINDOW_SLACK``, the
checker rebuilds a fresh engine over only the live clauses — the
"window shift" — which reclaims those leftovers.  Propagation-work
accounting is carried across shifts, so budgets and reports see one
continuous run.  An instrumented run (``obs`` attached) also
cross-checks the ``max_bytes`` *estimate* against *measured* RSS
(one :func:`~repro.obs.mem.read_rss` per shift): growth past both an
absolute floor and a multiple of the estimate emits a
``mem_estimate_drift`` trace event and bumps
``repro_mem_estimate_drift_total`` — the model being wrong is
surfaced, never fatal.

**Checkpoint/resume.**  Every ``checkpoint_every`` events (and on
interrupt or budget exhaustion) the driver flushes a small JSON resume
token (schema ``repro.obs.checkpoint/v1``) via the atomic-artifact
writer: trace position (byte offset/line/event index), the live
clause window, deleted-formula indices, and the propagation work
spent.  ``resume=True`` validates the token against digests of the
formula and the proof file (a mismatch raises
:class:`~repro.core.exceptions.CheckpointError`) and continues from
the recorded offset; an interrupted-then-resumed run reaches the same
verdict as an uninterrupted one.  A run that reaches a verdict deletes
its token — resume is only ever offered from an unfinished run.

**Strict deletions.**  A deletion naming a clause that is not live
raises :class:`~repro.core.exceptions.ProofFormatError` (CLI exit 65).
``lenient_deletions=True`` downgrades it to a counted warning and a
skip (DRAT-trim's behavior).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

from repro.bcp.engine import FALSE, TRUE, PropagationCounters
from repro.bcp.watched import WatchedPropagator
from repro.core.exceptions import CheckpointError, ProofFormatError
from repro.core.formula import CnfFormula
from repro.core.literals import encode
from repro.obs.export import atomic_write_text
from repro.obs.schema import CHECKPOINT_SCHEMA, validate_checkpoint
from repro.proofs.drup import ADD, DrupProof
from repro.proofs.stream import DEFAULT_CHUNK_BYTES, DrupStreamReader
from repro.verify.budget import CheckBudget
from repro.verify.instrument import ReportBuilder
from repro.verify.report import (
    PROOF_IS_CORRECT,
    PROOF_IS_NOT_CORRECT,
    RESOURCE_LIMIT_EXCEEDED,
    VerificationStats,
)

#: Default checkpoint cadence, in processed trace events.
DEFAULT_CHECKPOINT_EVERY = 5000


class _BoundaryInterrupt(KeyboardInterrupt):
    """Interrupt re-raised at an event boundary (state is consistent:
    the resume position points just past a fully-applied event)."""


class _InterruptGuard:
    """Defer SIGINT/SIGTERM to event boundaries.

    A checkpoint written mid-event could record the live set with a
    half-applied addition or deletion; on resume the event would replay
    against it (double-counting, or a strict-mode "unknown deletion").
    The guard turns the *first* signal into a flag the event loop
    checks after each event is fully applied; a *second* signal raises
    immediately — an emergency stop stays available if a check hangs.

    Handlers can only be installed from the main thread; elsewhere
    (`installed` False) the caller falls back to catching a raw
    ``KeyboardInterrupt`` with best-effort consistency.
    """

    def __init__(self):
        self.pending: int | None = None
        self.installed = False
        self._previous: dict = {}

    def _handle(self, signum, frame):
        if self.pending is not None:
            raise KeyboardInterrupt
        self.pending = signum

    def __enter__(self):
        import signal

        try:
            for sig in (signal.SIGINT, signal.SIGTERM):
                self._previous[sig] = signal.signal(sig, self._handle)
            self.installed = True
        except ValueError:
            for sig, old in self._previous.items():
                signal.signal(sig, old)
            self._previous = {}
        return self

    def __exit__(self, *exc):
        import signal

        for sig, old in self._previous.items():
            signal.signal(sig, old)
        return False

#: Rebuild the engine once dead (tombstoned) clauses outnumber live
#: ones by this factor...
DEFAULT_WINDOW_SLACK = 2.0
#: ...but never before this many are dead (rebuilds are O(live); tiny
#: windows would thrash).
_MIN_DEAD_FOR_SHIFT = 32

#: Engine bookkeeping charged per live proof-added clause by the
#: ``max_bytes`` estimate, in 32-bit words: two watch-table entries,
#: each a (cid, blocker) pair, on top of one offset word per clause.
#: The original estimate counted literal words only and under-reported
#: the real footprint of short clauses by roughly this factor —
#: ``max_bytes`` budgets tripped far later than the RSS they were meant
#: to bound.
ENGINE_OVERHEAD_WORDS_PER_CLAUSE = 4

#: ``mem_estimate_drift`` fires when measured RSS growth since setup
#: exceeds this multiple of the byte estimate...
MEM_DRIFT_FACTOR = 4.0
#: ...and this absolute floor — interpreter noise and allocator slack
#: dwarf small estimates, so tiny windows never alarm.
MEM_DRIFT_FLOOR_BYTES = 32 * 1024 * 1024


@dataclass
class StreamingCheckReport:
    """Outcome of a streaming forward DRUP check.

    Counts are cumulative across resume: ``num_additions``/
    ``num_deletions`` include the events the checkpointed prefix
    processed, so a resumed run's report reads as one uninterrupted
    verification.  ``stopped_at_event`` is set on the
    ``resource_limit_exceeded`` partial outcome; ``checkpoint_path``
    names the resume token left on disk (None once a verdict is
    reached — the token is deleted, there is nothing to resume).
    """

    outcome: str
    num_additions: int = 0
    num_deletions: int = 0
    failed_event_index: int | None = None
    failure_reason: str | None = None
    peak_live_clauses: int = 0
    live_clauses: int = 0
    verification_time: float = 0.0
    stopped_at_event: int | None = None
    engine: str = "watched"
    window_shifts: int = 0
    checkpoints_written: int = 0
    resumed_from_event: int | None = None
    checkpoint_path: str | None = None
    warnings: list[str] = field(default_factory=list)
    bcp_counters: dict | None = None
    stats: VerificationStats | None = None

    @property
    def ok(self) -> bool:
        return self.outcome == PROOF_IS_CORRECT

    @property
    def exhausted(self) -> bool:
        return self.outcome == RESOURCE_LIMIT_EXCEEDED


def formula_digest(formula: CnfFormula) -> str:
    """Content digest of a formula (clause order included), used to
    pin a checkpoint to the formula it was recorded against."""
    hasher = hashlib.sha256()
    hasher.update(f"p cnf {formula.num_vars}\n".encode())
    for clause in formula:
        hasher.update(" ".join(map(str, clause.literals)).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def file_digest(path) -> str:
    """sha256 of a file, read in bounded chunks."""
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(DEFAULT_CHUNK_BYTES)
            if not chunk:
                break
            hasher.update(chunk)
    return hasher.hexdigest()


def load_checkpoint(path) -> dict:
    """Read and structurally validate a resume token."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path}") from None
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {path} is not valid JSON: {exc}") from exc
    problems = validate_checkpoint(doc)
    if problems:
        raise CheckpointError(
            f"checkpoint {path} is invalid: {'; '.join(problems)}")
    return doc


def _fold_counters(total: PropagationCounters,
                   part: PropagationCounters) -> None:
    total.assignments += part.assignments
    total.watch_visits += part.watch_visits
    total.clause_visits += part.clause_visits
    total.purged += part.purged
    total.detach_misses += part.detach_misses


def verify_stream(formula: CnfFormula, proof, *,
                  budget: CheckBudget | None = None,
                  obs=None,
                  checkpoint_path=None,
                  checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
                  resume: bool = False,
                  lenient_deletions: bool = False,
                  ) -> StreamingCheckReport:
    """One-pass bounded-memory forward check of a DRUP trace (see
    module docstring for the full contract).

    ``proof`` is the path of a DRUP file or an in-memory
    :class:`~repro.proofs.drup.DrupProof`.  Only a file can be
    checkpointed: with an in-memory proof, ``checkpoint_path`` and
    ``resume`` raise ``ValueError``.  Interrupts (``KeyboardInterrupt``
    — the CLI maps SIGTERM onto it too) flush a final checkpoint before
    propagating, so a killed run is resumable; ``resume=True`` requires
    ``checkpoint_path``, and ``checkpoint_every`` must be at least 1.
    """
    in_memory = isinstance(proof, DrupProof)
    if in_memory and (checkpoint_path is not None or resume):
        raise ValueError("checkpoint/resume need a proof file, not an "
                         "in-memory DrupProof")
    if resume and checkpoint_path is None:
        raise ValueError("resume=True requires a checkpoint_path")
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got "
                         f"{checkpoint_every}")

    build = ReportBuilder(StreamingCheckReport, obs=obs,
                          total_checks=(len(proof.events)
                                        if in_memory else 0),
                          progress_label="events", engine="watched")
    warnings: list[str] = []

    # -- resume-token validation (before any engine work) ------------------
    # The digests pin a checkpoint to its inputs; a run without one
    # never re-reads the proof file to compute them.
    if checkpoint_path is not None:
        fdigest = formula_digest(formula)
        pdigest = file_digest(proof)
    token = None
    if resume:
        token = load_checkpoint(checkpoint_path)
        if token["formula_sha256"] != fdigest:
            raise CheckpointError(
                f"checkpoint {checkpoint_path} was recorded against a "
                "different formula (digest mismatch)")
        if token["proof_sha256"] != pdigest:
            raise CheckpointError(
                f"checkpoint {checkpoint_path} was recorded against a "
                "different proof file (digest mismatch)")

    with build.phase("setup", procedure="drup-streaming"):
        engine = WatchedPropagator(formula.num_vars)
        # cid -> original literals of every *live* clause, in load
        # order: the window-shift rebuild and the checkpoint are both
        # replays of this dict.
        live_lits: dict[int, tuple[int, ...]] = {}
        # cid -> formula clause index (live formula clauses only).
        formula_index: dict[int, int] = {}
        units: dict[int, int] = {}   # cid -> encoded literal
        active: dict[tuple[int, ...], list[int]] = {}

        def clause_key(literals) -> tuple[int, ...]:
            return tuple(sorted(set(literals)))

        def load(literals, findex: int | None = None) -> int:
            cid = engine.add_clause([encode(lit) for lit in literals],
                                    propagate_units=False)
            if engine.clause_len(cid) == 1:
                units[cid] = engine.clause_lits(cid)[0]
            active.setdefault(clause_key(literals), []).append(cid)
            live_lits[cid] = tuple(literals)
            if findex is not None:
                formula_index[cid] = findex
            return cid

        deleted_formula: set[int] = set()
        live_additions = 0       # live proof-added clauses
        live_addition_words = 0  # their literal count (for max_bytes)
        additions = 0
        deletions = 0
        window_shifts = 0
        checkpoints_written = 0
        loaded = 0               # cids allocated in the current engine
        resumed_from = None
        start_offset, start_line, start_index = 0, 1, 0

        if token is not None:
            deleted_formula = set(token["deleted_formula_indices"])
            for findex, clause in enumerate(formula):
                if findex not in deleted_formula:
                    load(clause.literals, findex)
            for lits in token["live_additions"]:
                load(lits)
                live_additions += 1
                live_addition_words += len(lits)
            additions = token["additions"]
            deletions = token["deletions"]
            window_shifts = token["window_shifts"]
            start_offset = token["offset"]
            start_line = token["next_line"]
            start_index = token["next_index"]
            resumed_from = start_index
            peak = max(token["peak_live_clauses"], len(live_lits))
            if obs is not None:
                obs.event("stream_resumed", offset=start_offset,
                          event_index=start_index)
        else:
            for findex, clause in enumerate(formula):
                load(clause.literals, findex)
            peak = len(live_lits)
        loaded = len(live_lits)

        # RSS baseline for the estimate-vs-measured cross-check: any
        # resident growth past this point is attributable to the
        # proof's live set (plus interpreter/allocator noise — hence
        # the drift floor).  Only armed on an instrumented run; a
        # failed read silently disarms it.
        baseline_rss = None
        if obs is not None:
            from repro.obs.mem import read_rss

            reading = read_rss()
            if reading is not None:
                baseline_rss = reading[0]

        meter = budget.start(engine.counters) \
            if budget is not None else None
        # Work done before the current engine existed: prior resumed
        # runs, plus engines retired by window shifts.  Kept so budgets
        # and the final counters see one continuous run.
        prior_counters = PropagationCounters()
        if token is not None:
            prior_counters.assignments = token["budget_spent"]["props"]
            if meter is not None:
                # Pre-charge the resumed work against max_props (the
                # wall clock restarts; work units are cumulative).
                meter._base -= token["budget_spent"]["props"]

    counters = engine.counters

    def total_props() -> int:
        # prior_counters already carries resumed + pre-shift work.
        return prior_counters.total_work() + counters.total_work()

    def merged_counters() -> dict:
        merged = PropagationCounters(**prior_counters.as_dict())
        _fold_counters(merged, counters)
        return merged.as_dict()

    def live_bytes() -> int:
        # Engine-agnostic estimate over the *proof-added* live set:
        # one int32 word per literal, one offset word per
        # clause, plus the engine's own bookkeeping
        # (ENGINE_OVERHEAD_WORDS_PER_CLAUSE — watch-table entries).
        # The formula is resident in any checker and is not charged
        # to the proof cap.
        return (live_addition_words
                + live_additions
                * (1 + ENGINE_OVERHEAD_WORDS_PER_CLAUSE)) * 4

    def set_live_gauges() -> None:
        if obs is None:
            return
        obs.gauge_set("repro_stream_live_clauses", len(live_lits),
                      help="Live clauses (formula + proof) in the "
                           "streaming window")
        obs.gauge_set("repro_stream_live_proof_clauses", live_additions,
                      help="Live proof-added clauses in the streaming "
                           "window")

    # The file source's last fully-applied event: the resume point is
    # just past it.
    applied = None
    run_start = time.perf_counter()

    def write_checkpoint() -> None:
        nonlocal checkpoints_written
        if checkpoint_path is None:
            return
        seconds = time.perf_counter() - run_start
        if token is not None:
            seconds += token["budget_spent"]["seconds"]
        if applied is None:
            offset, next_line, next_index = \
                start_offset, start_line, start_index
        else:
            offset, next_line, next_index = \
                applied.offset, applied.line_number + 1, applied.index + 1
        doc = {
            "schema": CHECKPOINT_SCHEMA,
            "formula_sha256": fdigest,
            "proof_sha256": pdigest,
            "offset": offset,
            "next_line": next_line,
            "next_index": next_index,
            "additions": additions,
            "deletions": deletions,
            "peak_live_clauses": peak,
            "window_shifts": window_shifts,
            "deleted_formula_indices": sorted(deleted_formula),
            "live_additions": [
                list(lits) for cid, lits in live_lits.items()
                if cid not in formula_index],
            "budget_spent": {"props": total_props(),
                             "seconds": seconds},
            "engine": "watched",
        }
        atomic_write_text(checkpoint_path,
                          json.dumps(doc, separators=(",", ":")))
        checkpoints_written += 1
        if obs is not None:
            obs.event("checkpoint_written", offset=offset,
                      event_index=next_index,
                      live_clauses=len(live_lits))
            obs.counter_add("repro_checkpoints_written_total",
                            help="Streaming resume tokens flushed")

    def discard_checkpoint() -> None:
        # A verdict was reached: the resume token is spent.  Leaving it
        # would invite resuming a *finished* run, which cannot re-derive
        # the verdict (the events past the empty clause were never read).
        if checkpoint_path is not None \
                and (checkpoints_written or token is not None):
            try:
                os.unlink(checkpoint_path)
            except FileNotFoundError:
                pass

    def shift_window() -> None:
        """Rebuild the engine over only the live clauses.

        The rebuild is traced as a ``window_shift`` *span* (not an
        instant event): it is real wall time the timeline must
        account for, and on long streams the shifts show up as the
        critical path's serial segments.
        """
        nonlocal engine, counters, loaded, units, active, live_lits, \
            formula_index, meter, window_shifts
        window_shifts += 1
        span_cm = (obs.tracer.span("window_shift",
                                   shift=window_shifts)
                   if obs is not None and obs.tracer is not None
                   else None)
        end_attrs = span_cm.__enter__() if span_cm is not None else None
        try:
            _fold_counters(prior_counters, counters)
            if meter is not None:
                meter = meter.rebase(None)
                meter._base = -prior_counters.total_work()
            old_live = live_lits
            old_findex = formula_index
            engine = WatchedPropagator(engine.num_vars)
            live_lits = {}
            formula_index = {}
            units = {}
            active = {}
            for old_cid, lits in old_live.items():
                load(lits, old_findex.get(old_cid))
            counters = engine.counters
            loaded = len(live_lits)
        finally:
            if span_cm is not None:
                end_attrs["live_clauses"] = len(live_lits)
                span_cm.__exit__(None, None, None)
        if obs is not None:
            obs.counter_add("repro_stream_window_shifts_total",
                            help="Engine rebuilds over the live window")
        # Cross-check the byte *estimate* against *measured* RSS at
        # every shift (the natural cadence: the live set just changed
        # shape).  A large multiple says the max_bytes model no longer
        # tracks reality — surfaced as an event, never a failure.
        if baseline_rss is not None:
            reading = read_rss()
            if reading is not None:
                growth = reading[0] - baseline_rss
                estimate = live_bytes()
                if growth > MEM_DRIFT_FLOOR_BYTES \
                        and growth > MEM_DRIFT_FACTOR \
                        * max(estimate, 1):
                    obs.event("mem_estimate_drift",
                              measured_growth_bytes=growth,
                              estimated_live_bytes=estimate,
                              shift=window_shifts)
                    obs.counter_add(
                        "repro_mem_estimate_drift_total",
                        help="Window shifts where measured RSS growth "
                             "left the max_bytes estimate behind")

    def rup_check(literals) -> bool:
        engine.new_level()
        conflict = False
        for lit in literals:
            negated = encode(lit) ^ 1
            value = engine.value(negated)
            if value == TRUE:
                continue
            if value == FALSE:
                conflict = True
                break
            engine.enqueue(negated, None)
        if not conflict:
            for cid, enc in units.items():
                value = engine.value(enc)
                if value == TRUE:
                    continue
                if value == FALSE:
                    conflict = True
                    break
                engine.enqueue(enc, cid)
        if not conflict:
            conflict = engine.propagate() is not None
        engine.backtrack(0)
        return conflict

    def partial(reason: str, index: int) -> StreamingCheckReport:
        if obs is not None:
            obs.event("budget_exhausted", reason=reason)
            obs.counter_add("repro_budget_exhausted_total")
        write_checkpoint()
        return build.build(
            RESOURCE_LIMIT_EXCEEDED,
            bcp_counters=merged_counters(),
            num_additions=additions, num_deletions=deletions,
            stopped_at_event=index, failure_reason=reason,
            peak_live_clauses=peak, live_clauses=len(live_lits),
            window_shifts=window_shifts,
            checkpoints_written=checkpoints_written,
            resumed_from_event=resumed_from,
            checkpoint_path=(str(checkpoint_path)
                             if checkpoint_path is not None else None),
            warnings=warnings)

    def verdict(outcome: str, **fields) -> StreamingCheckReport:
        discard_checkpoint()
        return build.build(
            outcome, bcp_counters=merged_counters(),
            num_additions=additions, num_deletions=deletions,
            peak_live_clauses=peak, live_clauses=len(live_lits),
            window_shifts=window_shifts,
            checkpoints_written=checkpoints_written,
            resumed_from_event=resumed_from,
            warnings=warnings, **fields)

    streamed = None   # the file source's current event

    def file_events():
        nonlocal streamed
        for streamed in DrupStreamReader(proof,
                                         start_offset=start_offset,
                                         start_line=start_line,
                                         start_index=start_index):
            yield streamed.index, streamed.event

    source = enumerate(proof.events) if in_memory else file_events()
    derived_empty = False
    events_since_checkpoint = 0
    guard = _InterruptGuard()
    try:
        with guard, build.phase("events"):
            for index, event in source:
                if meter is not None:
                    reason = meter.exhausted(counters)
                    if reason is not None:
                        return partial(reason, index)
                if event.kind == ADD:
                    if meter is not None and event.literals:
                        reason = meter.exhausted(
                            live_clauses=live_additions + 1,
                            live_bytes=live_bytes()
                            + (len(event.literals) + 1
                               + ENGINE_OVERHEAD_WORDS_PER_CLAUSE) * 4)
                        if reason is not None:
                            return partial(reason, index)
                    additions += 1
                    if event.literals:
                        # A trace may name variables the formula never
                        # does; they must be assignable, not a crash.
                        engine.ensure_vars(max(map(abs, event.literals)))
                    if obs is None:
                        passed = rup_check(event.literals)
                    else:
                        with build.check(index, counters):
                            passed = rup_check(event.literals)
                    if not passed:
                        return verdict(
                            PROOF_IS_NOT_CORRECT,
                            failed_event_index=index,
                            failure_reason=(f"addition {event.literals} "
                                            "is not RUP"))
                    if not event.literals:
                        derived_empty = True
                        break
                    load(event.literals)
                    loaded += 1
                    live_additions += 1
                    live_addition_words += len(event.literals)
                    peak = max(peak, len(live_lits))
                else:
                    deletions += 1
                    key = clause_key(event.literals)
                    cids = active.get(key)
                    if not cids:
                        if not lenient_deletions:
                            where = (f"event {index}" if in_memory else
                                     f"line {streamed.line_number}")
                            raise ProofFormatError(
                                f"{where}: deletion "
                                f"of unknown or already-deleted clause "
                                f"{list(event.literals)} (use "
                                "lenient deletions to skip)")
                        warnings.append(
                            f"event {index}: skipped deletion of "
                            f"unknown clause {list(event.literals)}")
                    else:
                        cid = cids.pop()
                        engine.remove_clause(cid)
                        units.pop(cid, None)
                        lits = live_lits.pop(cid)
                        findex = formula_index.pop(cid, None)
                        if findex is not None:
                            deleted_formula.add(findex)
                        else:
                            live_additions -= 1
                            live_addition_words -= len(lits)
                    if build.progress is not None:
                        build.progress.update(additions + deletions)
                set_live_gauges()
                applied = streamed
                if guard.pending is not None:
                    raise _BoundaryInterrupt
                events_since_checkpoint += 1
                if checkpoint_path is not None \
                        and events_since_checkpoint >= checkpoint_every:
                    write_checkpoint()
                    events_since_checkpoint = 0
                dead = loaded - len(live_lits)
                if dead >= _MIN_DEAD_FOR_SHIFT \
                        and dead > DEFAULT_WINDOW_SLACK \
                        * max(len(live_lits), 1):
                    shift_window()
    except KeyboardInterrupt as exc:
        # Flush a final resume token before the interrupt propagates
        # (the CLI turns this into exit 130) — but only when the state
        # is consistent: at an event boundary, or in the no-guard
        # fallback (non-main thread) where best effort is all there is.
        # A second, emergency signal mid-event skips the write; the
        # last cadence checkpoint remains the resume point.
        if isinstance(exc, _BoundaryInterrupt) or not guard.installed:
            write_checkpoint()
        raise

    if obs is not None:
        obs.counter_add("repro_drup_additions_total", additions,
                        help="DRUP additions RUP-checked")
        obs.counter_add("repro_drup_deletions_total", deletions,
                        help="DRUP deletion events honored")
        obs.gauge_set("repro_drup_peak_active_clauses", peak,
                      help="Peak size of the active clause set")
    if not derived_empty:
        return verdict(
            PROOF_IS_NOT_CORRECT,
            failure_reason="trace never derives the empty clause")
    return verdict(PROOF_IS_CORRECT)
