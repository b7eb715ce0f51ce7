"""Proof-shape cost-model shard planning for parallel verification.

:func:`repro.verify.parallel.make_shards` splits the proof indices into
equal-*count* contiguous shards, but the checks are nowhere near
equal-cost: check ``i`` runs BCP over ``F`` plus the first ``i`` proof
clauses, so high-index checks propagate over a strictly larger live set
(longer watch rows, more traffic), and wide proof clauses assume more
literals per check.  On backward passes the equal-count split therefore
systematically hands the last shard the most work — the timeline
tooling (PR 8) measures exactly this as shard skew, with the slowest
shard dominating wall-clock.

This module plans shards by *predicted cost* instead:

* :func:`predict_costs` — cheap static proxies, pure Python: per-check
  cost scales with the live clause count at the check's ceiling (proof
  position) times an assumption-width factor, plus a root-replay term
  in rebuild mode (every rebuild check re-asserts the unit prefix).  The width
  factor doubles as a resolution-trace-length proxy: a wide conflict
  clause assumes more literals, opening a larger propagation frontier.
* :func:`load_calibration` — optionally replaces the analytic position
  curve with an *empirical* one recovered from ``.repro/history.jsonl``:
  a previous parallel run's attribution section records measured
  propagation work per shard span (PR 4/PR 8), which is a
  piecewise-constant sample of the true cost-vs-index curve.
* :func:`plan_shards` — partitions the index range into contiguous
  shards of (approximately) equal *predicted* cost, clamped so every
  shard carries at least :data:`MIN_CHECKS_PER_SHARD` checks, and
  orders dispatch largest-predicted-first (LPT) so the pool never
  starts a long shard last.  Shards stay contiguous ``(lo, hi)``
  ranges: the fault-tolerant backend's first-failure reduction, retry
  keying and the incremental checker's root-trail amortization all
  rely on contiguity, and a contiguous equal-cost partition already
  removes the systematic skew (the residual within-shard variance is
  what the 4x over-sharding absorbs).

``REPRO_SHARD_PLANNER`` selects the planner globally: ``cost`` (the
default) or ``contiguous`` (the legacy equal-count split, kept as an
escape hatch and as the degenerate-input fallback).  Every plan is a
pure function of its inputs — the same formula, proof, jobs and
calibration always produce the same plan, regardless of worker count
at execution time (plan determinism is what makes the ``--jobs 1`` vs
``--jobs 4`` artifact-identity guarantee extend to planned runs).

The executed plan is announced with a ``shard_plan`` obs event
(planner, source, shard count, predicted skew) so ``repro obs
timeline`` can attribute skew reduction to the planner; see
``docs/observability.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

#: Minimum checks a shard should carry: below this the per-shard
#: overhead (span bookkeeping, IPC, result pickling) outweighs the
#: balancing benefit of more shards.  `make_shards` and the planner
#: share this clamp.
MIN_CHECKS_PER_SHARD = 16

#: Over-sharding factor: shards per worker, so the pool can rebalance
#: residual prediction error dynamically.
SHARDS_PER_JOB = 4

PLANNERS = ("cost", "contiguous")

#: Relative weight of the rebuild-mode root-replay term: every rebuild
#: check re-asserts the unit prefix before assuming, which adds a
#: near-constant cost floor per check and flattens the position curve.
_REBUILD_REPLAY_WEIGHT = 0.5


def planner_choice(planner: str | None = None) -> str:
    """The effective planner name: explicit argument, then the
    ``REPRO_SHARD_PLANNER`` environment override, then ``cost``."""
    if planner is None:
        planner = os.environ.get("REPRO_SHARD_PLANNER") or "cost"
        planner = planner.strip() or "cost"
    if planner not in PLANNERS:
        raise ValueError(f"unknown shard planner {planner!r}; "
                         f"expected one of {PLANNERS}")
    return planner


def shard_count(num_indices: int, jobs: int,
                min_checks: int = MIN_CHECKS_PER_SHARD) -> int:
    """How many shards to cut ``num_indices`` checks into.

    Over-shards by :data:`SHARDS_PER_JOB` for dynamic balancing but
    never cuts shards smaller than ``min_checks`` (tiny shards pay
    per-shard span/IPC overhead for no balancing gain — the old
    unclamped split gave 16 shards to a 20-check proof).  The clamp
    trims the over-sharding only: the count never drops below one
    shard per worker while there are enough checks to go around, so
    a small proof still spreads across the pool instead of idling
    every worker but one.
    """
    if num_indices <= 0:
        return 0
    jobs = max(1, jobs)
    return max(1, min(num_indices,
                      jobs * SHARDS_PER_JOB,
                      max(jobs, num_indices // min_checks)))


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic sharding of a check-index range.

    ``shards`` are contiguous ``(lo, hi)`` bounds partitioning
    ``range(n)``; ``predicted`` the planner's cost estimate per shard
    (same order); ``dispatch`` the submission order as indices into
    ``shards`` (largest predicted cost first).
    """

    shards: tuple[tuple[int, int], ...]
    predicted: tuple[float, ...]
    dispatch: tuple[int, ...]
    planner: str
    source: str

    def predicted_skew(self) -> float:
        """Max/mean predicted shard cost — 1.0 is perfectly balanced
        (the same ratio the timeline computes from measured walls)."""
        if not self.predicted:
            return 1.0
        mean = sum(self.predicted) / len(self.predicted)
        return max(self.predicted) / mean if mean > 0 else 1.0

    def dispatch_shards(self) -> list[tuple[int, int]]:
        """The shard bounds in dispatch (LPT) order."""
        return [self.shards[i] for i in self.dispatch]

    def as_event(self) -> dict:
        """Compact attrs for the ``shard_plan`` obs event."""
        return {
            "planner": self.planner,
            "source": self.source,
            "shards": len(self.shards),
            "predicted_skew": round(self.predicted_skew(), 4),
            "first_dispatched": (list(self.shards[self.dispatch[0]])
                                 if self.dispatch else None),
        }


@dataclass(frozen=True)
class Calibration:
    """An empirical cost-vs-index curve from a past run's attribution.

    ``spans`` are ``(lo, hi, cost_per_check)`` rows recovered from the
    per-shard measured propagation work of a history fingerprint;
    ``run_id`` names the fingerprint for the plan's ``source`` field.
    """

    spans: tuple[tuple[int, int, float], ...]
    run_id: str

    def density(self, index: int) -> float | None:
        """Measured cost per check at ``index``; None outside every
        recorded span (the caller falls back to the static proxy)."""
        for lo, hi, per_check in self.spans:
            if lo <= index < hi:
                return per_check
        return None


def load_calibration(instance: str | None,
                     mode: str | None = None,
                     directory: str | None = None) -> Calibration | None:
    """The newest usable attribution record for ``instance`` from the
    run-history store, or None.

    A usable record is a parallel-run fingerprint whose attribution
    section carries per-shard ``(lo, hi, props)`` rows for the same
    instance (basename match) and — when given — the same checker
    mode.  Absent store, no match, or malformed rows all return None:
    calibration is strictly best-effort and the static proxies remain
    the planner's floor.
    """
    if not instance:
        return None
    from repro.obs.insight.history import HistoryStore

    try:
        records = HistoryStore(directory).read()
    except OSError:
        return None
    want = os.path.basename(instance)
    for record in reversed(records):
        if os.path.basename(record.get("instance") or "") != want:
            continue
        if mode is not None and record.get("mode") not in (None, mode):
            continue
        attribution = record.get("attribution")
        if not isinstance(attribution, dict):
            continue
        spans = []
        for row in attribution.get("shards") or []:
            if not isinstance(row, dict):
                continue
            lo, hi = row.get("lo"), row.get("hi")
            props = row.get("props")
            if isinstance(lo, int) and isinstance(hi, int) \
                    and hi > lo and isinstance(props, (int, float)) \
                    and props >= 0:
                spans.append((lo, hi, props / (hi - lo)))
        if spans:
            return Calibration(tuple(sorted(spans)),
                               str(record.get("id")))
    return None


def predict_costs(num_input: int, widths: Sequence[int],
                  mode: str = "incremental",
                  calibration: Calibration | None = None) -> list[float]:
    """Predicted relative cost of each proof check (index order).

    Static proxies only — O(n), pure Python: check ``i`` propagates
    over ``num_input + i`` live clauses (the position term) with a
    frontier scaled by its assumption width (``widths[i]``, the proof
    clause's literal count, doubling as the resolution-trace-length
    proxy).  Rebuild mode adds the near-constant unit-replay term,
    which flattens relative differences.  A ``calibration`` replaces
    the analytic position term with the measured per-check work of a
    previous run wherever its spans cover the index.
    """
    n = len(widths)
    if n == 0:
        return []
    avg_width = max(1.0, sum(widths) / n)
    costs = []
    for i in range(n):
        base = calibration.density(i) if calibration is not None else None
        if base is None:
            base = float(num_input + i + 1)
            if mode == "rebuild":
                base += _REBUILD_REPLAY_WEIGHT * (num_input + 1)
        costs.append(base * (0.5 + 0.5 * widths[i] / avg_width))
    return costs


def plan_shards(costs: Sequence[float], jobs: int,
                planner: str | None = None,
                min_checks: int = MIN_CHECKS_PER_SHARD,
                source: str = "static") -> ShardPlan:
    """Partition ``range(len(costs))`` into contiguous shards of equal
    predicted cost (``cost`` planner) or equal count (``contiguous``).

    Deterministic: a pure function of ``(costs, jobs, planner,
    min_checks)``.  Degenerate inputs (empty, single shard, or
    non-finite/non-positive total cost) fall back to the contiguous
    split, recorded in the plan's ``source``.
    """
    planner = planner_choice(planner)
    n = len(costs)
    num_shards = shard_count(n, jobs, min_checks)
    if num_shards <= 0:
        return ShardPlan((), (), (), planner, "empty")
    total = float(sum(costs))
    if planner == "cost" and (num_shards == 1 or total <= 0
                              or total != total or total == float("inf")):
        planner_used, source = "contiguous", "degenerate"
    else:
        planner_used = planner
    if planner_used == "contiguous":
        bounds = [round(k * n / num_shards)
                  for k in range(num_shards + 1)]
    else:
        # Equal-cost walk: cut where the cost prefix crosses each
        # k/num_shards quantile.  A cut must leave at least
        # min_checks behind it and min_checks per shard still to
        # come — feasible by construction, since shard_count() caps
        # num_shards at n // min_checks.
        min_keep = min(min_checks, max(1, n // num_shards))
        bounds = [0]
        acc = 0.0
        target = total / num_shards
        for i in range(n):
            acc += costs[i]
            cuts_left = num_shards - len(bounds)
            if cuts_left <= 0:
                break
            if acc >= target * len(bounds) \
                    and i + 1 - bounds[-1] >= min_keep \
                    and n - (i + 1) >= cuts_left * min_keep:
                bounds.append(i + 1)
        bounds.append(n)
    shards = tuple((bounds[k], bounds[k + 1])
                   for k in range(len(bounds) - 1)
                   if bounds[k] < bounds[k + 1])
    predicted = tuple(float(sum(costs[lo:hi])) for lo, hi in shards)
    dispatch = tuple(sorted(range(len(shards)),
                            key=lambda k: (-predicted[k], k)))
    return ShardPlan(shards, predicted, dispatch, planner_used, source)


def plan_verification1(num_input: int, widths: Sequence[int],
                       jobs: int, mode: str = "incremental",
                       order: str = "backward",
                       instance: str | None = None,
                       history_dir: str | None = None,
                       planner: str | None = None) -> ShardPlan:
    """The verification1 plan: every index, contiguous shards.

    ``instance`` (when given) keys the best-effort calibration lookup;
    ``order`` is accepted for symmetry — the partition is identical
    either way, only the in-shard scan direction differs, which the
    backend owns.
    """
    planner = planner_choice(planner)
    calibration = None
    if planner == "cost":
        calibration = load_calibration(instance, mode, history_dir)
    costs = predict_costs(num_input, widths, mode, calibration)
    source = (f"calibrated:{calibration.run_id}"
              if calibration is not None else "static")
    return plan_shards(costs, jobs, planner=planner, source=source)

