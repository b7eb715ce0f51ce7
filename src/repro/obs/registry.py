"""Metrics registry: counters, gauges, and fixed-bucket histograms.

A zero-dependency instrumentation core in the spirit of a Prometheus
client, shrunk to what a proof verifier needs:

* :class:`Counter` — a monotonically increasing integer (checks run,
  propagation work units, worker failures);
* :class:`Gauge` — a last-written value with a recorded maximum
  (worker count, shard queue depth);
* :class:`Histogram` — fixed upper-bound buckets plus sum/count/max
  (per-check wall time, per-check propagation work).

Design constraints, in priority order:

1. **Disabled means free.**  The hot BCP loops never talk to a registry
   — they maintain the plain-int
   :class:`~repro.bcp.engine.PropagationCounters` they always have, and
   the *drivers* publish those into a registry between checks, only
   when one was supplied.  ``obs=None`` (the default everywhere) keeps
   every hot path exactly as it was; a guard test asserts the registry
   is never entered on the disabled path.
2. **Merge is associative and commutative.**  The parallel backend
   aggregates per-shard registry snapshots in the parent in completion
   order, which is nondeterministic — so counters merge by sum,
   histograms bucket-wise by sum, and gauges by *max* (the documented
   semantics: a merged gauge answers "the largest value any shard
   saw"), all of which are order-insensitive.
3. **Snapshots are plain data.**  :meth:`MetricsRegistry.snapshot`
   returns dicts of ints/floats, safe to pickle across the fork
   boundary and to serialize as JSON.
"""

from __future__ import annotations

import math

# Upper bounds (seconds) for duration histograms: tuned to per-check
# BCP times, which span ~10us (trivial re-checks) to seconds (huge
# root rebuilds).  The terminal +inf bucket is implicit.
DEFAULT_TIME_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

# Upper bounds for work-unit histograms (assignments + clause visits
# per check) — the machine-independent sibling of the time buckets.
DEFAULT_WORK_BUCKETS = (
    10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000,
)


class Counter:
    """A monotonically increasing integer metric."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name} cannot decrease (inc({amount}))")
        self.value += amount

    def snapshot(self):
        return self.value

    def merge(self, other_value) -> None:
        if other_value < 0:
            raise ValueError(
                f"counter {self.name} cannot merge a negative value")
        self.value += other_value


class Gauge:
    """A last-written value; the maximum ever set is kept alongside.

    Merging takes the *max* of both the current value and the recorded
    maximum, which is associative/commutative — the right semantics for
    "peak queue depth across shards" style aggregation.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: float = 0.0
        self.max: float = -math.inf
        self._written = False

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max:
            self.max = value
        self._written = True

    def snapshot(self):
        return {"value": self.value,
                "max": self.max if self._written else 0.0}

    def merge(self, other_value) -> None:
        if not self._written:
            self.value = other_value["value"]
            self.max = other_value["max"]
            self._written = True
        else:
            self.value = max(self.value, other_value["value"])
            self.max = max(self.max, other_value["max"])


class Histogram:
    """Fixed-upper-bound buckets with sum, count, and max.

    ``buckets`` are *inclusive* upper bounds in increasing order; an
    implicit +inf bucket catches the rest.  Bucket layout is part of a
    metric's identity: merging histograms with different bounds is an
    error, not a silent misaggregation.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: tuple = DEFAULT_TIME_BUCKETS):
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(
                buckets):
            raise ValueError(
                f"histogram {name}: buckets must be strictly increasing")
        self.name = name
        self.help = help
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum: float = 0.0
        self.count = 0
        self.max: float = 0.0

    def observe(self, value: float) -> None:
        lo, hi = 0, len(self.buckets)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.buckets[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.sum += value
        self.count += 1
        if value > self.max:
            self.max = value

    def snapshot(self):
        return {"buckets": list(self.buckets), "counts": list(self.counts),
                "sum": self.sum, "count": self.count, "max": self.max}

    def merge(self, other_value) -> None:
        if list(other_value["buckets"]) != list(self.buckets):
            raise ValueError(
                f"histogram {self.name}: cannot merge mismatched bucket "
                f"layouts {other_value['buckets']} vs {list(self.buckets)}")
        for i, count in enumerate(other_value["counts"]):
            self.counts[i] += count
        self.sum += other_value["sum"]
        self.count += other_value["count"]
        self.max = max(self.max, other_value["max"])


class MetricsRegistry:
    """A named collection of metrics with mergeable snapshots.

    ``counter()``/``gauge()``/``histogram()`` are get-or-create: the
    first call fixes the metric's kind (and a histogram's buckets);
    later calls return the same object, so call sites need no shared
    setup.  Asking for an existing name with a different kind raises —
    that is a naming bug, not a use case.
    """

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, cls, name: str, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}")
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help=help)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple = DEFAULT_TIME_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help=help,
                                   buckets=buckets)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> dict:
        """Plain-data view: ``{name: {"kind": ..., "value": ...}}``.

        Keys are emitted in sorted order so serialized snapshots are
        byte-stable for a given metric state.
        """
        return {name: {"kind": metric.kind, "help": metric.help,
                       "value": metric.snapshot()}
                for name, metric in sorted(self._metrics.items())}

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Merging is associative and commutative (sum for counters and
        histogram buckets, max for gauges), so the parent of a worker
        pool may fold shard snapshots in any completion order and
        reach the same totals.
        """
        for name, entry in snapshot.items():
            kind = entry["kind"]
            if kind == "counter":
                metric = self.counter(name, help=entry.get("help", ""))
            elif kind == "gauge":
                metric = self.gauge(name, help=entry.get("help", ""))
            elif kind == "histogram":
                metric = self.histogram(
                    name, help=entry.get("help", ""),
                    buckets=tuple(entry["value"]["buckets"]))
            else:
                raise ValueError(f"unknown metric kind {kind!r} "
                                 f"for {name!r}")
            metric.merge(entry["value"])
