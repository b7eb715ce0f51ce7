"""Resource budgets for proof verification.

The paper's procedures are total — BCP terminates — but "terminates" is
not "terminates soon": an adversarial or merely enormous proof can make
a checker run for hours.  A production verifier must instead degrade
gracefully: stop at a declared budget and report *partial progress*
(how many checks completed, where it stopped) with the dedicated
``resource_limit_exceeded`` outcome, never an unbounded run and never a
raw exception at the API surface.

Two budget axes are supported, mirroring DRAT-trim's ``-t``/``-L``
style limits:

``timeout``
    Wall-clock seconds, measured with ``time.monotonic`` from
    :meth:`CheckBudget.start`.  On Linux the monotonic clock is shared
    across ``fork``-ed processes, so one deadline is enforceable by
    every pool worker.

``max_props``
    Propagation *work units* — ``assignments + clause_visits`` from the
    engines' :class:`~repro.bcp.engine.PropagationCounters` — the same
    instrumentation the incremental-engine speedups are claimed in.
    Wall-clock limits are machine-dependent; work units are not, so CI
    budgets stay meaningful across hardware.

Granularity: budgets are consulted *between* checks (per proof clause,
per shard index), not inside a single BCP run.  A single check can therefore overshoot by one BCP fixpoint; that is bounded by
the clause database and keeps the hot loops budget-free.  In the
parallel backend each worker enforces the shared deadline itself and the
``max_props`` limit against its own counters, so the aggregate may
overshoot by up to one shard per worker — degradation is best-effort,
the *outcome* is still exact.

Internally, exhaustion travels as :class:`BudgetExhausted` (a
``ReproError``, defined in :mod:`repro.core.exceptions` and re-exported
here) and is converted by the verification drivers into a report; it
never escapes the public ``verify_*`` entry points.  This module loads
only on budgeted runs (``--timeout``/``--max-props``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bcp.engine import PropagationCounters
from repro.core.exceptions import BudgetExhausted


@dataclass(frozen=True)
class CheckBudget:
    """Declarative resource limits for one verification run.

    ``timeout`` is wall-clock seconds; ``max_props`` is propagation work
    units (``assignments + clause_visits``).  ``None`` disables an axis; a budget with
    every axis ``None`` is valid and never trips.  Call :meth:`start`
    to obtain the mutable :class:`BudgetMeter` that a single run
    charges against — the budget itself stays immutable and reusable
    across runs.
    """

    timeout: float | None = None
    max_props: int | None = None

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(
                f"timeout must be positive, got {self.timeout!r}")
        if self.max_props is not None and self.max_props <= 0:
            raise ValueError(
                f"max_props must be positive, got {self.max_props!r}")

    @property
    def unlimited(self) -> bool:
        return self.timeout is None and self.max_props is None

    def start(self, counters: PropagationCounters | None = None,
              ) -> "BudgetMeter":
        """Begin metering a run: the clock starts now, and ``counters``
        (if given) provides the work-unit baseline to charge against."""
        return BudgetMeter(self, counters)


class BudgetMeter:
    """A running charge against a :class:`CheckBudget`.

    Created by :meth:`CheckBudget.start`.  The meter is cheap to consult
    (:meth:`exhausted` / :meth:`ensure`) and can be *rebased* onto a
    different counter object — a forked pool worker owns a fresh engine,
    so it calls :meth:`rebase` to keep the shared deadline while
    charging work units against its own counters.
    """

    def __init__(self, budget: CheckBudget,
                 counters: PropagationCounters | None = None,
                 deadline: float | None = None):
        self.budget = budget
        self.deadline = deadline
        if deadline is None and budget.timeout is not None:
            self.deadline = time.monotonic() + budget.timeout
        self._base = counters.total_work() if counters is not None else 0

    def rebase(self, counters: PropagationCounters | None) -> "BudgetMeter":
        """The same deadline, charged against a new counter baseline."""
        return BudgetMeter(self.budget, counters, deadline=self.deadline)

    def props_used(self, counters: PropagationCounters) -> int:
        return counters.total_work() - self._base

    def remaining_time(self) -> float | None:
        """Seconds left before the deadline (None: no time limit)."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def exhausted(self, counters: PropagationCounters | None = None,
                  ) -> str | None:
        """The reason the budget is exhausted, or None if it is not."""
        if self.deadline is not None:
            over = time.monotonic() - self.deadline
            if over >= 0:
                return (f"wall-clock budget of {self.budget.timeout:g}s "
                        f"exhausted ({over:.3f}s over)")
        if self.budget.max_props is not None and counters is not None:
            used = self.props_used(counters)
            if used >= self.budget.max_props:
                return (f"propagation budget of {self.budget.max_props} "
                        f"work units exhausted ({used} used)")
        return None

    def ensure(self, counters: PropagationCounters | None = None) -> None:
        """Raise :class:`BudgetExhausted` if the budget ran out."""
        reason = self.exhausted(counters)
        if reason is not None:
            raise BudgetExhausted(reason)
