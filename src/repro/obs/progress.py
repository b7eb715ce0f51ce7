"""Opt-in progress heartbeat for long verification runs.

A parallel ``--jobs`` run — or a sequential pass over a nine-thousand
clause proof — is silent until it finishes.  The heartbeat prints a
throttled one-line status to stderr (stdout stays machine-parseable)::

    c progress: 1423/9000 checks, 2.1s elapsed, eta 11s

The ETA is the naive linear extrapolation from the observed rate; for
backward verification it is pessimistic early on (high-index checks
propagate over more clauses), which is the honest direction to err.
"""

from __future__ import annotations

import sys
import time


class ProgressReporter:
    """Throttled ``c progress:`` lines on a stream (stderr by default).

    ``interval`` is the minimum seconds between lines (0 prints every
    update — used by tests); the final :meth:`finish` line is never
    throttled, so every enabled run ends with a complete count.
    """

    def __init__(self, total: int, stream=None, interval: float = 0.5,
                 clock=time.monotonic):
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self._clock = clock
        self._start = clock()
        self._last_emit: float | None = None
        self.lines_emitted = 0

    def _emit(self, done: int, now: float) -> None:
        elapsed = now - self._start
        line = (f"c progress: {done}/{self.total} checks, "
                f"{elapsed:.1f}s elapsed")
        if done and 0 < done < self.total and elapsed > 0:
            eta = elapsed * (self.total - done) / done
            line += f", eta {eta:.0f}s"
        print(line, file=self.stream, flush=True)
        self._last_emit = now
        self.lines_emitted += 1

    def update(self, done: int) -> None:
        """Report progress; throttled to one line per ``interval``."""
        now = self._clock()
        if self._last_emit is not None \
                and now - self._last_emit < self.interval:
            return
        self._emit(done, now)

    def finish(self, done: int) -> None:
        """Emit the final line unconditionally."""
        self._emit(done, self._clock())
