"""Windowed time-series: per-second ring buffers over the live run.

The :class:`~repro.obs.metrics.MetricsRegistry` answers "how much, in
total?"; a live view of a long-running workload also needs "how fast,
*right now*?".  This module holds that windowed view: a
:class:`TimeSeries` keeps one fixed ring of per-second buckets per
metric, so a rolling rate over the last N seconds costs a 60-slot scan
and the memory stays flat no matter how long the run is.

There is no process-wide series: a view owns its own and samples the
registry into it (:meth:`TimeSeries.sample_registry`), so the
instrumented hot paths record into the registry alone.  The crawl's
``--progress`` line (:class:`~repro.robot.traversal.CrawlProgress`) is
the one reader.

Everything is driven by an injectable clock (any zero-argument callable
returning seconds) so tests and golden renderings are deterministic;
the default is :func:`time.monotonic`.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

Clock = Callable[[], float]

#: Default rolling window, in seconds (and ring slots per metric).
DEFAULT_WINDOW_S = 60


class RingSeries:
    """Per-second buckets for one metric, in a fixed ring.

    Slot ``second % window`` owns epoch-second ``second``; a write into
    a slot carrying an older second resets it first, so stale data ages
    out lazily with no background sweep.
    """

    __slots__ = ("window_s", "_seconds", "_sums", "_counts")

    def __init__(self, window_s: int = DEFAULT_WINDOW_S) -> None:
        self.window_s = max(1, int(window_s))
        self._seconds = [-1] * self.window_s
        self._sums = [0.0] * self.window_s
        self._counts = [0] * self.window_s

    def add(self, t: float, value: float = 1.0, count: int = 1) -> None:
        second = int(t)
        slot = second % self.window_s
        if self._seconds[slot] != second:
            self._seconds[slot] = second
            self._sums[slot] = 0.0
            self._counts[slot] = 0
        self._sums[slot] += value
        self._counts[slot] += count

    def totals(self, t: float, window_s: Optional[int] = None) -> tuple[float, int]:
        """``(sum, count)`` over the closed window ending at ``t``."""
        window = min(self.window_s, window_s or self.window_s)
        oldest = int(t) - window + 1
        total = 0.0
        count = 0
        for slot in range(self.window_s):
            if self._seconds[slot] >= oldest and self._seconds[slot] <= int(t):
                total += self._sums[slot]
                count += self._counts[slot]
        return total, count


class TimeSeries:
    """Create-on-first-use ring buffers keyed by metric name.

    ``observe`` drops a value into the current per-second bucket and
    ``sample_registry`` folds in counter growth; ``rate`` sums over the
    trailing window.  Names follow the registry's dotted convention, so
    a sampled counter keeps its name (``robot.pages.fetched``).
    """

    def __init__(
        self,
        clock: Clock = time.monotonic,
        window_s: int = DEFAULT_WINDOW_S,
    ) -> None:
        self.clock = clock
        self.window_s = max(1, int(window_s))
        self.series: dict[str, RingSeries] = {}
        self._last_counters: dict[str, float] = {}

    def _series(self, name: str) -> RingSeries:
        ring = self.series.get(name)
        if ring is None:
            ring = self.series[name] = RingSeries(self.window_s)
        return ring

    # -- recording ---------------------------------------------------------

    def observe(self, name: str, value: float = 1.0, t: Optional[float] = None) -> None:
        self._series(name).add(self.clock() if t is None else t, value)

    def sample_registry(self, registry, t: Optional[float] = None) -> None:
        """Fold counter growth since the last sample into the rings.

        For code that only increments registry counters (no explicit
        ``observe`` calls), a periodic ticker can call this instead: the
        delta of every counter since the previous sample lands in the
        current bucket under the counter's own name.
        """
        now = self.clock() if t is None else t
        last = self._last_counters
        current: dict[str, float] = {}
        for name, value in registry.snapshot().items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                current[name] = float(value)
                delta = current[name] - last.get(name, 0.0)
                if delta > 0:
                    self._series(name).add(now, delta, count=int(delta))
        self._last_counters = current

    # -- windowed reads ----------------------------------------------------

    def rate(
        self, name: str, window_s: Optional[int] = None, t: Optional[float] = None
    ) -> float:
        """Events per second over the trailing window (sum / window)."""
        ring = self.series.get(name)
        if ring is None:
            return 0.0
        now = self.clock() if t is None else t
        window = min(self.window_s, window_s or self.window_s)
        total, _count = ring.totals(now, window)
        return total / window
