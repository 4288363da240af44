"""The pre-warmed worker pool: persistent processes, hot services.

``weblint --jobs N`` opens a :class:`~repro.core.service.ParallelExecutor`
per batch, so every batch pays worker start-up plus per-worker service
rebuild and dispatch-table compilation -- which is exactly why small
batches lose to sequential (BENCH_parallel.json).  :class:`WarmPool` is
the same executor kept open for the life of the daemon: workers run
:func:`repro.core.service._worker_init` once, compile their tables
once, and every later batch is lint work plus one pipe round trip per
worker.  A request of up to ``4 x jobs`` documents goes as one chunk
per worker; cache hits, crash fallback (``lint.pool.fallbacks``) and
replacing a dead worker (``lint.pool.rebuilds``) all come from the
executor.

``prewarm()`` starts every worker and waits for each one's ready
message *before* the first request arrives, so the first client sees
the same latency as the thousandth.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.service import LintRequest, LintResult, ParallelExecutor
from repro.obs.metrics import get_registry


class WarmPool(ParallelExecutor):
    """A persistent process pool whose workers stay hot.

    Thread-safe: the daemon's handler threads may submit batches
    concurrently.
    """

    #: Batches on the pool right now (feeds ``daemon.workers.busy``).
    _busy = 0

    def prewarm(self, timeout_s: float = 30.0) -> int:
        """Start every worker and wait for its ready message; return
        how many are warm.

        A worker says it is ready once it has built its service and
        compiled its tables -- the whole point of a *pre*-warmed pool.
        """
        workers = self._checkout(self.jobs)
        deadline = time.monotonic() + timeout_s
        warm = sum(
            worker.greet(max(0.0, deadline - time.monotonic())) for worker in workers
        )
        for worker in workers:
            self._checkin(worker)
        get_registry().set_gauge("daemon.workers", warm or 1)
        return warm

    def check_batch(self, requests: list[LintRequest]) -> list[LintResult]:
        """Check one request's documents on the warm workers, in input order."""
        registry = get_registry()
        with self._lock:
            self._busy += 1
            registry.gauge_max("daemon.workers.busy", min(self._busy, self.jobs))
        results: list[Optional[LintResult]] = [None] * len(requests)
        try:
            for index, result in self.iter_run(requests):
                results[index] = result
        finally:
            with self._lock:
                self._busy -= 1
        return results  # type: ignore[return-value]
