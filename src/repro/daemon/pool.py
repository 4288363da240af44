"""The pre-warmed worker pool: persistent processes, hot services.

``weblint --jobs N`` opens a :class:`~repro.core.service.ParallelExecutor`
per batch, so every batch pays worker spawn plus per-worker service
rebuild and dispatch-table compilation -- which is exactly why small
batches lose to sequential (BENCH_parallel.json).  :class:`WarmPool` is
the same executor kept open for the life of the daemon: workers run
:func:`repro.core.service._worker_init` once, compile their tables
once, and every subsequent batch is pure lint work plus IPC.  Cache
hits, chunking, crash fallback (``lint.pool.fallbacks``) and rebuilding
a broken pool (``lint.pool.rebuilds``) all come from the executor.

``prewarm()`` forces every worker process to start and initialise
*before* the first request arrives, so the first client sees the same
latency as the thousandth.
"""

from __future__ import annotations

import os
import time
from typing import Optional

from repro.core.service import LintRequest, LintResult, ParallelExecutor
from repro.obs.metrics import get_registry


def _warm_probe(hold_s: float) -> int:
    """Worker-side probe: hold the worker briefly, report its pid.

    The hold spreads concurrent probes across distinct workers, so the
    parent can tell how many processes have actually initialised.
    """
    time.sleep(hold_s)
    return os.getpid()


class WarmPool(ParallelExecutor):
    """A persistent process pool whose workers stay hot.

    Thread-safe: the daemon's handler threads may submit batches
    concurrently.
    """

    #: Batches on the pool right now (feeds ``daemon.workers.busy``).
    _busy = 0

    def prewarm(self, timeout_s: float = 30.0, hold_s: float = 0.05) -> int:
        """Start and initialise every worker; return how many are warm.

        Submits held probes in rounds until every worker pid has been
        seen (or the deadline passes), which forces the executor to
        spawn all processes and run the service-building initializer in
        each -- the whole point of a *pre*-warmed pool.
        """
        pool = self._pool_for(self.jobs)
        if pool is None:
            return 0
        seen: set[int] = set()
        deadline = time.monotonic() + timeout_s
        while len(seen) < self.jobs and time.monotonic() < deadline:
            remaining = max(1.0, deadline - time.monotonic())
            probes = [pool.submit(_warm_probe, hold_s) for _ in range(self.jobs)]
            try:
                for probe in probes:
                    seen.add(probe.result(timeout=remaining))
            except Exception:  # pragma: no cover - spawn failure mid-warm
                break
        get_registry().set_gauge("daemon.workers", len(seen) or 1)
        return len(seen)

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
