"""Report-memory sampling: the ``report.memory.high_water_bytes`` gauge.

The streaming reporting path exists so a site-scale audit does not
hold every page's diagnostics; this module measures what it holds
rather than assuming it.  The measure is not flat: on E19's pages a
streaming ``poacher`` crawl's high-water grows 5.7x from 50 to 500
pages (docs/architecture.md).  A :class:`MemorySampler` drives
``tracemalloc`` from the existing :class:`~repro.obs.export.Ticker`
(one daemon thread, one cheap read per tick) and records the traced
peak into a registry gauge, so the high-water mark shows up in
``--stats`` output, the OpenMetrics export and the run ledger like any
other metric -- and ``repro.tools.compare_runs`` can gate on it not
regressing between runs.

``tracemalloc`` tracks Python-heap allocations, which is exactly the
memory a buffered report accumulates; it is deterministic across runs
in a way RSS is not, so the recorded high-water is comparable across
machines.  Sampling costs tracemalloc's tracing overhead, so the
poacher only arms it for sharded audits (and benchmarks arm it
explicitly).
"""

from __future__ import annotations

import tracemalloc
from typing import Optional

from repro.obs.export import Ticker
from repro.obs.metrics import MetricsRegistry, get_registry

#: Peak traced Python-heap bytes while the sampler ran.
REPORT_MEMORY_GAUGE = "report.memory.high_water_bytes"


class MemorySampler:
    """Periodically fold the traced-memory peak into a registry gauge.

    ``start()`` begins tracemalloc tracing (unless something upstream
    already did) and a :class:`Ticker`; every tick reads
    ``tracemalloc.get_traced_memory()`` and raises the
    ``report.memory.high_water_bytes`` gauge to the observed peak.
    ``stop()`` fires one final sample (the Ticker's stop contract), so
    short runs still record a value, and returns the peak in bytes.
    """

    def __init__(
        self,
        interval_s: float = 0.2,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.interval_s = interval_s
        self.registry = registry
        self._ticker: Optional[Ticker] = None
        self._started_tracing = False

    def sample(self) -> int:
        """Record the current traced peak; returns it in bytes."""
        _, peak = tracemalloc.get_traced_memory()
        registry = self.registry if self.registry is not None else get_registry()
        registry.gauge_max(REPORT_MEMORY_GAUGE, float(peak))
        return peak

    def start(self) -> "MemorySampler":
        # Pin the registry on the caller's thread: the Ticker fires
        # from its own thread, which must not resolve a different one.
        if self.registry is None:
            self.registry = get_registry()
        self._started_tracing = not tracemalloc.is_tracing()
        if self._started_tracing:
            tracemalloc.start()
        self.sample()
        self._ticker = Ticker(self.interval_s, self.sample)
        self._ticker.start()
        return self

    def stop(self) -> int:
        if self._ticker is not None:
            self._ticker.stop()  # fires one final sample
            self._ticker = None
        peak = self.sample()
        if self._started_tracing:
            tracemalloc.stop()
            self._started_tracing = False
        return peak

    def __enter__(self) -> "MemorySampler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
