"""Export surfaces: OpenMetrics text and periodic telemetry flushes.

Two consumers, one snapshot:

- :func:`render_openmetrics` turns a registry snapshot into the
  Prometheus/OpenMetrics text exposition format -- what a scraper (or
  the gateway's ``/metrics`` view) expects.  The rendering is a pure
  function of the snapshot, so it is byte-deterministic and golden-
  testable.
- :class:`TelemetrySink` owns a ``--telemetry-dir``: every ``flush()``
  appends one timestamped JSON-lines record to ``metrics.jsonl`` and
  rewrites ``metrics.prom`` (the current OpenMetrics exposition), and
  ``open_event_log()`` hands out an :class:`~repro.obs.events.EventLog`
  streaming to ``events.jsonl`` in the same directory.

:class:`Ticker` is the heartbeat both long-running consumers share: a
daemon thread invoking a callback every interval until stopped.  The
callback-driven design keeps the thread trivial; tests call ``tick()``
directly with an injected clock instead of sleeping.
"""

from __future__ import annotations

import re
import threading
import time
from pathlib import Path
from typing import Callable, Optional, Union

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.store import JsonLog, write_atomic

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(name: str) -> str:
    """A registry name as a Prometheus metric name (dots become ``_``)."""
    sanitized = _NAME_RE.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _format_value(value: float) -> str:
    """Numbers without float noise: integers bare, floats via ``repr``."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_openmetrics(
    snapshot: Optional[dict[str, object]] = None,
    registry: Optional[MetricsRegistry] = None,
) -> str:
    """One registry snapshot in the OpenMetrics text exposition format.

    Counters gain the required ``_total`` suffix; gauges expose their
    value plus a ``_max`` high-water series; histograms render the
    cumulative ``_bucket{le=...}`` ladder (our per-bucket counts are
    accumulated here) with ``_sum`` and ``_count``.  Output is sorted
    by metric name and terminated by ``# EOF``, so identical snapshots
    render to identical bytes.
    """
    if snapshot is None:
        snapshot = (registry if registry is not None else get_registry()).snapshot()
    lines: list[str] = []
    for name in sorted(snapshot):
        value = snapshot[name]
        exposed = metric_name(name)
        if isinstance(value, dict) and "buckets" in value:
            lines.append(f"# TYPE {exposed} histogram")
            cumulative = 0
            # Bucket keys carry their bound (``le_10``); sort numerically.
            bounds = sorted(
                (float(key[3:]), count)
                for key, count in value["buckets"].items()
            )
            for bound, count in bounds:
                cumulative += int(count)
                lines.append(
                    f'{exposed}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
                )
            cumulative += int(value.get("overflow", 0))
            lines.append(f'{exposed}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{exposed}_sum {_format_value(value['sum'])}")
            lines.append(f"{exposed}_count {int(value['count'])}")
        elif isinstance(value, dict) and "value" in value:
            lines.append(f"# TYPE {exposed} gauge")
            lines.append(f"{exposed} {_format_value(value['value'])}")
            lines.append(f"{exposed}_max {_format_value(value['max'])}")
        else:
            lines.append(f"# TYPE {exposed} counter")
            lines.append(f"{exposed}_total {_format_value(value)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


class TelemetrySink:
    """A ``--telemetry-dir``: metrics.jsonl + metrics.prom + events.jsonl.

    ``flush()`` is cheap enough to call per tick on a long crawl and
    harmless to call exactly once at the end of a short CLI run.
    ``metrics.prom`` is replaced atomically, so a scraper never reads a
    torn file.  Write failures degrade silently (telemetry must never
    fail the run) but are counted under ``obs.telemetry.write_errors``.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.directory = Path(directory)
        self.clock = clock
        self.metrics_path = self.directory / "metrics.jsonl"
        self.prom_path = self.directory / "metrics.prom"
        self.events_path = self.directory / "events.jsonl"
        self._events: Optional[JsonLog] = None
        self.flushes = 0

    def open_event_log(self, **kwargs) -> EventLog:
        """An event log streaming JSON lines to ``events.jsonl``.

        Each event is one append to a :class:`~repro.store.JsonLog`, so
        it is on disk as soon as it is emitted: a long-lived daemon's
        events can be read while it serves, and a killed process loses
        none.
        """
        self._events = JsonLog(self.events_path)
        kwargs.setdefault("clock", self.clock)
        return EventLog(stream=self._events, **kwargs)

    def flush(self, registry: Optional[MetricsRegistry] = None) -> None:
        """Append one metrics record and rewrite the OpenMetrics file."""
        snapshot = (
            registry if registry is not None else get_registry()
        ).snapshot()
        record = {"t": round(self.clock(), 3), "metrics": snapshot}
        try:
            with JsonLog(self.metrics_path) as log:
                log.append(record)
            write_atomic(
                self.prom_path, render_openmetrics(snapshot).encode("utf-8")
            )
        except OSError:
            get_registry().inc("obs.telemetry.write_errors")
            return
        self.flushes += 1

    def close(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.flush(registry)
        if self._events is not None:
            self._events.close()
            self._events = None


class Ticker:
    """A daemon thread calling ``callback()`` every ``interval_s``.

    ``stop()`` wakes the thread immediately and fires one final
    callback, so consumers always see the end-of-run state (the last
    progress line, the final telemetry flush).  Callback exceptions are
    swallowed: a broken ticker must never take the crawl down with it.
    """

    def __init__(self, interval_s: float, callback: Callable[[], None]) -> None:
        self.interval_s = max(0.01, interval_s)
        self.callback = callback
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def tick(self) -> None:
        try:
            self.callback()
        except Exception:  # pragma: no cover - defensive
            pass

    def start(self) -> "Ticker":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.tick()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2)
            self._thread = None
        self.tick()

    def __enter__(self) -> "Ticker":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
