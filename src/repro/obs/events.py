"""Structured events: a levelled, sampled JSON-lines log.

Metrics say *how many*; events say *what happened*.  An
:class:`EventLog` turns notable moments -- a slow document, a fetch
that exhausted its retries, a cache flush -- into one JSON object per
line, each carrying a timestamp (injectable clock), a level and
arbitrary fields::

    {"t": 12.5, "event": "slow_op", "level": "warn", "op": "lint.file", ...}

Three cost controls keep it viable on hot paths:

- **levels** (``debug`` < ``info`` < ``warn`` < ``error``): events below
  the log's level are dropped before any formatting happens;
- **per-event sampling**: high-frequency sources can be thinned to one
  event in N (``sample={"lint.file": 100}``); the first occurrence is
  always kept and the drop count is recorded so nothing disappears
  silently (``obs.events.sampled_out``);
- **the null default**: :func:`get_event_log` hands back a shared
  :class:`NullEventLog` whose methods are no-ops, so disabled call
  sites pay two method calls and nothing else.

The slow-operation log rides on top: any instrumented duration routed
through :meth:`EventLog.note_operation` (the lint service and the crawl
fetch path do this, and every closed tracer span does too) emits an
automatic ``slow_op`` warning when it exceeds ``slow_ms``.
"""

from __future__ import annotations

import json
import time
from typing import IO, Callable, Optional

from repro.obs.metrics import get_registry

#: Level names in severity order; index = rank.
LEVELS = ("debug", "info", "warn", "error")

#: Default slow-operation threshold (milliseconds).
DEFAULT_SLOW_MS = 250.0


def _rank(level: str) -> int:
    try:
        return LEVELS.index(level)
    except ValueError:
        return len(LEVELS)  # unknown levels never drop below threshold


class NullEventLog:
    """The do-nothing default: every emit is two method calls, no work."""

    enabled = False

    def emit(self, event: str, level: str = "info", **fields: object) -> None:
        pass

    def note_operation(self, op: str, duration_ms: float, **fields: object) -> None:
        pass


NULL_EVENT_LOG = NullEventLog()


class EventLog:
    """A recording event log writing JSON lines (or buffering in memory).

    ``stream`` receives one line per kept event as it happens; without a
    stream, events accumulate on ``records`` (bounded by
    ``max_records``, oldest dropped first) for tests and in-process
    consumers.
    """

    enabled = True

    def __init__(
        self,
        stream: Optional[IO[str]] = None,
        clock: Callable[[], float] = time.time,
        level: str = "info",
        slow_ms: float = DEFAULT_SLOW_MS,
        sample: Optional[dict[str, int]] = None,
        max_records: int = 10_000,
    ) -> None:
        self.stream = stream
        self.clock = clock
        self.level = level
        self.slow_ms = slow_ms
        #: event name -> keep one in N (first occurrence always kept).
        self.sample = dict(sample or {})
        self.max_records = max(1, max_records)
        self.records: list[dict[str, object]] = []
        self._seen: dict[str, int] = {}
        self._threshold = _rank(level)

    # -- recording ---------------------------------------------------------

    def emit(self, event: str, level: str = "info", **fields: object) -> None:
        """Record one event (unless its level or sampling drops it)."""
        if _rank(level) < self._threshold:
            return
        every = self.sample.get(event)
        if every and every > 1:
            seen = self._seen.get(event, 0)
            self._seen[event] = seen + 1
            if seen % every:
                get_registry().inc("obs.events.sampled_out")
                return
        record: dict[str, object] = {
            "t": round(self.clock(), 3),
            "event": event,
            "level": level,
        }
        for key, value in fields.items():
            record[key] = value if isinstance(
                value, (str, int, float, bool)
            ) or value is None else str(value)
        get_registry().inc("obs.events.emitted")
        if self.stream is not None:
            self.stream.write(json.dumps(record) + "\n")
        else:
            self.records.append(record)
            if len(self.records) > self.max_records:
                del self.records[: len(self.records) - self.max_records]

    def note_operation(self, op: str, duration_ms: float, **fields: object) -> None:
        """The slow-op hook: emit a warning when an operation overruns.

        Call it with any measured duration; nothing is logged (and no
        dict is built) while the operation stays under ``slow_ms``.
        """
        if duration_ms >= self.slow_ms:
            self.emit(
                "slow_op",
                level="warn",
                op=op,
                duration_ms=round(duration_ms, 3),
                threshold_ms=self.slow_ms,
                **fields,
            )


# -- the process-wide active event log --------------------------------------

_event_log: object = NULL_EVENT_LOG


def get_event_log():
    """The active event log (the shared no-op unless one is installed)."""
    return _event_log


def set_event_log(log) -> object:
    """Install an event log; returns the previous one."""
    global _event_log
    previous = _event_log
    _event_log = log if log is not None else NULL_EVENT_LOG
    return previous


class use_event_log:
    """Context manager: install an event log for a region, then restore."""

    def __init__(self, log: Optional[EventLog] = None) -> None:
        self.log = log if log is not None else EventLog()
        self._previous: Optional[object] = None

    def __enter__(self) -> EventLog:
        self._previous = set_event_log(self.log)
        return self.log

    def __exit__(self, *exc_info: object) -> None:
        set_event_log(self._previous)
