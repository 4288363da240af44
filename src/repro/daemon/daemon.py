"""The persistent lint service: warm workers behind a bounded queue.

One :class:`LintDaemon` owns

- a *base* :class:`~repro.core.service.LintService`, built and warmed
  once, shared by every request that uses the daemon's configuration;
- a :class:`~repro.daemon.pool.WarmPool` of pre-warmed worker
  processes for batches worth fanning out;
- a small LRU of additional warm services keyed by options
  fingerprint, so gateway requests that tweak options (``pedantic=1``,
  a different spec) also stop rebuilding a service per request;
- an :class:`AdmissionGate` bounding concurrent in-flight requests:
  past the limit the front end answers 429 with a ``Retry-After``
  estimate instead of queueing without bound, and during drain new
  work is refused (503) while in-flight requests complete;
- a crash-safe lifecycle journal: an append-only ``journal.jsonl``
  (:class:`repro.store.JsonLog`) plus an atomic ``state.json``
  (:func:`repro.store.write_atomic`), so a supervisor
  -- or the next daemon start -- can tell a clean stop from a crash
  (``daemon.unclean_starts``).

Everything the daemon does is measured through :mod:`repro.obs`:
``daemon.requests`` / ``daemon.request_ms`` / ``daemon.documents``,
``daemon.rejected``, the ``daemon.queue.depth`` gauge and the worker
gauges exported at ``/metrics``.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.config.options import Options
from repro.core.service import (
    LintRequest,
    LintResult,
    LintService,
    resolve_jobs,
)
from repro.daemon.pool import WarmPool
from repro.obs.events import get_event_log
from repro.obs.metrics import get_registry
from repro.store import JsonLog, write_atomic

#: Batches smaller than this run inline on the (already warm) base
#: service: for a handful of documents the lint work is cheaper than
#: shipping them to a worker and back.
FANOUT_THRESHOLD = 4

#: How many per-options warm services the gateway path may keep.
SERVICE_LRU_LIMIT = 16


class DaemonSaturated(Exception):
    """Admission refused: the queue is full or the daemon is draining."""

    def __init__(self, retry_after_s: int, draining: bool = False) -> None:
        self.retry_after_s = max(1, int(retry_after_s))
        self.draining = draining
        state = "draining" if draining else "saturated"
        super().__init__(f"lint daemon {state}; retry after {retry_after_s}s")


class AdmissionGate:
    """Bounded admission: at most ``limit`` requests in flight.

    ``try_acquire`` never blocks -- backpressure is the *caller's*
    (HTTP 429), not a hidden unbounded queue.  ``close()`` starts a
    drain: no new admissions, and ``wait_idle`` lets the shutdown path
    wait for the in-flight count to reach zero.
    """

    def __init__(self, limit: int) -> None:
        self.limit = max(1, limit)
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._depth = 0
        self._closed = False

    def try_acquire(self) -> bool:
        with self._lock:
            if self._closed or self._depth >= self.limit:
                return False
            self._depth += 1
            depth = self._depth
        get_registry().set_gauge("daemon.queue.depth", depth)
        return True

    def release(self) -> None:
        with self._idle:
            self._depth = max(0, self._depth - 1)
            depth = self._depth
            self._idle.notify_all()
        get_registry().set_gauge("daemon.queue.depth", depth)

    def close(self) -> None:
        with self._lock:
            self._closed = True

    def wait_idle(self, timeout_s: float) -> bool:
        """Wait for every admitted request to finish; True when idle."""
        deadline = time.monotonic() + timeout_s
        with self._idle:
            while self._depth > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def closed(self) -> bool:
        return self._closed


class LifecycleJournal:
    """Crash-safe daemon lifecycle state under ``DIR/daemon/``.

    Events append to ``journal.jsonl`` (a :class:`repro.store.JsonLog`,
    like the frontier journal), the current state rewrites
    ``state.json`` atomically.  ``started()`` reports whether the
    previous lifetime ended cleanly, so an operator can see crash loops
    in the journal and in ``daemon.unclean_starts``.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory) / "daemon"
        self.journal_path = self.directory / "journal.jsonl"
        self.state_path = self.directory / "state.json"

    def _append(self, event: str, **fields: object) -> None:
        record = {"event": event, "unix": round(time.time(), 3), **fields}
        try:
            with JsonLog(self.journal_path) as log:
                log.append(record)
        except OSError:
            get_registry().inc("daemon.journal_write_errors")

    def _write_state(self, state: dict[str, object]) -> None:
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            write_atomic(
                self.state_path, json.dumps(state, sort_keys=True).encode("utf-8")
            )
        except OSError:
            get_registry().inc("daemon.journal_write_errors")

    def load_state(self) -> Optional[dict[str, object]]:
        try:
            payload = json.loads(self.state_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def started(self, workers: int, queue_limit: int) -> bool:
        """Record a start; returns False when the last stop was unclean."""
        previous = self.load_state()
        clean = previous is None or bool(previous.get("clean", True))
        if not clean:
            get_registry().inc("daemon.unclean_starts")
            get_event_log().emit(
                "daemon.unclean_start",
                level="warn",
                previous_pid=previous.get("pid") if previous else None,
            )
        self._append(
            "started", pid=os.getpid(), workers=workers,
            queue_limit=queue_limit, previous_clean=clean,
        )
        self._write_state(
            {
                "pid": os.getpid(),
                "started_unix": round(time.time(), 3),
                "workers": workers,
                "queue_limit": queue_limit,
                "clean": False,
            }
        )
        return clean

    def draining(self) -> None:
        self._append("draining", pid=os.getpid())

    def stopped(self, requests: int) -> None:
        self._append("stopped", pid=os.getpid(), requests=requests)
        state = self.load_state() or {}
        state.update({"clean": True, "stopped_unix": round(time.time(), 3)})
        self._write_state(state)


class LintDaemon:
    """The long-lived lint service every front end can share."""

    def __init__(
        self,
        options: Optional[Options] = None,
        jobs: int = 0,
        queue_limit: int = 64,
        cache=None,
        state_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.options = options if options is not None else Options.with_defaults()
        self.service = LintService(options=self.options, cache=cache)
        self.jobs = resolve_jobs(jobs)
        self.gate = AdmissionGate(queue_limit)
        self.journal = LifecycleJournal(state_dir) if state_dir else None
        self.pool: Optional[WarmPool] = None
        self._services: "OrderedDict[tuple, LintService]" = OrderedDict()
        self._services_lock = threading.Lock()
        self._started = False
        self._draining = False

    # -- lifecycle -----------------------------------------------------------

    def start(self, prewarm: bool = True) -> "LintDaemon":
        """Build (and pre-warm) the worker pool; record the start."""
        if self._started:
            return self
        self._started = True
        registry = get_registry()
        registry.set_gauge("daemon.queue.limit", self.gate.limit)
        if self.jobs > 1 and self.service.portable:
            self.pool = WarmPool(self.service, self.jobs)
        self.service.warm()
        if self.pool is not None and prewarm:
            warmed = self.pool.prewarm()
            get_event_log().emit(
                "daemon.started", level="info",
                workers=warmed, queue_limit=self.gate.limit,
            )
        else:
            registry.set_gauge("daemon.workers", 1)
        if self.journal is not None:
            self.journal.started(self.jobs, self.gate.limit)
        return self

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Refuse new work; in-flight requests keep running."""
        if self._draining:
            return
        self._draining = True
        self.gate.close()
        if self.journal is not None:
            self.journal.draining()
        get_event_log().emit("daemon.draining", level="info")

    def shutdown(self, drain: bool = True, timeout_s: float = 30.0) -> bool:
        """Stop the daemon; True when every in-flight request finished.

        ``drain=True`` (the default) closes admission and waits up to
        ``timeout_s`` for the queue to empty before tearing the pool
        down, so accepted requests are never abandoned mid-lint.
        """
        self.begin_drain()
        drained = self.gate.wait_idle(timeout_s) if drain else False
        if self.pool is not None:
            self.pool.shutdown()
        if self.journal is not None:
            self.journal.stopped(
                requests=get_registry().value("daemon.requests")
            )
        get_event_log().emit("daemon.stopped", level="info", drained=drained)
        return drained

    def __enter__(self) -> "LintDaemon":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- admission -----------------------------------------------------------

    def retry_after_s(self) -> int:
        """Estimate when a rejected client should retry.

        A full queue drains at roughly ``mean request time x limit /
        workers``; clamped to 1..30 seconds so the header is always
        actionable.
        """
        histogram = get_registry().histogram("daemon.request_ms")
        mean_s = (histogram.mean or 100.0) / 1000.0
        workers = self.jobs if self.pool is not None else 1
        estimate = self.gate.limit * mean_s / max(1, workers)
        return max(1, min(30, int(round(estimate + 0.5))))

    @contextlib.contextmanager
    def admitted(self) -> Iterator[None]:
        """Admission-controlled scope around one request.

        Raises :class:`DaemonSaturated` (counted in ``daemon.rejected``)
        instead of queueing when the daemon is full or draining.
        """
        if not self.gate.try_acquire():
            get_registry().inc("daemon.rejected")
            raise DaemonSaturated(self.retry_after_s(), draining=self._draining)
        try:
            yield
        finally:
            self.gate.release()

    # -- warm services -------------------------------------------------------

    def service_for(self, options: Optional[Options]) -> LintService:
        """A warm service for ``options`` (the daemon's own when None).

        Services are cached by options fingerprint in a small LRU, so a
        gateway user who always checks with ``pedantic=1`` pays the
        service build and table compilation once, not per request.
        """
        if options is None:
            return self.service
        key = options.fingerprint()
        if key == self.options.fingerprint():
            return self.service
        with self._services_lock:
            service = self._services.get(key)
            if service is not None:
                self._services.move_to_end(key)
                return service
        service = LintService(options=options.copy(), cache=self.service.cache)
        service.warm()
        with self._services_lock:
            self._services[key] = service
            self._services.move_to_end(key)
            while len(self._services) > SERVICE_LRU_LIMIT:
                self._services.popitem(last=False)
        get_registry().inc("daemon.services.built")
        return service

    # -- checking ------------------------------------------------------------

    def check_batch(
        self,
        requests: list[LintRequest],
        options: Optional[Options] = None,
    ) -> list[LintResult]:
        """Check one admitted request's documents on warm capacity.

        Batches of ``FANOUT_THRESHOLD`` documents or more run on the
        pre-warmed pool (when the request uses the daemon's own
        configuration -- the pool's workers are built for exactly that
        service); smaller batches and custom-options requests run inline
        on a warm service.  Either way: no per-request service build, no
        per-request pool spin-up, and the daemon's result cache serves
        both paths.
        """
        registry = get_registry()
        start = time.perf_counter()
        service = self.service_for(options)
        if (
            self.pool is not None
            and service is self.service
            and len(requests) >= FANOUT_THRESHOLD
        ):
            results = self.pool.check_batch(requests)
        else:
            results = [service.check(request) for request in requests]
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        registry.inc("daemon.requests")
        registry.inc("daemon.documents", len(requests))
        registry.observe("daemon.request_ms", elapsed_ms)
        events = get_event_log()
        if events.enabled:
            events.note_operation("daemon.request", elapsed_ms)
            events.emit(
                "daemon.request",
                level="debug",
                documents=len(requests),
                duration_ms=round(elapsed_ms, 3),
            )
        return results

    def check_one(self, request: LintRequest) -> LintResult:
        """Single-document convenience used by the gateway path."""
        return self.check_batch([request])[0]
