"""The streaming crawl frontier: scheduler, host slots, and journal.

The wave-synchronous frontier of earlier versions barriered every BFS
level on its slowest page.  This module replaces it with the
scheduler/dupefilter/downloader-slot shape popularised by Scrapy:

- :class:`FrontierScheduler` -- a continuously-fed priority queue
  ordered by ``(depth, discovery order)``.  Workers pull the next
  *eligible* request the moment they finish the previous one; there are
  no barriers, so one slow host never idles the other hosts' workers.
- :func:`request_fingerprint` -- the dupefilter key: each URL is
  admitted into the queue at most once per crawl, however many pages
  link to it.
- :class:`HostSlot` -- per-host politeness: at most ``max_in_flight``
  concurrent fetches against one host, and a minimum ``delay_s``
  between fetch *starts*.  A request whose host has no free slot is
  parked (per-host, still priority-ordered) while lower-priority
  requests for other hosts proceed.
- :class:`FrontierJournal` -- a disk-backed, resumable frontier under
  ``--state-dir``: one append-only JSON-lines journal (one write per
  record, so a SIGTERM loses at most the torn last line, fsynced at
  checkpoints).  ``poacher --state-dir D --resume`` replays it and
  continues a killed crawl without refetching completed pages.

Ordering contract: the queue is *consumed* in completion order (that is
the whole point), so the crawl's canonical outputs -- the visited list
and the poacher report -- are sorted by URL at the end.  Sequential and
concurrent crawls of the same site therefore stay byte-identical.
"""

from __future__ import annotations

import hashlib
import heapq
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union

from repro.obs.metrics import get_registry
from repro.store import JsonLog, read_log
from repro.www.message import Response
from repro.www.url import resolve, urlparse

#: Bump when the journal layout changes; old state resumes cold.
JOURNAL_VERSION = 2


def request_fingerprint(url: str) -> str:
    """The dupefilter key for ``url``: sha256 of the canonical form.

    Fragments never reach the server, so ``page.html#a`` and
    ``page.html#b`` are one request; scheme/host case and default ports
    are normalised away by :func:`repro.www.url.resolve`.
    """
    try:
        canonical = resolve(url, "")
    except ValueError:
        canonical = url
    return hashlib.sha256(canonical.encode("utf-8", "surrogatepass")).hexdigest()


def shard_owns(url: str, shards: int, shard: int) -> bool:
    """Does ``shard`` (of ``shards``) own ``url``'s fingerprint?

    The sharded-audit partition: shard K processes exactly the URLs
    whose ``request_fingerprint % shards == K``.  The fingerprint is
    already the dupefilter's canonical identity, so a URL lands in the
    same shard however it was spelled, and the partition is stable
    across runs and machines.
    """
    if shards <= 1:
        return True
    return int(request_fingerprint(url), 16) % shards == shard


class FrontierRequest(NamedTuple):
    """One admitted fetch: priority is ``(depth, seq)``, FIFO within depth."""

    depth: int
    seq: int
    url: str


class HostSlot:
    """Politeness state for one host (scheduler-lock protected)."""

    __slots__ = ("delay_s", "max_in_flight", "in_flight", "next_ok",
                 "fetches", "max_busy", "wait_ms")

    def __init__(self, delay_s: float, max_in_flight: int) -> None:
        self.delay_s = max(0.0, delay_s)
        self.max_in_flight = max(1, max_in_flight)
        self.in_flight = 0
        self.next_ok = 0.0
        self.fetches = 0
        self.max_busy = 0
        self.wait_ms = 0.0

    def eligible(self, now: float) -> bool:
        return self.in_flight < self.max_in_flight and self.next_ok <= now

    def take(self, now: float) -> None:
        self.in_flight += 1
        self.fetches += 1
        self.max_busy = max(self.max_busy, self.in_flight)
        if self.delay_s:
            self.next_ok = max(now, self.next_ok) + self.delay_s

    def release(self) -> None:
        self.in_flight -= 1


class FrontierScheduler:
    """Priority queue + dupefilter + per-host downloader slots.

    Thread contract: any number of *worker* threads call
    :meth:`next_request` / :meth:`offer`; exactly one *consumer* thread
    (the one running the crawl) calls :meth:`mark_seen` / :meth:`push` /
    :meth:`next_result` / :meth:`mark_done`.  All state lives under one
    condition variable, so the sequential crawl can run the same
    scheduler inline with zero threads.
    """

    def __init__(
        self,
        max_pages: int = 1000,
        per_host_delay_s: float = 0.0,
        max_in_flight_per_host: int = 4,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.max_pages = max_pages
        self.per_host_delay_s = per_host_delay_s
        self.max_in_flight_per_host = max_in_flight_per_host
        self.clock = clock
        self._cond = threading.Condition()
        #: Globally eligible requests, ordered by (depth, seq).
        self._heap: list[tuple[int, int, str]] = []
        #: host -> heap of (depth, seq, url, parked_at) waiting for a slot.
        self._parked: dict[str, list[tuple[int, int, str, float]]] = {}
        self._slots: dict[str, HostSlot] = {}
        #: Dupefilter fingerprints, and every spelling already answered.
        self._seen: set[str] = set()
        self._spellings: set[str] = set()
        self._next_seq = 0
        self._queued = 0
        self._in_flight = 0
        self._admitted = 0
        #: Requests admitted but not yet settled via mark_done (includes
        #: in-flight fetches, queued results, and the one being consumed).
        self._outstanding = 0
        self._results: deque[tuple[FrontierRequest, Optional[Response]]] = deque()
        self._closed = False

    # -- feeding (consumer thread) -----------------------------------------

    def mark_seen(self, url: str) -> bool:
        """Dupefilter: ``True`` the first time this request is seen.

        A spelling answered before is answered again from a set: only a
        new spelling pays for its fingerprint.
        """
        with self._cond:
            if url in self._spellings:
                return False
            self._spellings.add(url)
            fingerprint = request_fingerprint(url)
            if fingerprint in self._seen:
                return False
            self._seen.add(fingerprint)
            return True

    def push(self, url: str, depth: int, seq: Optional[int] = None) -> int:
        """Queue a request (already past the dupefilter); returns its seq."""
        with self._cond:
            if seq is None:
                seq = self._next_seq
            self._next_seq = max(self._next_seq, seq + 1)
            heapq.heappush(self._heap, (depth, seq, url))
            self._queued += 1
            get_registry().set_gauge("robot.frontier.queue_depth", self._queued)
            self._cond.notify_all()
            return seq

    def restore(self, seen: set[str], next_seq: int) -> None:
        """Seed the dupefilter from a resumed journal (before replay)."""
        with self._cond:
            self._seen |= seen
            self._next_seq = max(self._next_seq, next_seq)

    def set_budget_used(self, admitted: int) -> None:
        """Count restored completions against the admission budget."""
        with self._cond:
            self._admitted = admitted

    # -- scheduling (worker threads) ---------------------------------------

    def next_request(self) -> Optional[FrontierRequest]:
        """Block until a request is eligible; ``None`` when the crawl is over.

        "Over" for a worker means: closed, the admission budget is
        spent, or nothing is queued and no admitted request is still
        outstanding (an outstanding one may yet discover new links).
        """
        with self._cond:
            while True:
                if self._closed:
                    return None
                if self._admitted >= self.max_pages:
                    return None
                request = self._pop_eligible()
                if request is not None:
                    return request
                if self._queued == 0 and self._outstanding == 0:
                    return None
                self._cond.wait(self._politeness_wait())

    def poll(self) -> Optional[FrontierRequest]:
        """Non-blocking :meth:`next_request` (tests and the inline driver)."""
        with self._cond:
            if self._closed or self._admitted >= self.max_pages:
                return None
            return self._pop_eligible()

    def offer(self, request: FrontierRequest, response: Optional[Response]) -> None:
        """A worker finished fetching ``request``; queue its result."""
        registry = get_registry()
        with self._cond:
            self._in_flight -= 1
            host = self._host_of(request.url)
            slot = self._slots.get(host)
            if slot is not None:
                slot.release()
                registry.set_gauge(
                    f"robot.frontier.slots_busy.{host}", slot.in_flight
                )
            registry.set_gauge(
                "robot.frontier.slots_busy",
                sum(s.in_flight for s in self._slots.values()),
            )
            self._results.append((request, response))
            self._cond.notify_all()

    # -- consuming (consumer thread) ---------------------------------------

    def next_result(self) -> Optional[tuple[FrontierRequest, Optional[Response]]]:
        """Block for the next completed fetch; ``None`` when none can come."""
        with self._cond:
            while True:
                if self._results:
                    return self._results.popleft()
                if self._in_flight == 0 and (
                    self._closed
                    or self._queued == 0
                    or self._admitted >= self.max_pages
                ):
                    return None
                self._cond.wait()

    def mark_done(self, request: FrontierRequest) -> None:
        """The consumer fully processed ``request`` (links enqueued)."""
        with self._cond:
            self._outstanding -= 1
            self._cond.notify_all()

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # -- introspection ------------------------------------------------------

    @property
    def queued(self) -> int:
        return self._queued

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def admitted(self) -> int:
        return self._admitted

    def busiest_slot(self) -> Optional[tuple[str, int, int]]:
        """``(host, busy, capacity)`` for the busiest host, if any."""
        with self._cond:
            best: Optional[tuple[str, int, int]] = None
            for host, slot in sorted(self._slots.items()):
                if best is None or slot.in_flight > best[1]:
                    best = (host, slot.in_flight, slot.max_in_flight)
            return best

    def host_stats(self) -> dict[str, dict[str, float]]:
        """Per-host slot utilisation for ``--stats``."""
        with self._cond:
            return {
                host: {
                    "fetches": slot.fetches,
                    "max_in_flight": slot.max_busy,
                    "wait_ms": round(slot.wait_ms, 3),
                }
                for host, slot in sorted(self._slots.items())
            }

    # -- internals (always called with the condition held) ------------------

    @staticmethod
    def _host_of(url: str) -> str:
        try:
            return urlparse(url).host
        except ValueError:
            return ""

    def _slot_for(self, host: str) -> HostSlot:
        slot = self._slots.get(host)
        if slot is None:
            slot = self._slots[host] = HostSlot(
                self.per_host_delay_s, self.max_in_flight_per_host
            )
        return slot

    def _pop_eligible(self) -> Optional[FrontierRequest]:
        now = self.clock()
        # The best already-parked request whose host freed up ...
        best_host: Optional[str] = None
        best_prio: Optional[tuple[int, int]] = None
        for host, parked in self._parked.items():
            if parked and self._slots[host].eligible(now):
                prio = (parked[0][0], parked[0][1])
                if best_prio is None or prio < best_prio:
                    best_prio, best_host = prio, host
        # ... competes with the global heap: pop heap entries that beat
        # it, parking any whose host is saturated or in its delay gap.
        while self._heap and (best_prio is None or self._heap[0][:2] < best_prio):
            depth, seq, url = heapq.heappop(self._heap)
            host = self._host_of(url)
            slot = self._slot_for(host)
            if slot.eligible(now):
                return self._take(FrontierRequest(depth, seq, url), host, now, None)
            heapq.heappush(
                self._parked.setdefault(host, []), (depth, seq, url, now)
            )
        if best_host is not None:
            depth, seq, url, parked_at = heapq.heappop(self._parked[best_host])
            return self._take(
                FrontierRequest(depth, seq, url), best_host, now, parked_at
            )
        return None

    def _take(
        self,
        request: FrontierRequest,
        host: str,
        now: float,
        parked_at: Optional[float],
    ) -> FrontierRequest:
        registry = get_registry()
        slot = self._slot_for(host)
        slot.take(now)
        self._queued -= 1
        self._admitted += 1
        self._in_flight += 1
        self._outstanding += 1
        if parked_at is not None:
            waited_ms = (now - parked_at) * 1000.0
            if waited_ms > 0:
                slot.wait_ms += waited_ms
                registry.observe("robot.frontier.host_wait_ms", waited_ms)
        registry.inc("robot.frontier.admitted")
        registry.set_gauge("robot.frontier.queue_depth", self._queued)
        registry.set_gauge(f"robot.frontier.slots_busy.{host}", slot.in_flight)
        registry.set_gauge(
            "robot.frontier.slots_busy",
            sum(s.in_flight for s in self._slots.values()),
        )
        return request

    def _politeness_wait(self) -> Optional[float]:
        """How long a worker may sleep: until the earliest slot opens."""
        if not any(self._parked.values()) and not self._heap:
            return None  # woken by push/offer/mark_done/close
        now = self.clock()
        soonest: Optional[float] = None
        for host, parked in self._parked.items():
            slot = self._slots[host]
            if not parked or slot.in_flight >= slot.max_in_flight:
                continue  # woken by the release that frees the slot
            wait = slot.next_ok - now
            if soonest is None or wait < soonest:
                soonest = wait
        if soonest is None:
            return None
        return max(soonest, 0.001)


# -- the resumable journal --------------------------------------------------


@dataclass
class ResumeState:
    """What a loaded journal knows: enough to continue, nothing more."""

    #: (depth, seq, url) enqueued but never completed, priority order.
    pending: list[tuple[int, int, str]] = field(default_factory=list)
    #: Dupefilter fingerprints of every request ever enqueued.
    seen: set[str] = field(default_factory=set)
    next_seq: int = 0
    #: Completion records (``ok``/``dup``/``err``/``fail``) in crawl order.
    outcomes: list[dict] = field(default_factory=list)


class FrontierJournal:
    """Disk-backed frontier state: ``journal.jsonl`` in ``directory``.

    One append-only :class:`repro.store.JsonLog`: a header naming the
    start URL, then one ``enq`` line per admitted-into-queue URL and one
    completion line (``ok``/``dup``/``err``/``fail``) per settled fetch.
    A kill at any byte loses at most the torn last line, which the next
    open cuts off; any other corrupt line makes :meth:`resume` return
    ``None`` so the crawl restarts clean instead of crashing.
    :meth:`resume` keeps appending to the journal it replayed.

    Every ``checkpoint_every`` completions and at crawl end,
    :meth:`checkpoint` fsyncs the journal and runs ``on_checkpoint``,
    which lets the caller persist companion state (poacher saves the
    HTTP index) at the same instants.

    ``ok`` records carry the body's sha256, not the body: on resume the
    bytes come back from :class:`repro.www.httpcache.HttpCache`'s
    content-addressed body store, which persists bodies synchronously at
    store time -- so even a crawl killed before any index save resumes
    without refetching completed pages.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        checkpoint_every: int = 256,
        on_checkpoint: Optional[Callable[[], None]] = None,
    ) -> None:
        self.directory = Path(directory)
        self.checkpoint_every = max(1, checkpoint_every)
        self.on_checkpoint = on_checkpoint
        self._log: Optional[JsonLog] = None
        self._since_checkpoint = 0

    @property
    def journal_path(self) -> Path:
        return self.directory / "journal.jsonl"

    # -- lifecycle ----------------------------------------------------------

    def _open(self, fresh: bool) -> None:
        self.close()
        self._since_checkpoint = 0
        try:
            self._log = JsonLog(self.journal_path, fresh=fresh)
        except OSError:
            get_registry().inc("robot.frontier.journal_write_errors")

    def start(self, start_url: str) -> None:
        """Begin a fresh crawl: wipe any previous frontier state."""
        self._open(fresh=True)
        self._append(
            {"t": "frontier", "v": JOURNAL_VERSION, "start": start_url}
        )

    def resume(self, start_url: str) -> Optional[ResumeState]:
        """Load persisted state and reopen the journal for appending.

        Returns ``None`` -- and leaves the caller to :meth:`start`
        fresh -- when there is nothing to resume or the state is
        corrupt or belongs to a different crawl.
        """
        state = self.load(start_url)
        if state is not None:
            self._open(fresh=False)
        return state

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    # -- appends ------------------------------------------------------------

    def enqueued(self, url: str, depth: int, seq: int) -> None:
        self._append({"t": "enq", "url": url, "d": depth, "s": seq})

    def completed(self, record: dict) -> None:
        """One settled fetch: ``{"t": "ok"|"dup"|"err"|"fail", "url": ...}``."""
        self._append(record)
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.checkpoint_every:
            self.checkpoint()

    def _append(self, record: dict) -> None:
        if self._log is None:
            return
        try:
            self._log.append(record)
        except OSError:
            get_registry().inc("robot.frontier.journal_write_errors")

    def checkpoint(self) -> None:
        """Fsync the journal, then run ``on_checkpoint``."""
        if self._log is None:
            return
        try:
            self._log.sync()
        except OSError:
            get_registry().inc("robot.frontier.journal_write_errors")
            return
        get_registry().inc("robot.frontier.checkpoints")
        self._since_checkpoint = 0
        if self.on_checkpoint is not None:
            self.on_checkpoint()

    # -- loading ------------------------------------------------------------

    def load(self, start_url: str) -> Optional[ResumeState]:
        """Replay the journal into a :class:`ResumeState`.

        Pure read; does not open the journal for writing.  ``None``
        means "nothing usable": no state, corrupt state (counted in
        ``robot.frontier.journal_corrupt``), another layout version or
        a different start URL.
        """
        registry = get_registry()
        records, corrupt = read_log(self.journal_path)
        if corrupt:
            registry.inc("robot.frontier.journal_corrupt")
            return None
        if not records or records[0] != {
            "t": "frontier", "v": JOURNAL_VERSION, "start": start_url
        }:
            return None
        state = ResumeState()
        enqueued: dict[str, tuple[int, int]] = {}
        try:
            for record in records[1:]:
                kind = record["t"]
                if kind == "enq":
                    url = str(record["url"])
                    enqueued[url] = (int(record["d"]), int(record["s"]))
                    state.seen.add(request_fingerprint(url))
                    state.next_seq = max(state.next_seq, int(record["s"]) + 1)
                elif kind in ("ok", "dup", "err", "fail"):
                    enqueued.pop(str(record["url"]), None)
                    state.outcomes.append(record)
                else:
                    raise KeyError(kind)
        except (KeyError, TypeError, ValueError):
            registry.inc("robot.frontier.journal_corrupt")
            return None
        state.pending = sorted(
            (depth, seq, url) for url, (depth, seq) in enqueued.items()
        )
        if not state.outcomes and not state.pending:
            return None
        return state
