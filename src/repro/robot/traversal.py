"""Generic web traversal -- the ``WWW::Robot`` analogue.

A crawler over a :class:`~repro.www.client.UserAgent`: maintains a
frontier and a visited set, restricts itself to the starting host by
default, honours robots.txt, and hands every fetched page to a
callback.  Both poacher and ad-hoc scripts build on this engine, just
as the paper's poacher builds on the Perl robot module.

The frontier is the continuously-fed scheduler of
:mod:`repro.robot.frontier`: a priority queue ordered by (depth,
discovery order) behind a request-fingerprint dupefilter, with per-host
downloader slots enforcing politeness (max in-flight per host plus a
minimum delay between fetch starts).  With
``TraversalPolicy.concurrency > 1`` worker threads pull the next
eligible request the moment they finish the previous one -- there are
no wave barriers, so a slow host never idles the other hosts' workers.
Link extraction and page callbacks always stay on the calling thread.

Results are consumed in completion order, so the canonical outputs --
the visited list returned by :meth:`Robot.crawl` and the poacher
report -- are sorted by URL: a crawl's result is byte-identical at any
worker count.

``max_pages`` is an *admission* budget: the scheduler stops admitting
fetches at the cap and never discards one it has issued, so the number
of fetched pages is exact at any concurrency.

With a :class:`~repro.robot.frontier.FrontierJournal` the frontier is
resumable: every enqueue and completion is journaled to disk, and
``crawl(..., resume=True)`` replays a killed crawl's journal -- pages
already completed are restored from the HTTP cache's body store (and
re-linted via the lint cache) instead of refetched.

Fetch outcomes are classified, not collapsed: a URL that never produced
an HTTP response (connection error, timeout, truncated transfer on every
attempt) counts in ``CrawlStats.pages_failed`` / ``failed_urls``; a URL
whose final response was a non-2xx HTTP status counts in
``pages_http_error`` / ``http_error_urls``.  The robot fetches each URL
once; retries belong to the agent's
:class:`~repro.www.client.RetryPolicy` (backoff, Retry-After, transient
statuses only), the one retry layer.
"""

from __future__ import annotations

import heapq
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import IO, Callable, Optional

from repro.obs.events import get_event_log
from repro.obs.export import Ticker
from repro.obs.metrics import get_registry
from repro.obs.timeseries import TimeSeries
from repro.obs.trace import get_tracer
from repro.robot.frontier import (
    FrontierJournal,
    FrontierScheduler,
    ResumeState,
    shard_owns,
)
from repro.site.links import extract_links
from repro.www.client import FetchError, UserAgent
from repro.www.httpcache import body_digest
from repro.www.message import Headers, Response
from repro.www.robotstxt import RobotsTxt
from repro.www.url import URL, urljoin, urlparse

PageCallback = Callable[[str, Response, list], None]


@dataclass
class TraversalPolicy:
    """Knobs controlling a crawl."""

    max_pages: int = 1000
    same_host_only: bool = True
    obey_robots_txt: bool = True
    follow_resources: bool = False  # also fetch img/script/... targets
    agent_name: str = "poacher-repro/2.0"
    #: Frontier worker threads; 1 drives the same scheduler inline.
    concurrency: int = 1
    #: Politeness: minimum seconds between fetch starts to the same host.
    per_host_delay_s: float = 0.0
    #: At most this many requests in flight against one host.
    max_in_flight_per_host: int = 4
    #: Sharded-audit partition: with ``shards > 1`` this crawl invokes
    #: ``on_page`` only for pages whose final URL's fingerprint falls in
    #: shard ``shard`` (``request_fingerprint % shards == shard``).
    #: Every shard still *fetches* and follows links on all pages --
    #: discovery needs the whole graph -- but the shared HTTP cache
    #: under ``--state-dir`` makes the overlap conditional-cheap.
    shards: int = 1
    shard: int = 0


#: How many of the slowest fetches :class:`CrawlStats` keeps per crawl.
SLOWEST_FETCHES_KEPT = 10


@dataclass
class CrawlStats:
    pages_fetched: int = 0
    #: URLs that produced no HTTP response on any attempt (transport).
    pages_failed: int = 0
    #: URLs whose final response was a persistent non-2xx HTTP status.
    pages_http_error: int = 0
    urls_skipped_robots: int = 0
    urls_skipped_offsite: int = 0
    bytes_fetched: int = 0
    #: The slowest fetches seen, as a bounded ``(latency_ms, url)`` heap.
    #: Per-URL latency is otherwise summarized into the
    #: ``robot.fetch.latency_ms`` histogram (and the windowed
    #: time-series when one is armed), so crawl memory stays flat at
    #: site scale instead of growing one dict entry per URL.
    slowest_fetches: list[tuple[float, str]] = field(default_factory=list)
    #: transport-failed URL -> last error text.
    failed_urls: dict[str, str] = field(default_factory=dict)
    #: HTTP-failed URL -> final status code.
    http_error_urls: dict[str, int] = field(default_factory=dict)
    #: host -> {fetches, max_in_flight, wait_ms} from the scheduler's
    #: downloader slots, filled in when a streaming crawl ends.
    host_slots: dict[str, dict[str, float]] = field(default_factory=dict)

    def note_latency(self, url: str, latency_ms: float) -> None:
        """Fold one fetch's latency into the bounded slowest-N heap."""
        if len(self.slowest_fetches) < SLOWEST_FETCHES_KEPT:
            heapq.heappush(self.slowest_fetches, (latency_ms, url))
        elif latency_ms > self.slowest_fetches[0][0]:
            heapq.heappushpop(self.slowest_fetches, (latency_ms, url))

    def slowest(self) -> list[tuple[str, float]]:
        """The kept slowest fetches as ``(url, latency_ms)``, slowest first."""
        return [
            (url, latency_ms)
            for latency_ms, url in sorted(self.slowest_fetches, reverse=True)
        ]


class CrawlProgress:
    """The ``--progress`` view: one live line summarizing the crawl.

    A background :class:`~repro.obs.export.Ticker` samples the metrics
    registry into a windowed :class:`~repro.obs.timeseries.TimeSeries`
    every ``interval_s`` and rewrites one carriage-returned status line:
    pages done / in flight / failed, the rolling pages-per-second rate,
    the cache-hit ratio, the busiest downloader slot and an ETA over
    what is still queued.

    Rendering is a pure function of (robot state, registry, series,
    clock), so with an injected clock the line is byte-deterministic --
    the golden tests in ``tests/test_telemetry.py`` hold that.
    """

    def __init__(
        self,
        robot: "Robot",
        stream: IO[str],
        clock: Callable[[], float] = time.monotonic,
        interval_s: float = 1.0,
        window_s: int = 10,
        series: Optional[TimeSeries] = None,
    ) -> None:
        self.robot = robot
        self.stream = stream
        self.clock = clock
        self.interval_s = interval_s
        self.window_s = window_s
        self.series = (
            series
            if series is not None
            else TimeSeries(clock=clock, window_s=max(window_s, 2))
        )
        self._ticker: Optional[Ticker] = None
        self._last_width = 0

    def render_line(self, t: Optional[float] = None) -> str:
        now = self.clock() if t is None else t
        stats = self.robot.stats
        registry = get_registry()
        done = stats.pages_fetched
        failed = stats.pages_failed + stats.pages_http_error
        in_flight = self.robot.in_flight
        queued = self.robot.frontier_size
        rate = self.series.rate(
            "robot.pages.fetched", window_s=self.window_s, t=now
        )
        hits = (
            registry.value("www.cache.hits")
            + registry.value("www.conditional.revalidated")
            + registry.value("cache.lint.hits")
        )
        misses = registry.value("www.cache.misses") + registry.value(
            "cache.lint.misses"
        )
        ratio = hits / (hits + misses) if hits + misses else 0.0
        busiest = self.robot.busiest_slot()
        slots = (
            f"slots {busiest[0]}:{busiest[1]}/{busiest[2]} | "
            if busiest is not None
            else ""
        )
        remaining = queued + in_flight
        if not remaining:
            eta = "0s"
        elif rate > 0:
            eta = f"{remaining / rate:.0f}s"
        else:
            eta = "?"
        return (
            f"crawl: {done} done, {in_flight} in flight, {failed} failed | "
            f"{rate:.1f} pages/s | cache hits {ratio * 100:.0f}% | "
            f"{slots}ETA {eta}"
        )

    def tick(self) -> None:
        now = self.clock()
        self.series.sample_registry(get_registry(), t=now)
        line = self.render_line(t=now)
        padding = " " * max(0, self._last_width - len(line))
        self._last_width = len(line)
        try:
            self.stream.write("\r" + line + padding)
            self.stream.flush()
        except OSError:  # pragma: no cover - closed stream
            pass

    def start(self) -> "CrawlProgress":
        self._ticker = Ticker(self.interval_s, self.tick).start()
        return self

    def stop(self) -> None:
        if self._ticker is not None:
            self._ticker.stop()  # fires one final tick
            self._ticker = None
            try:
                self.stream.write("\n")
                self.stream.flush()
            except OSError:  # pragma: no cover - closed stream
                pass


class Robot:
    """Traversal engine over the streaming frontier scheduler."""

    def __init__(
        self,
        agent: UserAgent,
        policy: Optional[TraversalPolicy] = None,
        journal: Optional[FrontierJournal] = None,
    ) -> None:
        self.agent = agent
        self.policy = policy if policy is not None else TraversalPolicy()
        self.journal = journal
        self.stats = CrawlStats()
        self._robots_cache: dict[str, RobotsTxt] = {}
        self._stats_lock = threading.Lock()
        self._in_flight = 0
        self._scheduler: Optional[FrontierScheduler] = None

    @property
    def in_flight(self) -> int:
        """Fetches currently executing (0 outside a crawl)."""
        return self._in_flight

    @property
    def frontier_size(self) -> int:
        """URLs queued and not yet admitted (0 outside a crawl)."""
        scheduler = self._scheduler
        return scheduler.queued if scheduler is not None else 0

    def busiest_slot(self) -> Optional[tuple[str, int, int]]:
        """``(host, busy, capacity)`` of the busiest downloader slot."""
        scheduler = self._scheduler
        return scheduler.busiest_slot() if scheduler is not None else None

    # -- robots.txt politeness ---------------------------------------------------

    def _robots_for(self, url: URL) -> RobotsTxt:
        host_key = f"{url.host}:{url.effective_port()}"
        if host_key not in self._robots_cache:
            robots_url = str(
                URL(scheme=url.scheme or "http", host=url.host, port=url.port,
                    path="/robots.txt")
            )
            try:
                response = self.agent.get(robots_url)
            except FetchError:
                response = None
            if response is not None and response.ok:
                self._robots_cache[host_key] = RobotsTxt(response.body)
            else:
                self._robots_cache[host_key] = RobotsTxt("")
        return self._robots_cache[host_key]

    def allowed(self, url: str) -> bool:
        if not self.policy.obey_robots_txt:
            return True
        parsed = urlparse(url)
        return self._robots_for(parsed).allowed(
            parsed.path or "/", self.policy.agent_name
        )

    # -- the crawl ----------------------------------------------------------------------

    def crawl(
        self,
        start_url: str,
        on_page: Optional[PageCallback] = None,
        progress: Optional[CrawlProgress] = None,
        resume: bool = False,
    ) -> list[str]:
        """Crawl from ``start_url``; returns the visited URLs sorted.

        ``on_page(url, response, links)`` is called for every
        successfully fetched HTML page, in completion order.  The
        returned list is the canonical (URL-sorted) set of visited
        pages -- byte-identical at any ``concurrency``.  ``progress``
        (a :class:`CrawlProgress`) runs its live ticker for the
        duration of the crawl; it never affects the crawl's result.

        With a journal, ``resume=True`` replays a previous crawl's
        persisted frontier first: completed pages are restored from the
        HTTP cache's body store (``on_page`` still runs for them) and
        only the unfinished remainder is fetched.
        """
        start = urljoin(start_url, "")
        start_str = str(start.without_fragment())
        registry = get_registry()
        processed: set[str] = set()  # final URLs handed to on_page
        visited: list[str] = []

        scheduler = FrontierScheduler(
            max_pages=self.policy.max_pages,
            per_host_delay_s=self.policy.per_host_delay_s,
            max_in_flight_per_host=self.policy.max_in_flight_per_host,
        )
        self._scheduler = scheduler
        restored: Optional[ResumeState] = None
        if self.journal is not None:
            if resume:
                restored = self.journal.resume(start_str)
            if restored is None:
                self.journal.start(start_str)

        if progress is not None:
            progress.start()
        try:
            with get_tracer().span(
                "robot.crawl", start=start_url, workers=self.policy.concurrency
            ) as crawl_span:
                registry.gauge_max(
                    "robot.frontier.workers", self.policy.concurrency
                )
                if restored is not None:
                    self._restore(
                        restored, scheduler, start, processed, visited, on_page
                    )
                if scheduler.mark_seen(start_str) and self._admit(
                    start_str, start
                ):
                    seq = scheduler.push(start_str, 0)
                    if self.journal is not None:
                        self.journal.enqueued(start_str, 0, seq)
                if self.policy.concurrency > 1:
                    self._drive_threaded(
                        scheduler, start, processed, visited, on_page
                    )
                else:
                    self._drive_inline(
                        scheduler, start, processed, visited, on_page
                    )
                crawl_span.annotate(
                    pages=self.stats.pages_fetched,
                    http_errors=self.stats.pages_http_error,
                    transport_failures=self.stats.pages_failed,
                )
        finally:
            scheduler.close()
            self.stats.host_slots = scheduler.host_stats()
            if self.journal is not None:
                self.journal.checkpoint()
                self.journal.close()
            if progress is not None:
                progress.stop()
            self._scheduler = None
        visited.sort()
        return visited

    # -- drivers ------------------------------------------------------------

    def _drive_inline(
        self, scheduler, start, processed, visited, on_page
    ) -> None:
        """One thread does everything: pop, fetch, consume, repeat."""
        while True:
            request = scheduler.next_request()
            if request is None:
                break
            response = self._fetch(request.url)
            scheduler.offer(request, response)
            item = scheduler.next_result()
            if item is None:  # pragma: no cover - offer guarantees one
                break
            request, response = item
            try:
                self._consume(
                    request.url, request.depth, response, scheduler,
                    start, processed, visited, on_page,
                )
            finally:
                scheduler.mark_done(request)

    def _drive_threaded(
        self, scheduler, start, processed, visited, on_page
    ) -> None:
        """Workers fetch continuously; this thread consumes results.

        Consumption (link extraction, callbacks, enqueueing) stays on
        the calling thread, so ``on_page`` is never entered
        concurrently.
        """

        def worker() -> None:
            while True:
                request = scheduler.next_request()
                if request is None:
                    return
                response = None
                try:
                    response = self._fetch(request.url)
                finally:
                    scheduler.offer(request, response)

        with ThreadPoolExecutor(
            max_workers=self.policy.concurrency,
            thread_name_prefix="frontier",
        ) as pool:
            futures = [
                pool.submit(worker) for _ in range(self.policy.concurrency)
            ]
            try:
                while True:
                    item = scheduler.next_result()
                    if item is None:
                        break
                    request, response = item
                    try:
                        self._consume(
                            request.url, request.depth, response, scheduler,
                            start, processed, visited, on_page,
                        )
                    finally:
                        scheduler.mark_done(request)
            finally:
                scheduler.close()  # wake any parked workers so join ends
        for future in futures:
            future.result()  # surface unexpected worker crashes

    # -- resume -------------------------------------------------------------

    def _restore(
        self, state, scheduler, start, processed, visited, on_page
    ) -> None:
        """Replay a journal: restore completed pages, requeue the rest.

        Completed page bodies come from the HTTP cache's
        content-addressed store; a page whose body was evicted is
        requeued for a real fetch (counted in
        ``robot.frontier.resume_refetched``).
        """
        registry = get_registry()
        cache = getattr(self.agent, "http_cache", None)
        # Seed the dupefilter first so replayed links are not re-queued
        # on top of the restored pending entries.
        scheduler.restore(state.seen, state.next_seq)
        refetch: list[tuple[int, str]] = []
        restored = 0
        for record in state.outcomes:
            kind = record.get("t")
            url = str(record.get("url", ""))
            if kind == "ok":
                body = None
                digest = record.get("sha")
                if cache is not None and digest:
                    body = cache.body_by_digest(digest)
                if body is None:
                    refetch.append((int(record.get("d", 0)), url))
                    registry.inc("robot.frontier.resume_refetched")
                    continue
                response = Response(
                    status=200,
                    url=str(record.get("final", url)),
                    body=body,
                    headers=Headers(
                        {"Content-Type": str(record.get("ct", "text/html"))}
                    ),
                )
                self._consume(
                    url, int(record.get("d", 0)), response, scheduler,
                    start, processed, visited, on_page, live=False,
                )
                registry.inc("robot.frontier.resumed_pages")
                restored += 1
            elif kind == "err":
                self.stats.pages_http_error += 1
                self.stats.http_error_urls[url] = int(record.get("status", 0))
                registry.inc("robot.fetch.http_errors")
                restored += 1
            elif kind == "fail":
                self.stats.pages_failed += 1
                self.stats.failed_urls[url] = str(record.get("error", ""))
                registry.inc("robot.fetch.failures")
                restored += 1
            elif kind == "dup":
                restored += 1
        scheduler.set_budget_used(restored)
        for depth, seq, url in state.pending:
            scheduler.push(url, depth, seq=seq)
        for depth, url in refetch:
            seq = scheduler.push(url, depth)
            if self.journal is not None:
                self.journal.enqueued(url, depth, seq)

    # -- shared crawl steps ------------------------------------------------------

    def _admit(self, url: str, start: URL) -> bool:
        """Offsite and robots.txt filtering (consumer thread only)."""
        parsed = urlparse(url)
        if self.policy.same_host_only and not parsed.same_host(start):
            self.stats.urls_skipped_offsite += 1
            return False
        if not self.allowed(url):
            self.stats.urls_skipped_robots += 1
            return False
        return True

    def _offer(self, url: str, depth: int, frontier, start: URL) -> None:
        """Run one discovered link through dupefilter + admission."""
        if not frontier.mark_seen(url):
            return
        if not self._admit(url, start):
            return
        seq = frontier.push(url, depth)
        if self.journal is not None:
            self.journal.enqueued(url, depth, seq)

    def _owns(self, url: str) -> bool:
        """Is this crawl's shard responsible for processing ``url``?"""
        return shard_owns(url, self.policy.shards, self.policy.shard)

    def _consume(
        self, url, depth, response, frontier, start, processed, visited,
        on_page, live=True,
    ) -> None:
        """Fold one fetch outcome into the crawl (consumer thread only).

        ``live=False`` is the journal-replay path: stats, metrics,
        the visited list and ``on_page`` are all restored, but nothing
        is re-journaled and no time-series samples or events are
        emitted for work this run did not do.
        """
        registry = get_registry()
        if response is None:
            self.stats.pages_failed += 1
            registry.inc("robot.fetch.failures")
            get_event_log().emit(
                "robot.fetch_failed", level="warn", url=url,
                error=self.stats.failed_urls.get(url, ""),
            )
            if live and self.journal is not None:
                self.journal.completed({
                    "t": "fail", "url": url,
                    "error": self.stats.failed_urls.get(url, ""),
                })
            return
        if not response.ok:
            self.stats.pages_http_error += 1
            self.stats.http_error_urls[url] = response.status
            registry.inc("robot.fetch.http_errors")
            get_event_log().emit(
                "robot.http_error", level="warn", url=url,
                status=response.status,
            )
            if live and self.journal is not None:
                self.journal.completed(
                    {"t": "err", "url": url, "status": response.status}
                )
            return

        if response.url in processed:
            # A redirect landed on a page already handled (or a page
            # both linked directly and reached via redirect earlier).
            if live and self.journal is not None:
                self.journal.completed({"t": "dup", "url": url})
            return
        processed.add(response.url)
        # The final URL after redirects must never be queued again.
        frontier.mark_seen(response.url)
        self.stats.pages_fetched += 1
        self.stats.bytes_fetched += len(response.body)
        registry.inc("robot.pages.fetched")
        registry.inc("robot.fetch.bytes", len(response.body))
        visited.append(response.url)
        if not response.is_html:
            if live and self.journal is not None:
                self.journal.completed(self._ok_record(url, depth, response))
            return

        links = extract_links(response.body)
        if on_page is not None:
            # Sharded audits: only the owning shard processes the page;
            # link extraction still runs so every shard discovers the
            # whole frontier (the partition is of the *work*, not the
            # graph).  Ownership keys on the final URL, the page's one
            # identity: whichever of its aliases (a redirect, ``dir``
            # for ``dir/``) a concurrent crawl completes first, exactly
            # one shard processes the page.
            if self._owns(response.url):
                on_page(response.url, response, links)
            else:
                registry.inc("robot.frontier.shard_skipped")

        for link in links:
            if not link.checkable:
                continue
            if link.kind == "resource" and not self.policy.follow_resources:
                continue
            absolute = str(
                urljoin(response.url, link.url).without_fragment()
            )
            self._offer(absolute, depth + 1, frontier, start)
        if live and self.journal is not None:
            self.journal.completed(self._ok_record(url, depth, response))

    @staticmethod
    def _ok_record(url: str, depth: int, response: Response) -> dict:
        return {
            "t": "ok",
            "url": url,
            "final": response.url,
            "d": depth,
            "sha": body_digest(response.body),
            "ct": response.headers.get("Content-Type", "text/html"),
            "n": len(response.body),
            "html": response.is_html,
        }

    def _fetch(self, url: str):
        """Fetch one URL through the agent (and its retry policy).

        Returns the response -- OK or not, so a persistent 404/500 is
        reported as an HTTP error -- or ``None`` when the agent produced
        no response.  The fetch's wall time lands in the
        ``robot.fetch.latency_ms`` histogram, the windowed time-series
        (when armed), the slow-op event log, and the crawl's bounded
        slowest-N list.  Safe to call from frontier worker threads.
        """
        registry = get_registry()
        start = time.perf_counter()
        response = None
        error: Optional[FetchError] = None
        with self._stats_lock:
            self._in_flight += 1
        registry.inc("robot.fetch.requests")
        try:
            response = self.agent.get(url)
        except FetchError as exc:
            error = exc
        finally:
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            with self._stats_lock:
                self._in_flight -= 1
                self.stats.note_latency(url, elapsed_ms)
                if error is not None:
                    self.stats.failed_urls[url] = str(error)
            registry.observe("robot.fetch.latency_ms", elapsed_ms)
            events = get_event_log()
            if events.enabled:
                events.note_operation("robot.fetch", elapsed_ms, url=url)
        return response
