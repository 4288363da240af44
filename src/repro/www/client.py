"""UserAgent -- the client half of the LWP substitution.

Performs GET/HEAD requests against a :class:`~repro.www.virtualweb.VirtualWeb`
(or anything else with a ``handle(Request) -> Response`` method), following
redirects with loop detection -- the facilities weblint's ``check_url``,
the gateway and the poacher robot rely on.

On top of the basic fetch path sits the resilience layer the crawling
front-ends need against an unreliable web:

- :class:`RetryPolicy`: bounded exponential backoff with deterministic
  jitter for *retryable* outcomes only -- transport errors (connection
  failures, timeouts, truncated bodies) and retryable statuses (5xx,
  429).  Deterministic 4xx responses are never retried.  A ``Retry-After``
  header on a 429/503 is honoured.  When the budget is exhausted on a
  persistent HTTP error the last response is returned (so callers report
  an HTTP failure, not a transport one); a persistent transport error
  raises :class:`FetchError`.
- :class:`CircuitBreaker`: per-host closed/open/half-open breaker.  After
  ``failure_threshold`` consecutive failures the host is short-circuited
  (:class:`HostUnavailableError`, no request issued) until
  ``reset_after_s`` has passed, when a single half-open probe decides
  whether to close the circuit again.
- Per-request timeout (``timeout_s``), enforced by the virtual web's
  latency simulation.

On top of both sits the incremental-recrawl layer: pass an
``http_cache`` (:class:`repro.www.httpcache.HttpCache`) and every GET
becomes *conditional* -- the stored ``ETag`` / ``Last-Modified``
validators are replayed as ``If-None-Match`` / ``If-Modified-Since``,
a ``304 Not Modified`` is turned back into the stored response without
transferring the body (``www.conditional.revalidated``), a changed page
comes back as a normal 200 and refreshes the store
(``www.conditional.modified``), and a 304 whose stored body has been
evicted falls back to one full unconditional GET
(``www.conditional.lost_body``).  The stored response
(:class:`RevalidatedResponse`) takes its digest and length from the
index and reads its body from the store only when something asks for
it (``www.conditional.body_reads``).  See docs/caching.md.

All knobs are off by default: a bare ``UserAgent(web)`` behaves exactly
like the paper's simple LWP user agent.
"""

from __future__ import annotations

import copy
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

from repro.obs.metrics import get_registry
from repro.www.faults import TransportError
from repro.www.message import Headers, Request, Response
from repro.www.url import resolve, urlparse


class FetchError(Exception):
    """A URL could not be fetched at the transport level."""


class NoNetworkError(FetchError):
    """Raised when no web was supplied and a live fetch was attempted.

    Mirrors the paper's optional-LWP behaviour: "If you don't have LWP
    installed, you can still use weblint, but the check_url method won't
    be available."
    """


class HostUnavailableError(FetchError):
    """The per-host circuit breaker is open; no request was issued."""


#: Statuses worth retrying: transient server errors and throttling.
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})


@dataclass(frozen=True)
class RetryPolicy:
    """How the agent retries one request.

    Backoff for attempt *n* (0-based) is ``backoff_base_s * 2**n``,
    capped at ``backoff_max_s``, stretched by up to ``jitter`` of itself.
    The jitter is deterministic -- derived from a stable hash of
    ``(url, attempt)`` -- so a crawl's timing is reproducible and
    independent of thread scheduling.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    jitter: float = 0.25
    retry_statuses: frozenset[int] = RETRYABLE_STATUSES
    honor_retry_after: bool = True

    def retryable_status(self, status: int) -> bool:
        return status in self.retry_statuses

    def backoff_s(
        self, url: str, attempt: int, retry_after: Optional[float] = None
    ) -> float:
        delay = min(self.backoff_base_s * (2 ** attempt), self.backoff_max_s)
        fraction = zlib.crc32(f"{url}#{attempt}".encode("utf-8")) / 0xFFFFFFFF
        delay *= 1.0 + self.jitter * fraction
        if retry_after is not None and self.honor_retry_after:
            delay = max(delay, retry_after)
        return delay


#: The do-nothing policy a bare UserAgent runs with.
NO_RETRY = RetryPolicy(max_retries=0)


class CircuitBreaker:
    """Per-host circuit breaker (closed -> open -> half-open -> ...).

    ``failure_threshold`` consecutive failures open the circuit for
    ``reset_after_s`` seconds; while open, :meth:`allow` is False and the
    agent fails fast without touching the host.  After the window one
    probe request is let through: success closes the circuit, failure
    re-opens it for another full window.  Thread-safe -- the concurrent
    crawl frontier shares one breaker across its workers.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_after_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.failure_threshold = max(1, failure_threshold)
        self.reset_after_s = reset_after_s
        self._clock = clock
        self._lock = threading.Lock()
        self._failures: dict[str, int] = {}
        self._state: dict[str, str] = {}
        self._opened_at: dict[str, float] = {}

    def state(self, host: str) -> str:
        with self._lock:
            return self._state.get(host, self.CLOSED)

    def allow(self, host: str) -> bool:
        """May a request to ``host`` be issued right now?"""
        with self._lock:
            state = self._state.get(host, self.CLOSED)
            if state == self.CLOSED:
                return True
            if state == self.OPEN:
                if self._clock() - self._opened_at[host] >= self.reset_after_s:
                    self._state[host] = self.HALF_OPEN
                    get_registry().inc("www.breaker.probes")
                    return True
                return False
            # Half-open: one probe is already in flight; hold the rest.
            return False

    def record_success(self, host: str) -> None:
        with self._lock:
            self._failures[host] = 0
            if self._state.get(host, self.CLOSED) != self.CLOSED:
                self._state[host] = self.CLOSED
                get_registry().inc("www.breaker.closed")

    def record_failure(self, host: str) -> None:
        with self._lock:
            state = self._state.get(host, self.CLOSED)
            failures = self._failures.get(host, 0) + 1
            self._failures[host] = failures
            if state == self.HALF_OPEN or failures >= self.failure_threshold:
                if state != self.OPEN:
                    get_registry().inc("www.breaker.opened")
                self._state[host] = self.OPEN
                self._opened_at[host] = self._clock()

    def open_hosts(self) -> list[str]:
        with self._lock:
            return sorted(
                host for host, state in self._state.items()
                if state == self.OPEN
            )


@dataclass
class _Outcome:
    """What one wire attempt produced."""

    response: Optional[Response] = None
    error: Optional[TransportError] = None

    @property
    def retry_after(self) -> Optional[float]:
        if self.response is None:
            return None
        value = self.response.headers.get("Retry-After")
        if value is None:
            return None
        try:
            return float(value)
        except ValueError:
            return None


class RevalidatedResponse(Response):
    """A ``304`` turned back into the response the HTTP cache holds.

    Its :attr:`digest` and :attr:`length` come from the cache's index
    entry, and its :attr:`body` is read from the store the first time
    something asks for it (``www.conditional.body_reads``), so a page
    whose lint record is cached is served without its body being read.
    A body that turns out to be gone or damaged then is fetched again
    with one unconditional GET (``www.conditional.lost_body``); if that
    GET fails, or serves other text than the one revalidated (the page
    changed since its ``304``), reading :attr:`body` raises
    :class:`FetchError`, so no text is taken for another's digest.
    """

    def __init__(self, agent: "UserAgent", entry, url: str) -> None:
        # Not Response.__init__: it would set the body read lazily here.
        self.status = entry.status
        self.url = url
        self.headers = Headers({"Content-Type": entry.content_type})
        if entry.etag is not None:
            self.headers.set("ETag", entry.etag)
        if entry.last_modified is not None:
            self.headers.set("Last-Modified", entry.last_modified)
        self.redirects = ()
        self._agent = agent
        self._entry = entry
        self._body: Optional[str] = None

    @property
    def body(self) -> str:
        if self._body is None:
            get_registry().inc("www.conditional.body_reads")
            body = self._agent.http_cache.body_for(self._entry)
            if body is None:
                response = self._agent._refetch(self._entry.url)
                get_registry().inc("www.bytes_fetched", len(response.body))
                if not response.ok:
                    raise FetchError(
                        f"could not fetch {self._entry.url}: "
                        f"{response.status} {response.reason}"
                    )
                if response.digest != self._entry.body_sha256:
                    raise FetchError(
                        f"{self._entry.url} changed since it was revalidated"
                    )
                body = response.body
            self._body = body
        return self._body

    @property
    def length(self) -> int:
        return self._entry.length

    @property
    def digest(self) -> str:
        return self._entry.body_sha256


class UserAgent:
    """A small, polite HTTP client for the virtual web."""

    def __init__(
        self,
        web=None,
        max_redirects: int = 5,
        agent_name: str = "weblint-repro/2.0",
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        timeout_s: Optional[float] = None,
        http_cache=None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.web = web
        self.max_redirects = max_redirects
        self.agent_name = agent_name
        self.retry = retry if retry is not None else NO_RETRY
        self.breaker = breaker
        self.timeout_s = timeout_s
        #: Optional :class:`repro.www.httpcache.HttpCache`; when set,
        #: GETs are conditional and 304s revalidate the stored copy.
        self.http_cache = http_cache
        self._sleep = sleep
        self.requests_made = 0

    # -- public API ------------------------------------------------------------

    def get(self, url: str) -> Response:
        return self.request("GET", url)

    def head(self, url: str) -> Response:
        return self.request("HEAD", url)

    def request(self, method: str, url: str) -> Response:
        """Issue one request, following redirects."""
        if self.web is None:
            raise NoNetworkError(
                "this UserAgent has no web attached; pass a VirtualWeb "
                "(live network access is substituted in this reproduction)"
            )
        registry = get_registry()
        url = resolve(url, "")
        start = time.perf_counter()
        seen: list[str] = []
        current = url
        response = None
        wire_bytes = 0
        for _hop in range(self.max_redirects + 1):
            if current in seen:
                raise FetchError(f"redirect loop: {' -> '.join(seen + [current])}")
            seen.append(current)
            response, wire_bytes = self._issue_hop(method, current)
            if not response.is_redirect or response.location is None:
                break
            current = resolve(current, response.location)
        else:
            raise FetchError(
                f"too many redirects (> {self.max_redirects}) fetching {url}"
            )

        assert response is not None
        if len(seen) > 1 or response.url != current:
            # A copy, not a new Response: a revalidated one keeps its
            # body unread.
            response = copy.copy(response)
            response.url = current
            response.redirects = tuple(seen[:-1])
        registry.inc("www.requests")
        if len(seen) > 1:
            registry.inc("www.redirects", len(seen) - 1)
        # Revalidated 304s transferred no body: only wire bytes count.
        registry.inc("www.bytes_fetched", wire_bytes)
        registry.observe(
            "www.fetch.latency_ms", (time.perf_counter() - start) * 1000.0
        )
        return response

    # -- the conditional single-hop fetch ---------------------------------------

    def _issue_hop(self, method: str, url: str) -> tuple[Response, int]:
        """One redirect hop, conditionally when a validator is stored.

        Returns ``(response, wire_bytes)`` where ``wire_bytes`` is the
        body length actually transferred -- zero for a revalidated 304,
        whose body stays in the :class:`HttpCache` until it is read.
        """
        registry = get_registry()
        entry = None
        if self.http_cache is not None and method == "GET":
            entry = self.http_cache.entry_for(url)
            if entry is not None and not entry.has_validators:
                entry = None
        response = self._issue(method, url, entry)
        if entry is not None:
            registry.inc("www.conditional.requests")
        if response.status == 304 and entry is not None:
            if not self.http_cache.has_body(entry.body_sha256):
                # The index outlived the stored body: the validator
                # matched but there is nothing to serve.
                response = self._refetch(url)
                return response, len(response.body)
            registry.inc("www.conditional.revalidated")
            return RevalidatedResponse(self, entry, url), 0
        if self.http_cache is not None and method == "GET" and response.ok:
            if entry is not None:
                registry.inc("www.conditional.modified")
            self.http_cache.store(url, response)
        return response, len(response.body)

    def _refetch(self, url: str) -> Response:
        """One full unconditional GET for a revalidated URL whose stored
        body is gone; an ok response refreshes the store."""
        get_registry().inc("www.conditional.lost_body")
        response = self._issue("GET", url, None)
        if response.ok:
            self.http_cache.store(url, response)
        return response

    # -- the resilient single-hop fetch ----------------------------------------

    def _issue(self, method: str, url: str, validators=None) -> Response:
        """One redirect hop: attempt + retries + breaker accounting.

        Returns the final response -- which may be a non-OK HTTP error
        once the retry budget is spent -- or raises :class:`FetchError`
        when no attempt produced a response at all.
        """
        registry = get_registry()
        host = urlparse(url).host
        policy = self.retry
        outcome = _Outcome()
        for attempt in range(policy.max_retries + 1):
            if self.breaker is not None and not self.breaker.allow(host):
                registry.inc("www.breaker.short_circuits")
                raise HostUnavailableError(
                    f"circuit open for host {host!r}; not fetching {url}"
                )
            if attempt:
                delay = policy.backoff_s(url, attempt - 1, outcome.retry_after)
                registry.inc("www.retry.attempts")
                registry.observe("www.retry.backoff_ms", delay * 1000.0)
                if outcome.retry_after is not None:
                    registry.inc("www.retry.retry_after_honored")
                self._sleep(delay)
            outcome = self._attempt(method, url, validators)
            if outcome.error is None and outcome.response is not None:
                response = outcome.response
                retryable = policy.retryable_status(response.status)
                if self.breaker is not None:
                    if retryable or response.status >= 500:
                        self.breaker.record_failure(host)
                    else:
                        self.breaker.record_success(host)
                if not retryable:
                    return response
            else:
                registry.inc("www.fetch.transport_errors")
                if self.breaker is not None:
                    self.breaker.record_failure(host)
        registry.inc("www.retry.giveups")
        if outcome.error is None and outcome.response is not None:
            # Budget spent on a persistent retryable status: hand the
            # HTTP error back so callers classify it as such.
            return outcome.response
        raise FetchError(
            f"could not fetch {url}: {outcome.error}"
        ) from outcome.error

    def _attempt(self, method: str, url: str, validators=None) -> _Outcome:
        """One wire attempt; truncated bodies count as transport errors."""
        request = Request(method=method, url=url, timeout_s=self.timeout_s)
        request.headers.set("User-Agent", self.agent_name)
        if validators is not None:
            if validators.etag is not None:
                request.headers.set("If-None-Match", validators.etag)
            if validators.last_modified is not None:
                request.headers.set("If-Modified-Since", validators.last_modified)
        self.requests_made += 1
        try:
            response = self.web.handle(request)
        except TransportError as error:
            return _Outcome(error=error)
        if method == "GET" and not response.is_redirect:
            declared = response.headers.get("Content-Length")
            if declared is not None and declared.isdigit():
                actual = len(response.body.encode("utf-8"))
                if actual < int(declared):
                    get_registry().inc("www.fetch.truncated")
                    return _Outcome(
                        response=response,
                        error=TransportError(
                            f"truncated body fetching {url}: got {actual} "
                            f"of {declared} bytes"
                        ),
                    )
        return _Outcome(response=response)

    # -- conveniences ---------------------------------------------------------------

    def exists(self, url: str) -> bool:
        """HEAD-based existence check, the broken-link robot primitive.

        Paper section 3.5: "At its simplest, this merely consists of
        sending a HEAD request, and reporting all URLs which result in a
        404 response code."
        """
        try:
            return self.head(url).ok
        except FetchError:
            return False
