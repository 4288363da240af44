"""The batch lint service: one contract for every front end.

The paper's weblint 2 is an embeddable class checking one document at a
time; :class:`~repro.core.linter.Weblint` reproduces that shape.  Every
front end, though -- the CLI, the ``-R`` site checker, the gateway, the
poacher robot, the sample-corpus harness -- needs the same three steps
around it: obtain a document (file, string, URL, stdin), check it, and
survive the documents that cannot be read.  This module owns those steps
once:

- :class:`DocumentSource` -- where a document comes from.  Sources read
  lazily and exactly once; the text is cached so a caller can lint *and*
  post-process (page weight) from a single read.  A source may know its
  text's content digest without reading it (a page the HTTP cache
  revalidated), and a cache hit on that digest reads nothing.
- :class:`LintRequest` / :class:`LintResult` -- one unit of batch work.
  A failed read or fetch becomes a structured ``LintResult.error``
  instead of an exception, so one bad document never aborts a batch.
  A request may also ask for the page's links and anchors, which the
  lint pass collects from its own token feed and the result cache
  keeps beside the diagnostics.
- :class:`LintService` -- owns options + spec + registry + compiled
  dispatch tables once, and exposes ``check(request)`` plus
  ``check_many(requests, jobs=N)``.  Give it a
  :class:`repro.core.cache.ResultCache` (``cache=``) and results are
  reused across documents, runs and processes: a document whose bytes
  and service configuration both match a cached entry skips the engine
  entirely (``cache.lint.hits``), which is what makes a warm site
  re-check near-free.  Runs that exist to observe the engine
  (``--trace``, ``--profile``) bypass the cache so their artefacts
  stay truthful.
- :class:`ParallelExecutor` -- the one process pool, behind both the
  ``jobs > 1`` batch path and the daemon's warm pool: cache hits are
  served in the parent, the rest ships in chunks to ``multiprocessing``
  workers, each driven over its own pipe, that build the service (and
  compile dispatch tables) once per worker.  Each worker's metrics /
  tracer / profiler snapshots are merged into the parent's, so
  ``--stats``, ``--trace`` and ``--profile`` stay truthful under
  parallelism.

The pipeline is a generator end to end: ``iter_check`` yields each
:class:`LintResult` the moment its worker finishes (completion order),
with cache hits and source errors short-circuited inline, and
``check_many`` is the buffered view over it (results re-ordered back to
input order).  Streaming consumers -- the JSON-lines reporter, the site
rollup -- never hold a whole batch in memory.
"""

from __future__ import annotations

import collections
import contextlib
import json
import multiprocessing.connection
import os
import sys
import threading
import time
from dataclasses import dataclass
from multiprocessing.reduction import ForkingPickler
from pathlib import Path
from typing import Generator, Iterable, Iterator, Optional, Sequence, Union

from repro.config.options import Options
from repro.core.diagnostics import (
    Diagnostic,
    EncodedDiagnostics,
    count_by_category,
    diagnostic_from_row,
    encode_diagnostics,
)
from repro.core.engine import Engine
from repro.core.registry import RuleRegistry, default_registry
from repro.core.rules.base import Rule
from repro.html.links import Link, scan_page
from repro.html.spec import HTMLSpec, get_spec
from repro.obs.events import get_event_log
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry, use_registry
from repro.obs.profile import RuleProfiler, get_profiler, set_profiler, use_profiler
from repro.obs.trace import Tracer, get_tracer, set_tracer, use_tracer


class SourceError(Exception):
    """A document source could not be read or fetched."""


# -- document sources -------------------------------------------------------


class DocumentSource:
    """One checkable document, read lazily and exactly once.

    ``text()`` performs the read on first call and caches it, so the
    pipeline can share a single read between linting and any follow-up
    analysis (page weight).  Failures raise
    :class:`SourceError`; the service converts that into a structured
    ``LintResult.error``.
    """

    #: Label used as the diagnostics' filename.
    name: str = "-"
    #: The text's :func:`~repro.store.content_digest` when the source
    #: knows it without reading the text; the result cache keys on it.
    digest: Optional[str] = None
    #: Whether instances can be pickled into a worker process unchanged.
    #: Non-portable sources (stdin handles, URL sources bound to a live
    #: agent) are materialised in the parent before fan-out.
    portable = False

    def text(self) -> str:
        cached = getattr(self, "_text", None)
        if cached is None:
            cached = self._read()
            self._text = cached
        return cached

    def _read(self) -> str:
        raise NotImplementedError


class PathSource(DocumentSource):
    """A file on disk; read in whichever process checks it."""

    portable = True

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.name = str(path)

    def _read(self) -> str:
        try:
            return self.path.read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            raise SourceError(f"cannot read {self.path}: {exc}") from exc


class StringSource(DocumentSource):
    """HTML already in memory (pasted, uploaded, fetched by a crawler)."""

    portable = True

    def __init__(self, text: str, name: str = "-") -> None:
        self._text = text
        self.name = name

    def _read(self) -> str:  # pragma: no cover - _text is always set
        return self._text


class StdinSource(DocumentSource):
    """The ``-`` path: standard input, read once in the parent."""

    def __init__(self, stream=None, name: str = "stdin") -> None:
        self.stream = stream
        self.name = name

    def _read(self) -> str:
        stream = self.stream if self.stream is not None else sys.stdin
        try:
            return stream.read()
        except OSError as exc:
            raise SourceError(f"cannot read stdin: {exc}") from exc


class URLSource(DocumentSource):
    """A page fetched through a :class:`repro.www.client.UserAgent`.

    After a successful fetch ``name`` becomes the *final* URL (after
    redirects), matching ``Weblint.check_url``'s historical labelling.
    """

    def __init__(self, url: str, agent=None) -> None:
        self.url = url
        self.agent = agent
        self.name = url

    def _read(self) -> str:
        from repro.www.client import FetchError, UserAgent

        agent = self.agent
        if agent is None:
            agent = UserAgent()
        try:
            response = agent.get(self.url)
        except FetchError as exc:
            raise SourceError(f"cannot fetch {self.url}: {exc}") from exc
        if not response.ok:
            raise SourceError(
                f"cannot fetch {self.url}: {response.status} {response.reason}"
            )
        self.name = response.url
        return response.body


# -- requests and results ---------------------------------------------------


@dataclass
class LintRequest:
    """One document to check.

    ``links`` asks for the page's links and anchors on the result --
    for callers that check links as well as markup (the site checker,
    poacher, the gateway's page-weight table).  The lint pass collects
    them from the tokens it lints, and the result cache stores them, so
    the page is tokenized once at most.
    """

    source: DocumentSource
    links: bool = False


class LintResult:
    """What checking one document produced.

    Exactly one of two shapes: diagnostics (``error is None``), or a
    structured error string for a document that could not be read or
    fetched.  Errors never abort the batch.  ``links`` and ``anchors``
    are set when the request asked for them and the document was read.

    The diagnostics may travel as text: :attr:`encoded` encodes them
    once (:func:`repro.core.diagnostics.encode_diagnostics`) for the
    consumers that write JSON -- the result cache, ``-f jsonl``, the
    daemon's response -- and a pool worker sends only that text
    (:meth:`pack`).  :attr:`diagnostics` then decodes it on first use.
    Change no diagnostic once the result has been encoded.
    """

    def __init__(
        self,
        name: str,
        diagnostics: Optional[list[Diagnostic]] = None,
        error: Optional[str] = None,
        links: Optional[list[Link]] = None,
        anchors: Optional[set[str]] = None,
        encoded: Optional[EncodedDiagnostics] = None,
    ) -> None:
        self.name = name
        self._diagnostics = [] if diagnostics is None else diagnostics
        #: ``encoded``, when given, is what :attr:`encoded` would give.
        self._encoded: Optional[EncodedDiagnostics] = encoded
        self.error = error
        self.links = links
        self.anchors = anchors

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def diagnostics(self) -> list[Diagnostic]:
        if self._diagnostics is None:
            self._diagnostics = [
                diagnostic_from_row(row, self.name)
                for row in json.loads(self._encoded.rows)
            ]
        return self._diagnostics

    @property
    def encoded(self) -> EncodedDiagnostics:
        """The diagnostics as the JSON text their consumers write."""
        if self._encoded is None:
            self._encoded = encode_diagnostics(self._diagnostics)
        return self._encoded

    @property
    def count(self) -> int:
        """How many diagnostics, counted without decoding them."""
        if self._diagnostics is None:
            return self._encoded.count
        return len(self._diagnostics)

    def pack(self) -> None:
        """Keep the diagnostics only as text: what a pool worker sends.

        Diagnostics with an argument that is not JSON stay objects,
        since the text cannot hold them.
        """
        if self.encoded.rows is not None:
            self._diagnostics = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LintResult):
            return NotImplemented
        return (self.name, self.diagnostics, self.error, self.links, self.anchors) == (
            other.name, other.diagnostics, other.error, other.links, other.anchors
        )

    def __repr__(self) -> str:
        return (
            f"LintResult(name={self.name!r}, diagnostics={self.diagnostics!r}, "
            f"error={self.error!r}, links={self.links!r}, anchors={self.anchors!r})"
        )


# -- the service ------------------------------------------------------------


@dataclass(frozen=True)
class ServiceSpecification:
    """A picklable recipe for rebuilding a :class:`LintService`.

    Shipped to every pool worker exactly once (as the initializer
    argument), so workers compile their dispatch tables once and reuse
    them for every chunk.  Rule factories are not picklable, so the
    recipe carries the *state* of the default registry (which rules are
    enabled) rather than the registry itself.
    """

    options: Options
    spec_name: str
    rule_state: tuple[tuple[str, bool], ...]
    cascade_heuristics: bool = True


def _count_diagnostics(
    registry: MetricsRegistry, diagnostics: list[Diagnostic]
) -> None:
    """Add one result's diagnostics to the ``lint.diagnostics.<category>``
    counters, one increment per category."""
    tally = count_by_category(diagnostics, include_zero=False)
    for category, count in tally.items():
        registry.inc(f"lint.diagnostics.{category}", count)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``0``/``None`` means one per CPU."""
    import os

    if not jobs:
        return os.cpu_count() or 1
    return max(1, jobs)


class LintService:
    """Configuration + engine, shared by every document in a batch.

    Owns the options, the HTML spec, the rule set and (through the
    engine) the compiled dispatch tables -- built once, reused for every
    ``check``.  Thread- and reentrancy-safe per document because the
    engine keeps all per-check state on the check context.
    """

    def __init__(
        self,
        options: Optional[Options] = None,
        spec: Optional[Union[str, HTMLSpec]] = None,
        rules: Optional[Sequence[Rule]] = None,
        registry: Optional[RuleRegistry] = None,
        cascade_heuristics: bool = True,
        cache=None,
    ) -> None:
        self.options = options if options is not None else Options.with_defaults()
        if isinstance(spec, str):
            spec = get_spec(spec)
        self.spec = spec if spec is not None else get_spec(self.options.spec_name)
        self.cascade_heuristics = cascade_heuristics
        self._explicit_rules = rules is not None
        if rules is None:
            if registry is None:
                registry = default_registry()
            rules = registry.rules()
        self.registry = registry
        self.rules = list(rules)
        #: Optional :class:`repro.core.cache.ResultCache`.  Only a
        #: registry-described rule set can be cached: a raw ``rules=``
        #: list has no stable identity to key on, so the cache is
        #: silently ignored for it (same contract as worker fan-out).
        self.cache = cache if not self._explicit_rules else None
        self._fingerprint: Optional[bytes] = None
        self.engine = Engine(
            spec=self.spec,
            options=self.options,
            rules=self.rules,
            cascade_heuristics=cascade_heuristics,
        )

    # -- worker portability ------------------------------------------------

    @property
    def portable(self) -> bool:
        """Can workers rebuild this service from a specification?

        Requires the rule set to be registry-described (not a raw rule
        list) and every registered name to exist in the default registry
        -- otherwise ``check_many`` silently degrades to the sequential
        path rather than checking with a different rule set.
        """
        if self._explicit_rules or self.registry is None:
            return False
        known = default_registry()
        return all(name in known for name in self.registry.names())

    def specification(self) -> ServiceSpecification:
        if not self.portable:
            raise ValueError(
                "this service's rule set cannot be rebuilt in a worker; "
                "check_many will run sequentially"
            )
        return ServiceSpecification(
            options=self.options.copy(),
            spec_name=self.spec.name,
            rule_state=tuple(
                (registration.name, registration.enabled)
                for registration in self.registry.registrations()
            ),
            cascade_heuristics=self.cascade_heuristics,
        )

    @classmethod
    def from_specification(cls, spec: ServiceSpecification) -> "LintService":
        registry = default_registry()
        for name, enabled in spec.rule_state:
            if name not in registry:
                continue
            if enabled:
                registry.enable(name)
            else:
                registry.disable(name)
        return cls(
            options=spec.options,
            spec=spec.spec_name,
            registry=registry,
            cascade_heuristics=spec.cascade_heuristics,
        )

    def warm(self) -> None:
        """Compile (and cache) the dispatch tables now, not on first use."""
        self.engine.dispatch_table()

    # -- result caching ----------------------------------------------------

    def cache_fingerprint(self) -> bytes:
        """Digest of every configuration axis that can change lint output.

        Combined with the document's content digest this forms the
        :class:`~repro.core.cache.ResultCache` key; see docs/caching.md
        for the invalidation rules it implies.
        """
        if self._fingerprint is None:
            from repro.core.cache import service_fingerprint

            rule_state: tuple[tuple[str, bool], ...]
            if self.registry is not None:
                rule_state = tuple(
                    (registration.name, registration.enabled)
                    for registration in self.registry.registrations()
                )
            else:  # explicit rules: names only (cache is disabled anyway)
                rule_state = tuple((rule.name, True) for rule in self.rules)
            self._fingerprint = service_fingerprint(
                self.options.fingerprint(),
                self.spec.name,
                rule_state,
                self.cascade_heuristics,
            )
        return self._fingerprint

    def _cache_key(
        self, text: Optional[str], digest: Optional[str] = None
    ) -> Optional[str]:
        """The cache key for ``text`` -- or ``None`` when caching is off.

        ``digest``, the text's content digest when the source knows it,
        stands in for the text.  Observability runs that exist to watch
        the engine work (an enabled tracer or an installed profiler)
        bypass the cache: a span tree or rule profile served from cache
        would be a lie.
        """
        if self.cache is None:
            return None
        if get_profiler() is not None or getattr(get_tracer(), "enabled", False):
            get_registry().inc("cache.lint.bypassed")
            return None
        from repro.core.cache import result_key

        return result_key(text, self.cache_fingerprint(), digest)

    # -- checking ----------------------------------------------------------

    def check(self, request: Union[LintRequest, DocumentSource]) -> LintResult:
        """Check one document in this process; never raises for bad I/O."""
        if isinstance(request, DocumentSource):
            request = LintRequest(request)
        settled, key = self._lookup(request)
        if settled is not None:
            return settled
        return self._store(key, self._lint(request))

    def _lookup(
        self, request: LintRequest
    ) -> tuple[Optional[LintResult], Optional[str]]:
        """Settle ``request`` from the result cache when it can be.

        Returns ``(result, None)`` for a document settled here -- a
        cache hit, or unreadable -- and otherwise ``(None, key)``, where
        ``key`` is what a fresh result is stored under (``None`` when
        caching is off).  Without a cache nothing is read, and a source
        that knows its digest is read only for a record without the
        links the request wants.
        """
        if self.cache is None:
            return None, None
        source = request.source
        digest = source.digest
        try:
            text = source.text() if digest is None else None
            key = self._cache_key(text, digest)
            if key is None:
                return None, None
            cached = self.cache.get(key, filename=source.name)
            if cached is None:
                return None, key
            links, anchors = cached.links, cached.anchors
            if request.links and links is None:
                # Stored by a lint that did not want links: scan for
                # them, and leave the record as it is.
                links, anchors = scan_page(source.text())
        except SourceError as exc:
            return self._unreadable(source, exc), None
        registry = get_registry()
        registry.inc("lint.files")
        _count_diagnostics(registry, cached.diagnostics)
        result = LintResult(name=source.name, diagnostics=cached.diagnostics)
        if request.links:
            result.links, result.anchors = links, anchors
        return result, None

    def _store(self, key: Optional[str], result: LintResult) -> LintResult:
        """Write a fresh result under the key :meth:`_lookup` returned."""
        if key is not None and result.ok:
            self.cache.put(key, result.encoded, result.links, result.anchors)
        return result

    def _unreadable(self, source: DocumentSource, exc: SourceError) -> LintResult:
        get_registry().inc("lint.source_errors")
        get_event_log().emit(
            "lint.source_error", level="error", file=source.name, error=str(exc),
        )
        return LintResult(name=source.name, error=str(exc))

    def _lint(self, request: LintRequest) -> LintResult:
        """Read and lint one document, bypassing the result cache."""
        source = request.source
        try:
            text = source.text()
        except SourceError as exc:
            return self._unreadable(source, exc)
        registry = get_registry()
        tracer = get_tracer()
        start = time.perf_counter()
        with tracer.span("lint.file", file=source.name):
            context = self.engine.check(text, source.name, links=request.links)
        diagnostics = context.sorted_diagnostics()
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        registry.inc("lint.files")
        registry.observe("lint.check_ms", elapsed_ms)
        # A no-op (one global read, one test) unless a run armed it.
        events = get_event_log()
        if events.enabled:
            if not tracer.enabled:  # a recorded span notes its own slow_op
                events.note_operation("lint.file", elapsed_ms, file=source.name)
            events.emit(
                "lint.file",
                level="debug",
                file=source.name,
                diagnostics=len(diagnostics),
                duration_ms=round(elapsed_ms, 3),
            )
        _count_diagnostics(registry, diagnostics)
        return LintResult(
            name=source.name,
            diagnostics=diagnostics,
            links=context.links,
            anchors=context.anchors,
        )

    def check_many(
        self,
        requests: Iterable[Union[LintRequest, DocumentSource]],
        jobs: int = 1,
    ) -> list[LintResult]:
        """Check a batch; results come back in input order.

        ``jobs > 1`` fans documents out over a process pool (``0`` means
        one worker per CPU).  The parallel path produces byte-identical
        diagnostics to the sequential one; services whose rule set
        cannot be rebuilt in a worker run sequentially regardless of
        ``jobs``.
        """
        batch = [
            request if isinstance(request, LintRequest) else LintRequest(request)
            for request in requests
        ]
        results: list[Optional[LintResult]] = [None] * len(batch)
        for index, result in self._iter_indexed(batch, resolve_jobs(jobs)):
            results[index] = result
        return results  # type: ignore[return-value]

    def iter_check(
        self,
        requests: Iterable[Union[LintRequest, DocumentSource]],
        jobs: int = 1,
    ) -> "Iterator[LintResult]":
        """Check a batch, yielding each result the moment it resolves.

        The streaming face of :meth:`check_many`: results arrive in
        *completion* order (cache hits and unreadable sources resolve
        inline, parallel chunks as their workers finish), so a consumer
        can report or roll up each document without the pipeline ever
        holding the whole batch.  The set of results is identical to
        ``check_many``'s; only the order differs.
        """
        batch = [
            request if isinstance(request, LintRequest) else LintRequest(request)
            for request in requests
        ]
        for _, result in self._iter_indexed(batch, resolve_jobs(jobs)):
            yield result

    def _iter_indexed(
        self, batch: list[LintRequest], jobs: int
    ) -> "Iterator[tuple[int, LintResult]]":
        """Yield ``(input_index, result)`` pairs in completion order."""
        if jobs <= 1 or len(batch) < 2 or not self.portable:
            for index, request in enumerate(batch):
                yield index, self.check(request)
            return
        with ParallelExecutor(self, jobs) as executor:
            yield from executor.iter_run(batch)


# -- the process pool -------------------------------------------------------

#: The worker's service, built once by :func:`_worker_init`.
_WORKER_SERVICE: Optional[LintService] = None

#: How long :meth:`ParallelExecutor.shutdown` waits for the pool's
#: workers to exit before it kills the rest: long enough for a worker
#: to finish its chunk and run its exit hooks.
_SHUTDOWN_WAIT_S = 5.0

#: How often a worker checks that the process that started it is alive.
_PARENT_POLL_S = 0.5

#: A chunk may wait in a busy worker's pipe, behind the one it is
#: linting, only if it pickles to at most this many bytes.  A Linux
#: socket pair buffers about 200 KB, so that send returns at once: the
#: parent never blocks on a worker that is itself blocked sending
#: results, and neither side can wait on the other for ever.
_PIPELINE_BYTES = 64 * 1024

#: A document on its way to a worker: its index in the batch, the
#: request to ship, and the cache key its result is stored under.
_Pending = tuple[int, LintRequest, Optional[str]]


def _worker_init(specification: ServiceSpecification) -> None:
    """Per-worker initializer: build the service, compile tables once.

    Also installs fresh observability state: under the ``fork`` start
    method the worker inherits the parent's registry (with all its
    historical counts), and everything the worker records is shipped
    back explicitly per chunk.  And it starts a watcher that ends the
    worker once its parent is gone: forked siblings hold copies of the
    parent's pipe ends, so the pipe alone cannot tell a worker that its
    owner died, and a killed owner must leave no workers behind.
    """
    global _WORKER_SERVICE
    set_registry(MetricsRegistry())
    set_tracer(None)
    set_profiler(None)
    threading.Thread(
        target=_exit_when_orphaned,
        args=(multiprocessing.parent_process().pid,),
        daemon=True,
    ).start()
    _WORKER_SERVICE = LintService.from_specification(specification)
    _WORKER_SERVICE.warm()


def _exit_when_orphaned(parent_pid: int) -> None:
    """End this worker once it is no longer ``parent_pid``'s child."""
    while os.getppid() == parent_pid:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _worker_run_chunk(
    requests: list[LintRequest],
    collect_trace: bool,
    collect_profile: bool,
) -> tuple[list[LintResult], dict, Optional[list], Optional[dict]]:
    """Check one chunk; return results plus observability snapshots.

    Each result's diagnostics go back as their encoded text, which the
    parent appends to the result cache and writes out as it is.  They
    are encoded here, after ``lint.check_ms`` has timed each lint, so
    that timer still covers the engine alone.
    """
    service = _WORKER_SERVICE
    assert service is not None, "worker used before _worker_init ran"
    tracer = Tracer() if collect_trace else None
    profiler = RuleProfiler() if collect_profile else None
    with contextlib.ExitStack() as stack:
        registry = stack.enter_context(use_registry())
        if tracer is not None:
            stack.enter_context(use_tracer(tracer))
        if profiler is not None:
            stack.enter_context(use_profiler(profiler))
        results = [service.check(r) for r in requests]
    for result in results:
        result.pack()
    return (
        results,
        registry.snapshot(),
        tracer.to_records() if tracer is not None else None,
        profiler.snapshot() if profiler is not None else None,
    )


def _worker_main(
    conn: multiprocessing.connection.Connection,
    specification: ServiceSpecification,
) -> None:
    """A pool worker's life: build the service, say ready, lint chunks.

    The first message on the pipe is the worker's pid, sent once its
    service is built (the handshake ``WarmPool.prewarm`` waits for);
    then one reply per chunk, in order, until the parent sends ``None``.
    ``_worker_init`` and ``_worker_run_chunk`` are looked up when
    called, so a stand-in installed before the pool started runs in the
    worker.  Returning lets ``multiprocessing`` run the exit hooks.
    """
    _worker_init(specification)
    conn.send(os.getpid())
    while (chunk := conn.recv()) is not None:
        conn.send(_worker_run_chunk(*chunk))


class _Worker:
    """One pool process and the parent's end of its duplex pipe.

    ``queued`` holds the chunks sent to it and not yet answered, oldest
    first; ``ready`` turns true once its handshake has been read.
    """

    __slots__ = ("process", "conn", "queued", "ready")

    def __init__(
        self,
        process: multiprocessing.Process,
        conn: multiprocessing.connection.Connection,
    ) -> None:
        self.process = process
        self.conn = conn
        self.queued: collections.deque = collections.deque()
        self.ready = False

    def greet(self, timeout_s: float) -> bool:
        """Read the handshake if it comes within ``timeout_s``."""
        if not self.ready and self.conn.poll(timeout_s):
            try:
                self.conn.recv()
            except (EOFError, OSError):  # it died starting
                return False
            self.ready = True
        return self.ready

    def stop(self) -> None:
        """Ask an idle worker to exit; its pipe holds nothing else."""
        with contextlib.suppress(OSError):
            self.conn.send(None)
        self.conn.close()

    def kill(self) -> None:
        """End the process whatever it is doing, reap it, close the pipe."""
        self.process.kill()
        self.process.join()
        self.conn.close()


def _start_workers(
    specification: ServiceSpecification, count: int
) -> list[_Worker]:
    """Fork ``count`` workers, each with its own duplex pipe."""
    workers: list[_Worker] = []
    try:
        for _ in range(count):
            ours, theirs = multiprocessing.Pipe()
            process = multiprocessing.Process(
                target=_worker_main, args=(theirs, specification), daemon=True
            )
            try:
                process.start()
            finally:
                # Only the worker holds its end now, so its death reads
                # as end-of-file here.
                theirs.close()
            workers.append(_Worker(process, ours))
    except BaseException:
        for worker in workers:
            worker.kill()
        raise
    return workers


class ParallelExecutor:
    """The one process pool: chunked fan-out of lint requests.

    Built from the :class:`LintService` it serves; each worker rebuilds
    that service once (:func:`_worker_init`).  ``iter_run`` first
    settles in the parent what needs no worker -- cache hits and
    unreadable documents -- then ships the rest in chunks, merges every
    worker's observability snapshots, and stores each fresh result in
    the service's cache exactly once.  Workers send each result's
    diagnostics already encoded (:meth:`LintResult.pack`), and the
    parent stores and writes that text without decoding it.

    Each worker is a ``multiprocessing`` child with its own duplex pipe,
    driven by the thread whose batch holds it: a batch takes idle
    workers (waiting for one when all are busy), sends each a chunk, and
    hands each back the moment it has nothing left to do, so concurrent
    batches share the pool without a thread or a queue in between.

    ``check_many`` opens one per batch; the daemon's
    :class:`~repro.daemon.pool.WarmPool` keeps one open for its
    lifetime.  The workers start on first use.  If they cannot start,
    or a worker dies mid-batch (or its initializer raises), the lost
    documents re-run in the parent -- counted in ``lint.pool.fallbacks``
    and announced by a ``lint.pool.fallback`` warn event -- and the next
    batch starts a replacement (``lint.pool.rebuilds``).
    """

    def __init__(self, service: LintService, jobs: int) -> None:
        self.service = service
        self.jobs = max(1, jobs)
        self._lock = threading.Lock()
        self._freed = threading.Condition(self._lock)
        #: Workers the pool keeps; fixed when it first starts.
        self._size = 0
        self._workers: list[_Worker] = []
        self._idle: list[_Worker] = []
        self._lost = False
        self._closed = False

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Stop the pool; workers still alive after ``_SHUTDOWN_WAIT_S``
        (a stopped or hung one) are killed and counted in
        ``lint.pool.kills``.  A worker a batch still holds is told to
        stop when the batch hands it back."""
        with self._lock:
            self._closed = True
            workers, self._workers = self._workers, []
            idle, self._idle = self._idle, []
            self._freed.notify_all()
        for worker in idle:
            worker.stop()
        # A worker's sentinel is ready once it has exited, reaped or not.
        running = {worker.process.sentinel: worker for worker in workers}
        deadline = time.monotonic() + _SHUTDOWN_WAIT_S
        while running and (left := deadline - time.monotonic()) > 0:
            for sentinel in multiprocessing.connection.wait(list(running), left):
                del running[sentinel]
        for worker in running.values():
            worker.process.kill()
        if running:
            get_registry().inc("lint.pool.kills", len(running))
        for worker in workers:
            worker.process.join()

    def _checkout(self, want: int) -> list[_Worker]:
        """Take up to ``want`` idle workers, waiting while all are busy.

        Starts the pool on first use (``want`` workers, at most
        ``jobs``) and replaces lost workers.  Empty when the pool is
        closed or cannot start.
        """
        with self._lock:
            while not self._closed:
                size = self._size or want
                if len(self._workers) < size:
                    try:
                        started = _start_workers(
                            self.service.specification(), size - len(self._workers)
                        )
                    except (OSError, ValueError):
                        return []
                    self._size = size
                    self._workers += started
                    self._idle += started
                    if self._lost:
                        self._lost = False
                        get_registry().inc("lint.pool.rebuilds")
                if self._idle:
                    taken = self._idle[-want:]
                    del self._idle[-want:]
                    return taken
                self._freed.wait()
            return []

    def _checkin(self, worker: _Worker) -> None:
        """Hand back a worker with nothing queued."""
        with self._lock:
            if not self._closed:
                self._idle.append(worker)
                self._freed.notify()
                return
        worker.stop()

    def _retire(self, worker: _Worker) -> None:
        """Drop a dead worker, or one left mid-chunk; the next batch
        starts its replacement."""
        with self._lock:
            if worker in self._workers:
                self._workers.remove(worker)
                self._lost = True
                self._freed.notify()  # a waiting batch starts the replacement
        worker.kill()

    def _chunks(self, pending: list[_Pending]) -> list[list[_Pending]]:
        """Cut the pending documents into chunks, in input order.

        Up to ``4 x jobs`` documents go as at most ``jobs`` chunks, one
        per worker, so a small batch costs each worker one round trip.
        A bigger batch goes as at least ``4 x jobs`` chunks, and as many
        more as keep a chunk's text near half ``_PIPELINE_BYTES``, so a
        worker can hold a second chunk while it lints the first.
        """
        count = len(pending)
        if count <= 4 * self.jobs:
            parts = min(self.jobs, count)
        else:
            text = sum(
                len(request.source.text())
                for _, request, _ in pending
                if isinstance(request.source, StringSource)
            )
            parts = min(count, max(4 * self.jobs, -(-2 * text // _PIPELINE_BYTES)))
        size, extra = divmod(count, parts)
        chunks = []
        start = 0
        for part in range(parts):
            end = start + size + (part < extra)
            chunks.append(pending[start:end])
            start = end
        return chunks

    def iter_run(
        self, requests: list[LintRequest]
    ) -> Iterator[tuple[int, LintResult]]:
        """Yield ``(input_index, result)`` as documents resolve."""
        service = self.service
        # A document read in the parent -- for its cache key, or because
        # its source cannot cross a process boundary (stdin handles, URL
        # sources bound to a live agent) -- ships as a string, so nothing
        # is read twice.
        pending: list[_Pending] = []
        for index, request in enumerate(requests):
            settled, key = service._lookup(request)
            if settled is not None:
                yield index, settled
                continue
            source = request.source
            if service.cache is not None or not source.portable:
                try:
                    text = source.text()
                except SourceError as exc:
                    yield index, service._unreadable(source, exc)
                    continue
                request = LintRequest(
                    StringSource(text, name=source.name), links=request.links
                )
            pending.append((index, request, key))
        if len(pending) < 2:
            yield from self._in_parent(pending)
            return

        chunks = self._chunks(pending)
        workers = self._checkout(min(self.jobs, len(chunks)))
        if not workers:
            yield from self._fall_back(pending, "no worker pool")
            return
        lost = yield from self._drive(workers, collections.deque(chunks))
        # Documents lost with a dead worker re-run in the parent, so a
        # dying worker costs throughput, never correctness.
        if lost:
            yield from self._fall_back(lost, "worker pool broke")

    def _drive(
        self, workers: list[_Worker], unsent: collections.deque
    ) -> Generator[tuple[int, LintResult], None, list[_Pending]]:
        """Keep ``workers`` busy until every chunk is answered.

        A worker gets a chunk whenever it has none queued, and a second
        one while it lints the first if that one is small enough to wait
        in its pipe.  Returns the documents of the chunks a dead worker
        held, and of any left unsent once no worker is.
        """
        flags = (
            bool(getattr(get_tracer(), "enabled", False)),
            get_profiler() is not None,
        )
        payload = None  # unsent[0], once pickled
        held = {worker.conn: worker for worker in workers}
        lost: list[_Pending] = []

        def feed(worker: _Worker, limit: int) -> None:
            nonlocal payload
            while unsent and len(worker.queued) < limit:
                if payload is None:
                    requests = [request for _, request, _ in unsent[0]]
                    payload = ForkingPickler.dumps((requests, *flags))
                if worker.queued and len(payload) > _PIPELINE_BYTES:
                    return
                worker.conn.send_bytes(payload)
                payload = None
                worker.queued.append(unsent.popleft())

        def drop(worker: _Worker) -> None:
            del held[worker.conn]
            for chunk in worker.queued:
                lost.extend(chunk)
            worker.queued.clear()
            self._retire(worker)

        try:
            for limit in (1, 2):  # one chunk for every worker first
                for worker in list(held.values()):
                    try:
                        feed(worker, limit)
                    except OSError:
                        drop(worker)
            while held:
                for conn in multiprocessing.connection.wait(list(held)):
                    worker = held[conn]
                    try:
                        reply = conn.recv()
                    except (EOFError, OSError):
                        drop(worker)
                        continue
                    if not worker.ready:  # the handshake
                        worker.ready = True
                        continue
                    chunk = worker.queued.popleft()
                    try:
                        feed(worker, 2)
                    except OSError:
                        drop(worker)
                    else:
                        if not worker.queued:
                            del held[conn]
                            self._checkin(worker)
                    yield from self._merge(chunk, reply)
        finally:
            # Left early (the consumer stopped, or raised): a worker
            # still linting for this batch cannot be handed on.
            for worker in list(held.values()):
                drop(worker)
        for chunk in unsent:
            lost.extend(chunk)
        return lost

    def _merge(
        self, chunk: list[_Pending], reply: tuple
    ) -> Iterator[tuple[int, LintResult]]:
        """Fold a reply's snapshots into the parent's; yield its results."""
        results, metrics, spans, profile = reply
        get_registry().merge_snapshot(metrics)
        if spans:
            tracer = get_tracer()
            if getattr(tracer, "enabled", False):
                tracer.merge_records(spans)
        if profile:
            profiler = get_profiler()
            if profiler is not None:
                profiler.merge_snapshot(profile)
        for (index, _, key), result in zip(chunk, results):
            yield index, self.service._store(key, result)

    def _fall_back(
        self, pending: list[_Pending], reason: str
    ) -> Iterator[tuple[int, LintResult]]:
        """Check in the parent what the pool could not: counted, not silent."""
        get_registry().inc("lint.pool.fallbacks", len(pending))
        get_event_log().emit(
            "lint.pool.fallback", level="warn", documents=len(pending),
            reason=reason,
        )
        yield from self._in_parent(pending)

    def _in_parent(
        self, pending: list[_Pending]
    ) -> Iterator[tuple[int, LintResult]]:
        for index, request, key in pending:
            yield index, self.service._store(key, self.service._lint(request))
