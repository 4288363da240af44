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
  post-process (link extraction, page weight) from a single read.
- :class:`LintRequest` / :class:`LintResult` -- one unit of batch work.
  A failed read or fetch becomes a structured ``LintResult.error``
  instead of an exception, so one bad document never aborts a batch.
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
- :class:`ParallelExecutor` -- the ``jobs > 1`` path: chunked submission
  over a ``ProcessPoolExecutor`` whose per-worker initializer builds the
  service (and compiles dispatch tables) once per worker.  Each worker's
  metrics / tracer / profiler snapshots are merged into the parent's, so
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

import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from repro.config.options import Options
from repro.core.diagnostics import Diagnostic
from repro.core.engine import Engine
from repro.core.registry import RuleRegistry, default_registry
from repro.core.rules.base import Rule
from repro.html.spec import HTMLSpec, get_spec
from repro.obs.events import get_event_log
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry, use_registry
from repro.obs.profile import RuleProfiler, get_profiler, set_profiler, use_profiler
from repro.obs.timeseries import get_timeseries
from repro.obs.trace import Tracer, get_tracer, set_tracer, use_tracer


class SourceError(Exception):
    """A document source could not be read or fetched."""


# -- document sources -------------------------------------------------------


class DocumentSource:
    """One checkable document, read lazily and exactly once.

    ``text()`` performs the read on first call and caches it, so the
    pipeline can share a single read between linting and any follow-up
    analysis (link extraction, page weight).  Failures raise
    :class:`SourceError`; the service converts that into a structured
    ``LintResult.error``.
    """

    #: Label used as the diagnostics' filename.
    name: str = "-"
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

    ``keep_text`` asks the pipeline to return the document text on the
    result -- the single-read contract for callers that need the source
    for further analysis (the site checker's link extraction, the
    gateway's page-weight table).
    """

    source: DocumentSource
    keep_text: bool = False


@dataclass
class LintResult:
    """What checking one document produced.

    Exactly one of two shapes: diagnostics (``error is None``), or a
    structured error string for a document that could not be read or
    fetched.  Errors never abort the batch.
    """

    name: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    error: Optional[str] = None
    text: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


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
    naive_dispatch: bool = False


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
        naive_dispatch: bool = False,
        cache=None,
    ) -> None:
        self.options = options if options is not None else Options.with_defaults()
        if isinstance(spec, str):
            spec = get_spec(spec)
        self.spec = spec if spec is not None else get_spec(self.options.spec_name)
        self.cascade_heuristics = cascade_heuristics
        self.naive_dispatch = naive_dispatch
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
            naive_dispatch=naive_dispatch,
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
            naive_dispatch=self.naive_dispatch,
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
            naive_dispatch=spec.naive_dispatch,
        )

    def warm(self) -> None:
        """Compile (and cache) the dispatch tables now, not on first use."""
        self.engine.dispatch_table()

    # -- result caching ----------------------------------------------------

    def cache_fingerprint(self) -> bytes:
        """Digest of every configuration axis that can change lint output.

        Combined with the document bytes this forms the
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
                self.naive_dispatch,
            )
        return self._fingerprint

    def _cache_key(self, text: str) -> Optional[str]:
        """The cache key for ``text`` -- or ``None`` when caching is off.

        Observability runs that exist to watch the engine work
        (an enabled tracer or an installed profiler) bypass the cache:
        a span tree or rule profile served from cache would be a lie.
        """
        if self.cache is None:
            return None
        if get_profiler() is not None or getattr(get_tracer(), "enabled", False):
            get_registry().inc("cache.lint.bypassed")
            return None
        from repro.core.cache import result_key

        return result_key(text, self.cache_fingerprint())

    # -- checking ----------------------------------------------------------

    def check(self, request: Union[LintRequest, DocumentSource]) -> LintResult:
        """Check one document in this process; never raises for bad I/O."""
        if isinstance(request, DocumentSource):
            request = LintRequest(request)
        source = request.source
        try:
            text = source.text()
        except SourceError as exc:
            get_registry().inc("lint.source_errors")
            get_event_log().emit(
                "lint.source_error", level="error", file=source.name,
                error=str(exc),
            )
            return LintResult(name=source.name, error=str(exc))
        registry = get_registry()
        key = self._cache_key(text)
        if key is not None:
            cached = self.cache.get(key, filename=source.name)
            if cached is not None:
                registry.inc("lint.files")
                for diagnostic in cached:
                    registry.inc(f"lint.diagnostics.{diagnostic.category.value}")
                return LintResult(
                    name=source.name,
                    diagnostics=cached,
                    text=text if request.keep_text else None,
                )
        start = time.perf_counter()
        with get_tracer().span("lint.file", file=source.name):
            context = self.engine.check(text, source.name)
        diagnostics = context.sorted_diagnostics()
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        registry.inc("lint.files")
        registry.observe("lint.check_ms", elapsed_ms)
        # Continuous-telemetry feeds: both are no-ops (one global read,
        # one test) unless a run armed them.
        series = get_timeseries()
        if series is not None:
            series.observe("lint.check_ms", elapsed_ms)
        events = get_event_log()
        if events.enabled:
            events.note_operation("lint.file", elapsed_ms, file=source.name)
            events.emit(
                "lint.file",
                level="debug",
                file=source.name,
                diagnostics=len(diagnostics),
                duration_ms=round(elapsed_ms, 3),
            )
        for diagnostic in diagnostics:
            registry.inc(f"lint.diagnostics.{diagnostic.category.value}")
        if key is not None:
            self.cache.put(key, diagnostics)
        return LintResult(
            name=source.name,
            diagnostics=diagnostics,
            text=text if request.keep_text else None,
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
        if self.cache is not None:
            yield from self._iter_indexed_cached(batch, jobs)
            return
        executor = ParallelExecutor(self.specification(), jobs=jobs)
        yield from executor.iter_run(batch, fallback=self.check)

    def _iter_indexed_cached(
        self, batch: list[LintRequest], jobs: int
    ) -> "Iterator[tuple[int, LintResult]]":
        """The parallel path when a result cache is attached.

        Worker processes cannot share the parent's cache tiers, so hits
        are resolved *here*, before fan-out: read each document, hash
        it, serve matching cached results directly.  Only the misses
        ship to the pool (as already-read strings -- one read total, as
        ever), and their fresh results are stored as they stream back.
        """
        registry = get_registry()
        misses: list[tuple[int, LintRequest, Optional[str]]] = []
        for index, request in enumerate(batch):
            source = request.source
            try:
                text = source.text()
            except SourceError as exc:
                registry.inc("lint.source_errors")
                yield index, LintResult(name=source.name, error=str(exc))
                continue
            key = self._cache_key(text)
            if key is not None:
                cached = self.cache.get(key, filename=source.name)
                if cached is not None:
                    registry.inc("lint.files")
                    for diagnostic in cached:
                        registry.inc(
                            f"lint.diagnostics.{diagnostic.category.value}"
                        )
                    yield index, LintResult(
                        name=source.name,
                        diagnostics=cached,
                        text=text if request.keep_text else None,
                    )
                    continue
            misses.append((
                index,
                LintRequest(
                    StringSource(text, name=source.name),
                    keep_text=request.keep_text,
                ),
                key,
            ))
        if not misses:
            return
        if len(misses) == 1:
            checked: Iterable[tuple[int, LintResult]] = (
                (0, self.check(misses[0][1])),
            )
        else:
            executor = ParallelExecutor(self.specification(), jobs=jobs)
            checked = executor.iter_run(
                [request for _, request, _ in misses], fallback=self.check
            )
        for miss_index, result in checked:
            index, _, key = misses[miss_index]
            if key is not None and result is not None and result.ok:
                self.cache.put(key, result.diagnostics)
            yield index, result


# -- the process-pool executor ----------------------------------------------

#: The worker's service, built once by :func:`_worker_init`.
_WORKER_SERVICE: Optional[LintService] = None


def _worker_init(specification: ServiceSpecification) -> None:
    """Per-worker initializer: build the service, compile tables once.

    Also installs fresh observability state: under the ``fork`` start
    method the worker inherits the parent's registry (with all its
    historical counts), and everything the worker records is shipped
    back explicitly per chunk.
    """
    global _WORKER_SERVICE
    set_registry(MetricsRegistry())
    set_tracer(None)
    set_profiler(None)
    _WORKER_SERVICE = LintService.from_specification(specification)
    _WORKER_SERVICE.warm()


def _worker_run_chunk(
    requests: list[LintRequest],
    collect_trace: bool,
    collect_profile: bool,
) -> tuple[list[LintResult], dict, Optional[list], Optional[dict]]:
    """Check one chunk; return results plus observability snapshots."""
    service = _WORKER_SERVICE
    assert service is not None, "worker used before _worker_init ran"
    tracer = Tracer() if collect_trace else None
    profiler = RuleProfiler() if collect_profile else None
    with use_registry() as registry:
        if tracer is not None:
            with use_tracer(tracer):
                if profiler is not None:
                    with use_profiler(profiler):
                        results = [service.check(r) for r in requests]
                else:
                    results = [service.check(r) for r in requests]
        elif profiler is not None:
            with use_profiler(profiler):
                results = [service.check(r) for r in requests]
        else:
            results = [service.check(r) for r in requests]
    return (
        results,
        registry.snapshot(),
        tracer.to_records() if tracer is not None else None,
        profiler.snapshot() if profiler is not None else None,
    )


class ParallelExecutor:
    """Chunked fan-out of lint requests over a process pool.

    Submission is chunked (several documents per task) to amortise
    pickling overhead; completion order is irrelevant because every
    result is placed back at its input index.  If the platform cannot
    spawn worker processes at all, or the pool breaks, the executor
    degrades to the sequential fallback rather than failing the batch;
    the documents re-run that way are counted in ``lint.pool.fallbacks``
    and announced by a ``lint.pool.fallback`` warn event.
    """

    def __init__(
        self,
        specification: ServiceSpecification,
        jobs: int,
        chunk_size: Optional[int] = None,
    ) -> None:
        self.specification = specification
        self.jobs = max(1, jobs)
        self.chunk_size = chunk_size

    def run(
        self,
        requests: list[LintRequest],
        fallback: Callable[[LintRequest], LintResult],
    ) -> list[LintResult]:
        results: list[Optional[LintResult]] = [None] * len(requests)
        for index, result in self.iter_run(requests, fallback):
            results[index] = result
        return results  # type: ignore[return-value]

    def iter_run(
        self,
        requests: list[LintRequest],
        fallback: Callable[[LintRequest], LintResult],
    ) -> Iterator[tuple[int, LintResult]]:
        """Yield ``(input_index, result)`` as worker chunks complete."""
        # Materialise non-portable sources (stdin handles, URL sources
        # bound to a live agent) in the parent: read failures become
        # error results immediately, successes ship as strings.
        portable: list[tuple[int, LintRequest]] = []
        for index, request in enumerate(requests):
            source = request.source
            if not source.portable:
                try:
                    text = source.text()
                except SourceError as exc:
                    get_registry().inc("lint.source_errors")
                    yield index, LintResult(name=source.name, error=str(exc))
                    continue
                request = LintRequest(
                    StringSource(text, name=source.name),
                    keep_text=request.keep_text,
                )
            portable.append((index, request))
        if not portable:
            return

        chunk_size = self.chunk_size or max(
            1, -(-len(portable) // (self.jobs * 4))
        )
        chunks = [
            portable[offset : offset + chunk_size]
            for offset in range(0, len(portable), chunk_size)
        ]
        collect_trace = bool(getattr(get_tracer(), "enabled", False))
        collect_profile = get_profiler() is not None

        try:
            pool = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(chunks)),
                initializer=_worker_init,
                initargs=(self.specification,),
            )
        except (OSError, ValueError):  # pragma: no cover - no multiprocessing
            yield from _run_in_parent(portable, fallback, "pool creation failed")
            return

        registry = get_registry()
        broken: list[int] = []
        with pool:
            futures = {}
            for chunk in chunks:
                indices = [index for index, _ in chunk]
                try:
                    future = pool.submit(
                        _worker_run_chunk,
                        [request for _, request in chunk],
                        collect_trace,
                        collect_profile,
                    )
                except (BrokenProcessPool, OSError):
                    # The pool broke (or could not fork) before this
                    # chunk was queued.
                    broken.extend(indices)
                    continue
                futures[future] = indices
            for future in as_completed(futures):
                indices = futures[future]
                try:
                    chunk_results, metrics, spans, profile = future.result()
                except BrokenProcessPool:
                    broken.extend(indices)
                    continue
                registry.merge_snapshot(metrics)
                if spans:
                    tracer = get_tracer()
                    if getattr(tracer, "enabled", False):
                        tracer.merge_records(spans)
                if profile:
                    profiler = get_profiler()
                    if profiler is not None:
                        profiler.merge_snapshot(profile)
                for index, result in zip(indices, chunk_results):
                    yield index, result
        # Requests lost to a broken pool re-run sequentially, so a dying
        # worker degrades throughput, never correctness.
        if broken:
            request_at = dict(portable)
            yield from _run_in_parent(
                [(index, request_at[index]) for index in broken],
                fallback,
                "worker pool broke",
            )


def _run_in_parent(
    requests: list[tuple[int, LintRequest]],
    fallback: Callable[[LintRequest], LintResult],
    reason: str,
) -> Iterator[tuple[int, LintResult]]:
    """Check in this process what the pool could not: counted, not silent."""
    get_registry().inc("lint.pool.fallbacks", len(requests))
    get_event_log().emit(
        "lint.pool.fallback", level="warn", documents=len(requests), reason=reason
    )
    for index, request in requests:
        yield index, fallback(request)
