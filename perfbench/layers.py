"""Per-layer attribution for traced runs: self time and counts per layer.

Every wrapper times one call into a module's public function and keeps
a per-thread stack of open spans, so a layer's *self* time is its span
minus the spans nested inside it on the same thread.  Nothing here
edits the program's source: :func:`install` swaps module and class
attributes for timing wrappers inside the entry-point process, and
forked pool workers inherit them.  Each process writes one JSON file
of totals into a stats directory (the parent after ``main`` returns,
each pool worker when it exits), which the benchmark folds into the
per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time

_clock = time.perf_counter


class ThreadStats:
    """One thread's open-span stack and its per-layer totals."""

    __slots__ = ("main", "stack", "self_s", "total_s", "calls", "counts", "hooks_depth")

    def __init__(self, main: bool) -> None:
        self.main = main
        self.stack: list[list[float]] = []
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.hooks_depth = 0


class Recorder:
    """All threads' stats in one process; reset in a forked child."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.main_ident = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[ThreadStats] = []
        self.extra: dict[str, float] = {}

    def state(self) -> ThreadStats:
        stats = getattr(self._local, "stats", None)
        if stats is None:
            stats = ThreadStats(threading.get_ident() == self.main_ident)
            self._local.stats = stats
            with self._lock:
                self._threads.append(stats)
        return stats

    @staticmethod
    def enter(stats: ThreadStats) -> list[float]:
        frame = [_clock(), 0.0]
        stats.stack.append(frame)
        return frame

    @staticmethod
    def leave(stats: ThreadStats, layer: str, frame: list[float]) -> None:
        duration = _clock() - frame[0]
        stats.stack.pop()
        if stats.stack:
            stats.stack[-1][1] += duration
        stats.self_s[layer] = stats.self_s.get(layer, 0.0) + duration - frame[1]
        stats.total_s[layer] = stats.total_s.get(layer, 0.0) + duration
        stats.calls[layer] = stats.calls.get(layer, 0) + 1

    @staticmethod
    def count(stats: ThreadStats, name: str, amount: float = 1) -> None:
        stats.counts[name] = stats.counts.get(name, 0) + amount

    def snapshot(self) -> dict:
        """Totals over every thread, plus the main thread's self times."""
        merged: dict[str, dict[str, float]] = {
            "self_ms": {}, "total_ms": {}, "calls": {}, "counts": {},
            "main_self_ms": {},
        }
        with self._lock:
            threads = list(self._threads)
        for stats in threads:
            for key, table, scale in (
                ("self_ms", stats.self_s, 1000.0),
                ("total_ms", stats.total_s, 1000.0),
                ("calls", stats.calls, 1),
                ("counts", stats.counts, 1),
            ):
                out = merged[key]
                for layer, value in table.items():
                    out[layer] = out.get(layer, 0) + value * scale
            if stats.main:
                out = merged["main_self_ms"]
                for layer, value in stats.self_s.items():
                    out[layer] = out.get(layer, 0) + value * 1000.0
        merged["extra"] = dict(self.extra)
        return merged

    def dump(self, directory: str, role: str, **fields: object) -> None:
        payload = {"role": role, "pid": os.getpid(), **fields, **self.snapshot()}
        path = os.path.join(directory, f"{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(path + ".tmp", path)


RECORDER = Recorder()


def timed(layer: str, fn, after=None):
    """Wrap ``fn`` so each call is one span of ``layer``.

    ``after(stats, result)``, when given, runs once the span has closed,
    to count what the call returned.
    """
    rec = RECORDER

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stats = rec.state()
        frame = rec.enter(stats)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.leave(stats, layer, frame)
        if after is not None:
            after(stats, result)
        return result

    return wrapper


def timed_iter(layer: str, fn, count: str | None = None):
    """Wrap a generator function: every ``next()`` is one span of ``layer``.

    Lazy feeds do their work inside ``next()``, so timing the call that
    creates them would time only their setup.  The layer must be a leaf
    (it calls no other wrapped function), which lets each step skip the
    span stack: its time is added straight to the enclosing span's
    children, and the totals are folded in once the feed ends.
    """
    rec = RECORDER

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = iter(fn(*args, **kwargs))
        stats = rec.state()
        stack = stats.stack
        clock = _clock
        spent = 0.0
        steps = 0
        try:
            while True:
                started = clock()
                try:
                    item = next(iterator)
                finally:
                    duration = clock() - started
                    spent += duration
                    steps += 1
                    if stack:
                        stack[-1][1] += duration
                yield item
        except StopIteration:
            return
        finally:
            stats.self_s[layer] = stats.self_s.get(layer, 0.0) + spent
            stats.total_s[layer] = stats.total_s.get(layer, 0.0) + spent
            stats.calls[layer] = stats.calls.get(layer, 0) + steps
            if count is not None:
                stats.counts[count] = stats.counts.get(count, 0) + steps - 1

    return wrapper


def timed_steps(layer: str, fn):
    """Like :func:`timed_iter`, for a feed that may call wrapped layers.

    Also records ``<layer>.span``: first step to exhaustion, including
    the caller's work between steps (what a pool overlaps with).
    """
    rec = RECORDER

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = iter(fn(*args, **kwargs))
        stats = rec.state()
        started = _clock()
        try:
            while True:
                frame = rec.enter(stats)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    rec.leave(stats, layer, frame)
                yield item
        finally:
            span = f"{layer}.span"
            stats.total_s[span] = stats.total_s.get(span, 0.0) + _clock() - started

    return wrapper


def install(stats_dir: str) -> None:
    """Swap every layer's public entry points for timing wrappers."""
    import multiprocessing.util

    import repro.core.cache as cache
    import repro.core.context as context
    import repro.core.dispatch as dispatch
    import repro.core.engine as engine
    import repro.core.reporter as reporter
    import repro.core.service as service
    import repro.daemon.daemon as daemon
    import repro.daemon.pool as pool
    import repro.daemon.protocol as protocol
    import repro.robot.frontier as frontier
    import repro.robot.linkcheck as linkcheck
    import repro.robot.traversal as traversal
    import repro.site.rollup as rollup
    import repro.www.client as client
    import repro.www.httpcache as httpcache
    import repro.www.virtualweb as virtualweb

    # Pool workers must inherit the wrappers and the exit hook below;
    # only a forked worker does (spawn and forkserver start afresh).
    if multiprocessing.get_start_method() != "fork":
        raise RuntimeError(
            "traced runs need the 'fork' start method, not "
            f"{multiprocessing.get_start_method()!r}"
        )
    rec = RECORDER

    # -- repro.core.service ------------------------------------------------
    service.DocumentSource.text = timed("service.read", service.DocumentSource.text)
    service.LintService.__init__ = timed("service.setup", service.LintService.__init__)
    service.ParallelExecutor.iter_run = timed_steps(
        "service.pool_wall", service.ParallelExecutor.iter_run
    )
    service.LintService.iter_check = timed_steps(
        "service.pipeline", service.LintService.iter_check
    )

    # -- repro.core.cache ---------------------------------------------------
    cache.result_key = timed("cache.key", cache.result_key)
    cache.ResultCache.get = timed(
        "cache.get", cache.ResultCache.get,
        after=lambda stats, entry: rec.count(stats, "cache.hits", entry is not None),
    )
    cache.ResultCache.put = timed("cache.put", cache.ResultCache.put)

    # -- repro.html.tokenizer (the lazy feed the engine imported) -----------
    engine.iter_tokens = timed_iter("tokenizer.scan", engine.iter_tokens, count="tokens")

    # -- repro.core.engine ----------------------------------------------------
    engine.Engine.check = timed(
        "engine", engine.Engine.check,
        after=lambda stats, context_: rec.count(stats, "hook_calls", context_.hook_calls),
    )

    # -- repro.core.dispatch + rules (outermost run_hooks only) -------------
    original_run_hooks = dispatch.DispatchTable.run_hooks

    # Called about once per token: enter/leave are inlined to keep the
    # wrapper's own cost (which lands in the engine's self time) small.
    def run_hooks(handlers, context_, *args):
        if not handlers:
            return None
        stats = rec.state()
        if stats.hooks_depth:
            return original_run_hooks(handlers, context_, *args)
        stats.hooks_depth = 1
        stack = stats.stack
        frame = [_clock(), 0.0]
        stack.append(frame)
        try:
            return original_run_hooks(handlers, context_, *args)
        finally:
            duration = _clock() - frame[0]
            stack.pop()
            if stack:
                stack[-1][1] += duration
            self_s = stats.self_s
            self_s["dispatch.rules"] = self_s.get("dispatch.rules", 0.0) + duration - frame[1]
            stats.calls["dispatch.rules"] = stats.calls.get("dispatch.rules", 0) + 1
            stats.hooks_depth = 0

    dispatch.DispatchTable.run_hooks = staticmethod(run_hooks)

    # -- repro.core.context ---------------------------------------------------
    context.CheckContext.emit = timed(
        "context.emit", context.CheckContext.emit,
        after=lambda stats, recorded: rec.count(stats, "diagnostics", bool(recorded)),
    )

    # -- repro.core.reporter --------------------------------------------------
    for cls in (reporter.Reporter, reporter.JsonlReporter):
        for name in ("report", "begin", "emit", "end"):
            if name in vars(cls):
                setattr(cls, name, timed("reporter.render", vars(cls)[name]))

    # -- repro.daemon ---------------------------------------------------------
    protocol.decode_batch_request = timed("protocol.decode", protocol.decode_batch_request)
    protocol.encode_batch_response = timed("protocol.encode", protocol.encode_batch_response)
    daemon.LintDaemon.check_batch = timed("daemon.check_batch", daemon.LintDaemon.check_batch)
    original_admitted = daemon.LintDaemon.admitted

    @functools.wraps(original_admitted)
    @contextlib.contextmanager
    def admitted(self):
        # Only admission raises DaemonSaturated; the request body never does.
        try:
            with original_admitted(self):
                yield
        except daemon.DaemonSaturated:
            rec.count(rec.state(), "rejected")
            raise

    daemon.LintDaemon.admitted = admitted
    pool.WarmPool.check_batch = timed("pool.batch", pool.WarmPool.check_batch)

    # Pool workers run this by name; both modules must hand out the same
    # wrapper so it pickles by reference and resolves to itself in the
    # forked child.  The worker reads its own lint.check_ms from the
    # chunk's metrics snapshot, the program's independent timer.
    original_chunk = service._worker_run_chunk

    @functools.wraps(original_chunk)
    def worker_run_chunk(*args, **kwargs):
        result = original_chunk(*args, **kwargs)
        histogram = result[1].get("lint.check_ms")
        if isinstance(histogram, dict):
            rec.extra["check_ms"] = rec.extra.get("check_ms", 0.0) + float(histogram["sum"])
        rec.extra["chunks"] = rec.extra.get("chunks", 0) + 1
        return result

    service._worker_run_chunk = worker_run_chunk
    pool._worker_run_chunk = worker_run_chunk

    # -- repro.robot / repro.www / repro.site --------------------------------
    traversal.Robot.crawl = timed("robot.crawl", traversal.Robot.crawl)
    for name in ("enqueued", "completed", "checkpoint"):
        setattr(
            frontier.FrontierJournal, name,
            timed("frontier.journal", getattr(frontier.FrontierJournal, name)),
        )
    client.UserAgent.get = timed("www.get", client.UserAgent.get)
    client.UserAgent.head = timed("www.head", client.UserAgent.head)
    original_body_for = httpcache.HttpCache.body_for

    @functools.wraps(original_body_for)
    def body_for(self, entry):
        rec.count(rec.state(), "revalidated")
        return original_body_for(self, entry)

    httpcache.HttpCache.body_for = body_for
    virtualweb.VirtualWeb.add_site = timed("www.mount", virtualweb.VirtualWeb.add_site)
    httpcache.HttpCache.save = timed("httpcache.save", httpcache.HttpCache.save)
    httpcache.HttpCache.load = timed("httpcache.load", httpcache.HttpCache.load)
    linkcheck.LinkChecker.check = timed("linkcheck.check", linkcheck.LinkChecker.check)
    linkcheck.FragmentChecker.fragment_defined = timed(
        "linkcheck.check", linkcheck.FragmentChecker.fragment_defined
    )
    rollup.SiteRollup.add_page = timed("rollup.add", rollup.SiteRollup.add_page)
    rollup.PageSpill.write_page = timed("rollup.add", rollup.PageSpill.write_page)

    # A forked pool worker starts from empty totals and writes them when
    # multiprocessing runs its exit finalizers.
    def in_worker(_):
        rec.reset()
        multiprocessing.util.Finalize(
            None, rec.dump, args=(stats_dir, "worker"), exitpriority=10
        )

    multiprocessing.util.register_after_fork(rec, in_worker)
