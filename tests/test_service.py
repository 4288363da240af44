"""The batch LintService and its parallel pipeline.

The contract under test (docs/architecture.md, "Batch pipeline"):

- ``check_many(jobs=N)`` produces byte-identical diagnostics, in the
  same order, as the sequential path;
- a document that cannot be read becomes a structured
  ``LintResult.error`` and never aborts the batch;
- worker metrics merge back into the parent registry, so totals under
  parallelism equal the sequential totals;
- sources read lazily and exactly once, and a request for ``links``
  gets the page's links and anchors from the lint pass, a worker or a
  cache hit alike;
- the process pool's shutdown is bounded, and its workers exit when
  their owner dies.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.config.options import Options
from repro.core.registry import default_registry
from repro.core.rules.base import Rule
from repro.core.service import (
    LintRequest,
    LintResult,
    LintService,
    ParallelExecutor,
    PathSource,
    SourceError,
    StdinSource,
    StringSource,
    resolve_jobs,
)
from repro.obs.metrics import use_registry
from repro.site.links import scan_page
from repro.obs.profile import use_profiler
from repro.obs.trace import use_tracer
from repro.workload.corpus import build_seeded_corpus
from tests.conftest import make_document


def diagnostic_keys(result: LintResult) -> list[tuple]:
    return [
        (d.message_id, d.category, d.text, d.line, d.column, d.filename)
        for d in result.diagnostics
    ]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """A 12-page generator corpus on disk, plus ground truth."""
    root = tmp_path_factory.mktemp("service_corpus")
    pages = build_seeded_corpus(12, errors_per_page=2, seed=7)
    paths = []
    for index, page in enumerate(pages):
        path = root / f"page{index:02}.html"
        path.write_text(page.source, encoding="utf-8")
        paths.append(path)
    return paths


class TestSources:
    def test_path_source_reads_once(self, tmp_path):
        path = tmp_path / "once.html"
        path.write_text("<html></html>")
        source = PathSource(path)
        first = source.text()
        path.unlink()  # a second read would now fail
        assert source.text() == first

    def test_path_source_missing_file(self, tmp_path):
        source = PathSource(tmp_path / "nope.html")
        with pytest.raises(SourceError, match="cannot read"):
            source.text()

    def test_string_source_never_touches_io(self):
        source = StringSource("<p>", name="inline")
        assert source.text() == "<p>"
        assert source.name == "inline"

    def test_stdin_source_reads_given_stream(self):
        import io

        source = StdinSource(io.StringIO("<html>x</html>"))
        assert source.text() == "<html>x</html>"
        assert source.name == "stdin"

    def test_resolve_jobs(self):
        import os

        assert resolve_jobs(3) == 3
        assert resolve_jobs(1) == 1
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(None) == (os.cpu_count() or 1)


class TestCheck:
    def test_error_result_instead_of_exception(self, tmp_path):
        service = LintService()
        result = service.check(LintRequest(PathSource(tmp_path / "gone.html")))
        assert not result.ok
        assert "cannot read" in result.error
        assert result.diagnostics == []

    def test_source_errors_are_counted(self, tmp_path):
        service = LintService()
        with use_registry() as registry:
            service.check(LintRequest(PathSource(tmp_path / "gone.html")))
            assert registry.value("lint.source_errors") == 1
            assert registry.value("lint.files") == 0

    def test_links_come_from_the_lint_pass(self, tmp_path):
        from repro.core.cache import ResultCache

        page = '<html><body><p id="top"><a href="x.html">hi</a></body></html>'
        path = tmp_path / "page.html"
        path.write_text(page)
        expected = scan_page(page)
        service = LintService(cache=ResultCache(tmp_path / "cache"))
        for hit in (0, 1):  # a lint, then a cache hit
            with use_registry() as registry:
                kept = service.check(LintRequest(PathSource(path), links=True))
                assert registry.value("cache.lint.hits") == hit
                # The lint pass tokenized the page once; the hit not at all.
                assert registry.value("tokenizer.documents") == 1 - hit
            assert (kept.links, kept.anchors) == expected
        dropped = service.check(LintRequest(PathSource(path)))
        assert dropped.links is None and dropped.anchors is None

    def test_bare_source_accepted(self):
        service = LintService()
        result = service.check(StringSource("<html></html>", name="x"))
        assert result.name == "x"
        assert result.ok


def failing_worker_init(specification) -> None:
    raise RuntimeError("worker initializer failed on purpose")


class TestPoolFallback:
    """A pool that cannot run degrades to the parent -- counted, not silent."""

    def test_broken_initializer_reruns_the_batch_in_the_parent(
        self, corpus_dir, monkeypatch, capsys
    ):
        import repro.core.service as service_module
        from repro.cli import main as weblint_main
        from repro.obs.events import EventLog, use_event_log

        argv = ["--no-config", "--no-cache", "-f", "jsonl", *map(str, corpus_dir)]
        weblint_main(["--jobs", "1", *argv])
        sequential = capsys.readouterr().out
        monkeypatch.setattr(service_module, "_worker_init", failing_worker_init)
        events = EventLog(level="warn")
        with use_event_log(events):
            weblint_main(["--jobs", "2", "--stats", *argv])
        degraded = capsys.readouterr()
        assert sorted(degraded.out.splitlines()) == sorted(sequential.splitlines())
        assert f"lint.pool.fallbacks: {len(corpus_dir)}\n" in degraded.err
        [event] = [e for e in events.records if e["event"] == "lint.pool.fallback"]
        assert event["level"] == "warn"
        assert event["documents"] == len(corpus_dir)

    def test_cached_batch_falls_back_once_per_document(
        self, corpus_dir, tmp_path, monkeypatch
    ):
        """A broken pool under a cache: each document misses, is linted
        and is stored exactly once -- the fallback never re-looks it up."""
        import repro.core.service as service_module
        from repro.core.cache import ResultCache

        paths = corpus_dir[:6]
        sequential = LintService().check_many(map(PathSource, paths), jobs=1)
        monkeypatch.setattr(service_module, "_worker_init", failing_worker_init)
        service = LintService(cache=ResultCache(tmp_path / "cache"))
        with use_registry() as registry:
            degraded = service.check_many(map(PathSource, paths), jobs=2)
        assert registry.value("cache.lint.misses") == 6
        assert registry.value("cache.lint.stores") == 6
        assert registry.value("lint.pool.fallbacks") == 6
        assert list(map(diagnostic_keys, degraded)) == list(
            map(diagnostic_keys, sequential)
        )

    def test_healthy_pool_counts_no_fallback(self, corpus_dir):
        with use_registry() as registry:
            LintService().check_many(
                [LintRequest(PathSource(p)) for p in corpus_dir], jobs=2
            )
        assert registry.value("lint.pool.fallbacks") == 0


class TestPoolTeardown:
    """The pool never hangs its owner's shutdown, nor outlives its owner."""

    def test_a_stopped_worker_is_killed_after_the_shutdown_wait(
        self, monkeypatch
    ):
        import repro.core.service as service_module

        monkeypatch.setattr(service_module, "_SHUTDOWN_WAIT_S", 0.5)
        executor = ParallelExecutor(LintService(), 2)
        documents = [LintRequest(StringSource(f"<p>{i}</p>")) for i in range(6)]
        assert len(list(executor.iter_run(documents))) == 6
        workers = multiprocessing.active_children()
        assert len(workers) == 2
        os.kill(workers[0].pid, signal.SIGSTOP)
        stopped = threading.Event()
        try:
            with use_registry() as registry:
                started = time.monotonic()
                threading.Thread(
                    target=lambda: (executor.shutdown(), stopped.set()), daemon=True
                ).start()
                assert stopped.wait(10), "shutdown() waited on a stopped worker"
            assert time.monotonic() - started < 5
            # Only the stopped worker: its idle sibling reads the stop
            # message on its own pipe and exits.
            assert registry.value("lint.pool.kills") == 1
            assert multiprocessing.active_children() == []
        finally:
            for worker in workers:  # unblocks a shutdown that hung
                try:
                    os.kill(worker.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            stopped.wait(10)

    def test_workers_exit_when_their_owner_is_killed(self):
        """The workers inherit the owner's stdout, so the pipe reaches
        EOF only once the owner and every worker have exited."""
        import repro

        script = (
            "import time\n"
            "from repro.core.service import (\n"
            "    LintRequest, LintService, ParallelExecutor, StringSource)\n"
            "executor = ParallelExecutor(LintService(), 2)\n"
            "batch = [LintRequest(StringSource(f'<p>{i}</p>')) for i in range(6)]\n"
            "assert len(list(executor.iter_run(batch))) == 6\n"
            "print('ready', flush=True)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        owner = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            env=env,
            start_new_session=True,
        )
        ended = threading.Event()
        try:
            assert owner.stdout.readline() == b"ready\n"
            os.kill(owner.pid, signal.SIGKILL)
            owner.wait()
            threading.Thread(
                target=lambda: (owner.stdout.read(), ended.set()), daemon=True
            ).start()
            assert ended.wait(5), "the owner's workers outlived it"
        finally:
            try:  # the owner's session: any worker left behind
                os.killpg(owner.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            ended.wait(5)
            owner.stdout.close()


class TestPipes:
    """Each worker has its own pipe, and neither end waits on the other."""

    def test_big_chunks_and_big_replies_never_wait_on_each_other(self):
        """A chunk bigger than a pipe's buffer goes only to an idle
        worker.  Queued behind another, the parent could block sending
        it while the worker blocks sending a reply as big: here each
        page pickles to about 245 KB and its 6,000 diagnostics to about
        230 KB, more than a Linux socket pair buffers."""
        page = make_document(
            "<p>" + "<img src=x.gif>" * 3000 + "</p><!-- " + "x" * 200_000 + " -->"
        )
        documents = [LintRequest(StringSource(page, name=f"big{i}")) for i in range(5)]
        got: dict[int, LintResult] = {}
        with ParallelExecutor(LintService(), 1) as executor:
            batch = threading.Thread(
                target=lambda: got.update(executor.iter_run(documents)), daemon=True
            )
            batch.start()
            batch.join(60)
            # A stuck batch ends when shutdown kills its worker.
            assert not batch.is_alive(), "the parent and its worker deadlocked"
        assert sorted(got) == list(range(5))
        assert {len(result.diagnostics) for result in got.values()} == {6000}


class TestCheckManyParity:
    def test_parallel_equals_sequential(self, corpus_dir):
        """Golden equivalence: jobs=4 is byte-identical to jobs=1."""
        service = LintService()
        sequential = service.check_many(
            [LintRequest(PathSource(p)) for p in corpus_dir], jobs=1
        )
        parallel = service.check_many(
            [LintRequest(PathSource(p)) for p in corpus_dir], jobs=4
        )
        assert [r.name for r in sequential] == [r.name for r in parallel]
        assert [r.error for r in sequential] == [r.error for r in parallel]
        assert list(map(diagnostic_keys, sequential)) == list(
            map(diagnostic_keys, parallel)
        )
        # The corpus has seeded errors: parity must not be vacuous.
        assert sum(len(r.diagnostics) for r in sequential) > 0

    def test_parallel_respects_options(self, corpus_dir):
        options = Options.with_defaults()
        options.disable("warning")
        service = LintService(options=options)
        sequential = service.check_many(
            [LintRequest(PathSource(p)) for p in corpus_dir[:6]], jobs=1
        )
        parallel = service.check_many(
            [LintRequest(PathSource(p)) for p in corpus_dir[:6]], jobs=3
        )
        assert list(map(diagnostic_keys, sequential)) == list(
            map(diagnostic_keys, parallel)
        )

    def test_parallel_respects_rule_state(self, corpus_dir):
        registry = default_registry()
        registry.disable("style", "images")
        service = LintService(registry=registry)
        sequential = service.check_many(
            [LintRequest(PathSource(p)) for p in corpus_dir[:6]], jobs=1
        )
        parallel = service.check_many(
            [LintRequest(PathSource(p)) for p in corpus_dir[:6]], jobs=3
        )
        assert list(map(diagnostic_keys, sequential)) == list(
            map(diagnostic_keys, parallel)
        )

    def test_unreadable_file_mid_batch_degrades(self, corpus_dir, tmp_path):
        """One bad document never kills the batch -- in either mode."""
        paths = list(corpus_dir[:3]) + [tmp_path / "missing.html"] + list(
            corpus_dir[3:6]
        )
        service = LintService()
        for jobs in (1, 4):
            results = service.check_many(
                [LintRequest(PathSource(p)) for p in paths], jobs=jobs
            )
            assert len(results) == 7
            assert [r.ok for r in results] == [
                True, True, True, False, True, True, True,
            ]
            assert "cannot read" in results[3].error
            assert all(r.diagnostics for r in results if r.ok)

    def test_links_survive_the_pool(self, corpus_dir):
        service = LintService()
        results = service.check_many(
            [LintRequest(PathSource(p), links=True) for p in corpus_dir],
            jobs=4,
        )
        for path, result in zip(corpus_dir, results):
            expected = scan_page(path.read_text(encoding="utf-8"))
            assert (result.links, result.anchors) == expected

    def test_non_portable_sources_materialise_in_parent(self, corpus_dir):
        import io

        service = LintService()
        requests = [LintRequest(PathSource(p)) for p in corpus_dir[:4]]
        requests.insert(2, LintRequest(StdinSource(io.StringIO("<html></html>"))))
        results = service.check_many(requests, jobs=3)
        assert [r.name for r in results][2] == "stdin"
        assert all(r.ok for r in results)

    def test_explicit_rules_fall_back_to_sequential(self, corpus_dir):
        """A raw rules list cannot cross a process boundary: stay serial."""

        class CustomRule(Rule):
            name = "custom"

        service = LintService(rules=[CustomRule()])
        assert not service.portable
        with pytest.raises(ValueError):
            service.specification()
        results = service.check_many(
            [LintRequest(PathSource(p)) for p in corpus_dir[:3]], jobs=4
        )
        assert len(results) == 3


class TestObservabilityMerge:
    def test_parent_counters_equal_worker_sums(self, corpus_dir):
        """Metrics under jobs=N match the sequential run exactly."""
        service = LintService()
        requests = lambda: [LintRequest(PathSource(p)) for p in corpus_dir]  # noqa: E731
        with use_registry() as sequential:
            service.check_many(requests(), jobs=1)
        with use_registry() as parallel:
            service.check_many(requests(), jobs=4)
        assert parallel.value("lint.files") == len(corpus_dir)
        for name in (
            "lint.files",
            "lint.diagnostics.error",
            "lint.diagnostics.warning",
            "lint.diagnostics.style",
        ):
            assert parallel.value(name) == sequential.value(name), name
        seq_hist = sequential.snapshot().get("lint.check_ms")
        par_hist = parallel.snapshot().get("lint.check_ms")
        assert par_hist["count"] == seq_hist["count"] == len(corpus_dir)

    def test_trace_spans_merge_back(self, corpus_dir):
        service = LintService()
        with use_tracer() as tracer:
            service.check_many(
                [LintRequest(PathSource(p)) for p in corpus_dir], jobs=4
            )
        names = [span.name for span, _ in tracer.iter_spans()]
        assert names.count("lint.file") == len(corpus_dir)

    def test_profiler_merges_back(self, corpus_dir):
        service = LintService()
        with use_profiler() as profiler:
            service.check_many(
                [LintRequest(PathSource(p)) for p in corpus_dir], jobs=4
            )
        assert profiler.documents == len(corpus_dir)
        assert profiler.entries  # per-rule timings crossed the pool


class TestSpecificationRoundTrip:
    def test_round_trip_preserves_configuration(self):
        options = Options.with_defaults()
        options.spec_name = "html32"
        registry = default_registry()
        registry.disable("style")
        service = LintService(options=options, registry=registry)
        rebuilt = LintService.from_specification(service.specification())
        assert rebuilt.spec.name == service.spec.name
        assert rebuilt.options.fingerprint() == service.options.fingerprint()
        assert [type(r).__name__ for r in rebuilt.rules] == [
            type(r).__name__ for r in service.rules
        ]
