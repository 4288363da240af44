"""The batch LintService and its parallel pipeline.

The contract under test (docs/architecture.md, "Batch pipeline"):

- ``check_many(jobs=N)`` produces byte-identical diagnostics, in the
  same order, as the sequential path;
- a document that cannot be read becomes a structured
  ``LintResult.error`` and never aborts the batch;
- worker metrics merge back into the parent registry, so totals under
  parallelism equal the sequential totals;
- sources read lazily and exactly once, and ``keep_text`` hands the
  single read back to the caller.
"""

from __future__ import annotations

import pytest

from repro.config.options import Options
from repro.core.registry import default_registry
from repro.core.rules.base import Rule
from repro.core.service import (
    LintRequest,
    LintResult,
    LintService,
    PathSource,
    SourceError,
    StdinSource,
    StringSource,
    resolve_jobs,
)
from repro.obs.metrics import use_registry
from repro.obs.profile import use_profiler
from repro.obs.trace import use_tracer
from repro.workload.corpus import build_seeded_corpus


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

    def test_keep_text_returns_the_read(self, tmp_path):
        path = tmp_path / "page.html"
        path.write_text("<html><body><p>hi</body></html>")
        service = LintService()
        kept = service.check(LintRequest(PathSource(path), keep_text=True))
        dropped = service.check(LintRequest(PathSource(path)))
        assert kept.text == "<html><body><p>hi</body></html>"
        assert dropped.text is None

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

    def test_keep_text_survives_the_pool(self, corpus_dir):
        service = LintService()
        results = service.check_many(
            [LintRequest(PathSource(p), keep_text=True) for p in corpus_dir],
            jobs=4,
        )
        for path, result in zip(corpus_dir, results):
            assert result.text == path.read_text(encoding="utf-8")

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
