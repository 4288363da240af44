"""Tests for the observability layer (repro.obs) and its wiring.

Covers the registry primitives (counters, gauges, histograms), span
nesting and the trace exporters, the no-op tracer's zero-overhead path,
the rule profiler, and the hooks instrumented into the tokenizer,
engine, linter, walker, reporter, robot and www client.
"""

from __future__ import annotations

import io
import json
import time

import pytest

from repro import Options, Weblint
from repro.core.diagnostics import Diagnostic
from repro.core.engine import Engine
from repro.core.reporter import (
    HTMLReporter,
    LintReporter,
    StatsReporter,
    get_reporter,
)
from repro.obs import (
    NULL_SPAN,
    MetricsRegistry,
    NullTracer,
    RuleProfiler,
    Tracer,
    get_profiler,
    get_registry,
    get_tracer,
    use_profiler,
    use_registry,
    use_tracer,
)
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.robot.traversal import Robot, TraversalPolicy
from repro.site.walker import find_html_files, iter_directories
from repro.workload import PageGenerator, build_pathological_corpus
from repro.www.client import RetryPolicy, UserAgent
from repro.www.virtualweb import VirtualWeb
from tests.conftest import PAPER_EXAMPLE, make_document


# -- metric primitives ----------------------------------------------------------


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("x")
        assert counter.snapshot() == 0
        counter.inc()
        counter.inc(4)
        assert counter.snapshot() == 5


class TestGauge:
    def test_set_overwrites(self):
        gauge = Gauge("depth")
        gauge.set(3)
        gauge.set(1)
        assert gauge.snapshot()["value"] == 1

    def test_set_max_keeps_high_water(self):
        gauge = Gauge("depth")
        gauge.set_max(3)
        gauge.set_max(1)
        gauge.set_max(7)
        assert gauge.snapshot()["max"] == 7


class TestHistogram:
    def test_values_land_in_first_fitting_bucket(self):
        histogram = Histogram("ms", buckets=(1, 10, 100))
        for value in (0.5, 5, 5, 50):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 4
        assert snapshot["buckets"]["le_1"] == 1
        assert snapshot["buckets"]["le_10"] == 2
        assert snapshot["buckets"]["le_100"] == 1

    def test_overflow_beyond_last_bucket(self):
        histogram = Histogram("ms", buckets=(1, 10))
        histogram.observe(99)
        snapshot = histogram.snapshot()
        assert snapshot["overflow"] == 1
        assert snapshot["max"] == 99

    def test_mean(self):
        histogram = Histogram("ms")
        histogram.observe(2)
        histogram.observe(4)
        assert histogram.mean == pytest.approx(3)


# -- the registry -------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_is_created_once(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_value_defaults_to_zero(self):
        registry = MetricsRegistry()
        assert registry.value("never.touched") == 0

    def test_snapshot_is_sorted_and_typed(self):
        registry = MetricsRegistry()
        registry.inc("b.count")
        registry.gauge_max("a.depth", 4)
        registry.observe("c.ms", 12)
        snapshot = registry.snapshot()
        assert list(snapshot) == sorted(snapshot)
        assert snapshot["b.count"] == 1
        assert snapshot["a.depth"]["max"] == 4
        assert snapshot["c.ms"]["count"] == 1

    def test_summary_lines_force_named_defaults(self):
        registry = MetricsRegistry()
        lines = registry.summary_lines(defaults=("lint.files",))
        assert any(line.startswith("lint.files: 0") for line in lines)

    def test_write_json_round_trips(self):
        registry = MetricsRegistry()
        registry.inc("a", 3)
        stream = io.StringIO()
        registry.write_json(stream)
        assert json.loads(stream.getvalue())["a"] == 3

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.reset()
        assert registry.snapshot() == {}

    def test_use_registry_isolates_and_restores(self):
        before = get_registry()
        with use_registry() as registry:
            assert get_registry() is registry
            assert registry is not before
            registry.inc("inner.only")
        assert get_registry() is before
        assert before.value("inner.only") == 0


# -- tracing --------------------------------------------------------------------------


class TestTracer:
    def test_spans_nest(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
            with tracer.span("sibling"):
                pass
        (root,) = tracer.roots
        assert root.name == "parent"
        assert [child.name for child in root.children] == ["child", "sibling"]
        assert all(child.parent_id == root.span_id for child in root.children)

    def test_jsonlines_export_parses_with_parent_links(self):
        tracer = Tracer()
        with tracer.span("a", file="x.html"):
            with tracer.span("b"):
                pass
        records = [
            json.loads(line) for line in tracer.to_jsonlines().splitlines()
        ]
        assert [r["name"] for r in records] == ["a", "b"]
        a, b = records
        assert a["parent"] is None and a["depth"] == 0
        assert b["parent"] == a["id"] and b["depth"] == 1
        assert a["attrs"] == {"file": "x.html"}
        assert a["duration_ms"] >= b["duration_ms"] >= 0

    def test_format_tree_indents_children(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        lines = tracer.format_tree().splitlines()
        assert lines[0].startswith("outer")
        assert lines[1].startswith("  inner")

    def test_annotate_adds_attributes(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            span.annotate(tokens=42)
        assert tracer.roots[0].attributes["tokens"] == 42

    def test_use_tracer_restores_previous(self):
        before = get_tracer()
        with use_tracer() as tracer:
            assert get_tracer() is tracer
            assert tracer.enabled
        assert get_tracer() is before


class TestNoopTracer:
    def test_default_tracer_is_disabled(self):
        tracer = get_tracer()
        assert isinstance(tracer, NullTracer)
        assert not tracer.enabled

    def test_null_span_is_a_shared_singleton(self):
        tracer = NullTracer()
        # No per-span allocation on the disabled path.
        assert tracer.span("a") is tracer.span("b", attr=1) is NULL_SPAN

    def test_null_span_supports_the_span_protocol(self):
        with NullTracer().span("x") as span:
            span.annotate(tokens=1)

    def test_noop_spans_are_cheap(self):
        # Sanity bound, deliberately generous to stay robust on slow CI:
        # a hundred thousand disabled spans must take well under a second.
        tracer = NullTracer()
        start = time.perf_counter()
        for _ in range(100_000):
            with tracer.span("hot"):
                pass
        assert time.perf_counter() - start < 1.0


class TestInstrumentationOverhead:
    def test_obs_off_is_not_slower_than_obs_on(self):
        """The overhead guard: with observability off (the default), a
        check must not cost more than the fully instrumented run -- the
        off path does strictly less work, so allowing a generous noise
        margin keeps this stable while still catching an accidentally
        always-on tracer or profiler."""
        pages = [
            PageGenerator(seed=index).page() for index in range(3)
        ]
        weblint = Weblint()

        def run_once() -> float:
            start = time.perf_counter()
            for page in pages:
                weblint.check_string(page)
            return time.perf_counter() - start

        weblint.check_string(pages[0])  # warm caches
        off = min(run_once() for _ in range(3))
        with use_registry(), use_tracer(), use_profiler():
            on = min(run_once() for _ in range(3))
        assert off <= on * 1.5

    def test_default_state_has_no_profiler(self):
        assert get_profiler() is None


class TestE10OverheadGuard:
    """Tier-1 guard for the <5% instrumentation-overhead budget.

    There is no uninstrumented build to diff against, so the guard
    bounds the instrumentation's own cost directly: one document's
    worth of always-on metric work (the fixed handful of counter,
    gauge and histogram updates the pipeline performs per check) must
    cost under 5% of checking the E10 benchmark document, and the E10
    throughput floor from the benchmark suite must still hold with the
    obs layer in place.
    """

    def _e10_page(self) -> str:
        from repro.workload import GeneratorConfig

        config = GeneratorConfig(paragraphs=20, images=2, tables=2, lists=2)
        return PageGenerator(seed=20, config=config).page()

    @staticmethod
    def _best_of(runs: int, fn) -> float:
        best = float("inf")
        for _ in range(runs):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    def test_per_document_obs_cost_under_5_percent(self):
        page = self._e10_page()
        weblint = Weblint()
        weblint.check_string(page)  # warm caches
        check_time = self._best_of(5, lambda: weblint.check_string(page))

        registry = MetricsRegistry()

        def per_document_obs_work():
            # Exactly what one check records: tokenizer, engine, linter.
            registry.inc("tokenizer.documents")
            registry.inc("tokenizer.tokens", 500)
            registry.inc("tokenizer.bytes", len(page))
            registry.inc("engine.documents")
            registry.gauge_max("engine.stack.high_water", 7)
            registry.inc("lint.files")
            registry.observe("lint.check_ms", 3.2)
            registry.inc("lint.diagnostics.error", 2)

        rounds = 200
        obs_time = self._best_of(
            3,
            lambda: [per_document_obs_work() for _ in range(rounds)],
        ) / rounds
        assert obs_time < check_time * 0.05, (
            f"per-document metric work ({obs_time * 1e6:.1f} us) exceeds 5% "
            f"of a document check ({check_time * 1e3:.2f} ms)"
        )

    def test_e10_throughput_floor_holds(self):
        page = self._e10_page()
        weblint = Weblint()
        weblint.check_string(page)
        elapsed = self._best_of(5, lambda: weblint.check_string(page))
        assert len(page) / 1024 / elapsed > 100, (
            "E10 throughput floor lost with observability in place"
        )


# -- profiling -----------------------------------------------------------------------


class TestRuleProfiler:
    def test_add_aggregates_per_name(self):
        profiler = RuleProfiler()
        profiler.add("bold", 0.002)
        profiler.add("bold", 0.001)
        profiler.add("img", 0.010)
        entries = {entry.name: entry for entry in profiler.top()}
        assert entries["bold"].calls == 2
        assert entries["bold"].total_seconds == pytest.approx(0.003)

    def test_top_is_sorted_by_total_time(self):
        profiler = RuleProfiler()
        profiler.add("slow", 1.0)
        profiler.add("fast", 0.1)
        profiler.add("medium", 0.5)
        assert [entry.name for entry in profiler.top(2)] == ["slow", "medium"]

    def test_render_report_lists_rules_and_messages(self):
        profiler = RuleProfiler()
        profiler.note_document()
        profiler.add("heading-order", 0.004, calls=3)
        profiler.note_message("heading-mismatch")
        report = profiler.render_report()
        assert "rule profile (1 document(s) checked)" in report
        assert "heading-order" in report
        assert "heading-mismatch" in report

    def test_timed_rule_delegates_and_records(self):
        profiler = RuleProfiler()
        weblint = Weblint()
        plain = weblint.check_string(PAPER_EXAMPLE)
        with use_profiler(profiler):
            profiled = weblint.check_string(PAPER_EXAMPLE)
        # Same diagnostics with and without the timing shim.
        assert [d.message_id for d in profiled] == [
            d.message_id for d in plain
        ]
        assert profiler.documents == 1
        assert profiler.top(), "no rule timings recorded"
        assert profiler.message_counts.get("heading-mismatch", 0) >= 1

    def test_engine_restores_unwrapped_rules(self):
        engine = Engine(options=Options.with_defaults())
        rules = list(engine.rules)
        with use_profiler():
            engine.check(PAPER_EXAMPLE)
        assert len(engine.rules) == len(rules)
        assert all(a is b for a, b in zip(engine.rules, rules))


# -- instrumented subsystems ----------------------------------------------------


class TestLintMetrics:
    def test_counters_after_one_check(self):
        weblint = Weblint()
        with use_registry() as registry:
            diagnostics = weblint.check_string(PAPER_EXAMPLE)
            assert registry.value("lint.files") == 1
            assert registry.value("tokenizer.documents") == 1
            assert registry.value("tokenizer.tokens") > 10
            assert registry.value("tokenizer.bytes") == len(PAPER_EXAMPLE)
            assert registry.value("engine.documents") == 1
            errors = sum(
                1 for d in diagnostics if d.category.value == "error"
            )
            assert registry.value("lint.diagnostics.error") == errors
            assert registry.snapshot()["lint.check_ms"]["count"] == 1

    def test_stack_high_water_tracks_nesting(self):
        weblint = Weblint()
        deep = make_document(
            "<ul><li><ul><li><ul><li>deep</li></ul></li></ul></li></ul>"
        )
        flat = make_document("<p>flat</p>")
        with use_registry() as registry:
            weblint.check_string(flat)
            shallow_depth = registry.snapshot()["engine.stack.high_water"]["max"]
        with use_registry() as registry:
            weblint.check_string(deep)
            deep_depth = registry.snapshot()["engine.stack.high_water"]["max"]
        assert deep_depth > shallow_depth >= 2

    def test_lint_trace_spans_nest_under_file(self):
        weblint = Weblint()
        with use_tracer() as tracer:
            weblint.check_string(PAPER_EXAMPLE, filename="page.html")
        (root,) = tracer.roots
        assert root.name == "lint.file"
        assert root.attributes["file"] == "page.html"
        child_names = [child.name for child in root.children]
        assert child_names == [
            "engine.tokenize", "engine.dispatch", "engine.finish",
        ]


class TestWalkerContract:
    def test_file_root_yields_just_that_file(self, tmp_path):
        page = tmp_path / "one.html"
        page.write_text(make_document("<p>x</p>"))
        assert find_html_files(page) == [page]
        assert list(iter_directories(page)) == []

    def test_missing_root_yields_nothing(self, tmp_path):
        ghost = tmp_path / "not-there"
        assert find_html_files(ghost) == []
        assert list(iter_directories(ghost)) == []

    def test_results_are_sorted_and_html_only(self, tmp_path):
        (tmp_path / "b.html").write_text("x")
        (tmp_path / "a.htm").write_text("x")
        (tmp_path / "notes.txt").write_text("x")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "c.shtml").write_text("x")
        names = [p.name for p in find_html_files(tmp_path)]
        assert names == ["a.htm", "b.html", "c.shtml"]
        # The root itself is a directory worth checking for an index.
        assert list(iter_directories(tmp_path)) == [tmp_path, sub]

    def test_discovery_is_counted(self, tmp_path):
        (tmp_path / "a.html").write_text("x")
        with use_registry() as registry:
            find_html_files(tmp_path)
            assert registry.value("site.files.discovered") == 1


class TestReporterContract:
    def _diagnostic(self) -> Diagnostic:
        return Diagnostic.build(
            "require-doctype", line=1, filename="x.html"
        )

    def test_count_accumulates_across_calls(self):
        reporter = LintReporter()
        reporter.report([self._diagnostic()])
        reporter.report([self._diagnostic(), self._diagnostic()])
        counts = reporter.count
        assert counts["total"] == 3
        assert counts["warning"] == 3

    def test_no_frame_around_nothing(self):
        stream = io.StringIO()
        text = get_reporter("verbose").report([], stream)
        assert text == ""
        assert stream.getvalue() == ""

    def test_html_reporter_empty_text(self):
        stream = io.StringIO()
        text = HTMLReporter().report([], stream)
        assert "nice page" in text
        assert stream.getvalue() == text + "\n"

    def test_html_reporter_frame_is_complete(self):
        text = HTMLReporter().report([self._diagnostic()])
        assert text.startswith('<ul class="weblint-report">')
        assert text.rstrip().endswith("problem(s) found.</p>")

    def test_stats_reporter_emits_diagnostics_and_metrics(self):
        with use_registry():
            weblint = Weblint()
            diagnostics = weblint.check_string(PAPER_EXAMPLE)
            reporter = StatsReporter()
            data = json.loads(reporter.report(diagnostics))
        assert data["diagnostics"]["total"] == len(diagnostics)
        assert data["metrics"]["lint.files"] == 1

    def test_stats_reporter_is_registered(self):
        assert isinstance(get_reporter("stats"), StatsReporter)


class TestRobotAndClientMetrics:
    class _FlakyWeb:
        """Fails the first request to each URL with a 500, then delegates."""

        def __init__(self, inner: VirtualWeb, flaky: set[str]) -> None:
            self.inner = inner
            self.flaky = set(flaky)

        def handle(self, request):
            if request.url in self.flaky:
                self.flaky.discard(request.url)
                response = self.inner.handle(request)
                return type(response)(
                    status=500, url=response.url, body="boom"
                )
            return self.inner.handle(request)

    def _web(self) -> VirtualWeb:
        web = VirtualWeb()
        web.add_page(
            "http://localhost/index.html",
            make_document('<p><a href="page1.html">next page</a></p>'),
        )
        web.add_page(
            "http://localhost/page1.html", make_document("<p>end</p>")
        )
        return web

    def test_client_counts_requests_and_latency(self):
        agent = UserAgent(self._web())
        with use_registry() as registry:
            agent.get("http://localhost/index.html")
            assert registry.value("www.requests") == 1
            assert registry.value("www.bytes_fetched") > 0
            assert registry.snapshot()["www.fetch.latency_ms"]["count"] == 1

    def test_crawl_records_latency_and_retries(self):
        web = self._FlakyWeb(
            self._web(), flaky={"http://localhost/page1.html"}
        )
        robot = Robot(
            UserAgent(web, retry=RetryPolicy(max_retries=1, backoff_base_s=0)),
            policy=TraversalPolicy(obey_robots_txt=False),
        )
        with use_registry() as registry:
            visited = robot.crawl("http://localhost/index.html")
            assert len(visited) == 2
            assert registry.value("robot.pages.fetched") == 2
            assert registry.value("www.retry.attempts") == 1
            assert registry.value("robot.fetch.failures") == 0
            latency = registry.snapshot()["robot.fetch.latency_ms"]
            assert latency["count"] == 2
        # Per-URL latency is bounded: a slowest-N list, not a dict that
        # grows with the site.
        assert set(url for url, _ms in robot.stats.slowest()) == set(visited)
        assert all(ms >= 0.0 for _url, ms in robot.stats.slowest())

    def test_failed_fetch_counts_failure(self):
        web = VirtualWeb()  # completely empty: everything 404s
        robot = Robot(
            UserAgent(web), policy=TraversalPolicy(obey_robots_txt=False)
        )
        with use_registry() as registry:
            robot.crawl("http://localhost/missing.html")
            # A 404 is an HTTP error, not a transport failure.
            assert registry.value("robot.fetch.http_errors") == 1
            assert registry.value("robot.fetch.failures") == 0
            assert registry.value("robot.pages.fetched") == 0

    def test_transport_failure_counts_failure(self):
        web = VirtualWeb()
        web.kill_host("localhost")
        robot = Robot(
            UserAgent(web), policy=TraversalPolicy(obey_robots_txt=False)
        )
        with use_registry() as registry:
            robot.crawl("http://localhost/missing.html")
            assert registry.value("robot.fetch.failures") == 1
            assert registry.value("robot.fetch.http_errors") == 0


# -- the pathological workload profile ----------------------------------------


class TestPathologicalCorpus:
    def test_seed_stable(self):
        first = PageGenerator(seed=7).pathological_page()
        second = PageGenerator(seed=7).pathological_page()
        assert first == second
        assert PageGenerator(seed=8).pathological_page() != first

    def test_corpus_builder_is_stable(self):
        assert build_pathological_corpus(3, seed=1) == build_pathological_corpus(
            3, seed=1
        )
        assert len(build_pathological_corpus(3)) == 3

    def test_pages_are_actually_pathological(self):
        weblint = Weblint()
        page = PageGenerator(seed=0).pathological_page(
            table_depth=10, unclosed_tags=6
        )
        with use_registry() as registry:
            diagnostics = weblint.check_string(page)
            depth = registry.snapshot()["engine.stack.high_water"]["max"]
        ids = {d.message_id for d in diagnostics}
        assert "unclosed-element" in ids
        assert len(diagnostics) > 20
        # Ten nested tables open TABLE+TR+TD each.
        assert depth >= 30
