"""The continuous telemetry pipeline: events, export, ledger, progress.

Everything here runs with injected clocks, so windowed rates, event
timestamps, the OpenMetrics exposition and the ``--progress`` line are
byte-deterministic -- the golden assertions below are exact string
comparisons, not regexes.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

import pytest

from repro.obs import (
    EventLog,
    MetricsRegistry,
    NULL_EVENT_LOG,
    RunLedger,
    TelemetrySink,
    Ticker,
    Tracer,
    get_event_log,
    get_registry,
    record_run,
    render_openmetrics,
    run_scope,
    summarize_run,
    use_event_log,
    use_registry,
    use_tracer,
)
from repro.tools.compare_runs import compare, load_records
from repro.tools.compare_runs import main as compare_main


class FakeClock:
    """An injectable clock tests advance by hand."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# Events


class TestEventLog:
    def test_emit_writes_json_lines(self):
        stream = io.StringIO()
        log = EventLog(stream=stream, clock=FakeClock(5.0))
        log.emit("crawl.start", url="http://localhost/")
        assert json.loads(stream.getvalue()) == {
            "t": 5.0, "event": "crawl.start", "level": "info",
            "url": "http://localhost/",
        }

    def test_level_threshold_drops_quiet_events(self):
        log = EventLog(level="warn", clock=FakeClock())
        log.emit("chatty", level="debug")
        log.emit("normal", level="info")
        log.emit("loud", level="error")
        assert [r["event"] for r in log.records] == ["loud"]

    def test_sampling_keeps_first_and_counts_drops(self):
        with use_registry() as registry:
            log = EventLog(sample={"hot": 10}, clock=FakeClock())
            for _ in range(25):
                log.emit("hot")
            assert len(log.records) == 3  # occurrences 1, 11, 21
            assert registry.value("obs.events.sampled_out") == 22
            assert registry.value("obs.events.emitted") == 3

    def test_slow_op_threshold(self):
        log = EventLog(slow_ms=100.0, clock=FakeClock(1.0))
        log.note_operation("lint.file", 50.0, file="fast.html")
        log.note_operation("lint.file", 150.0, file="slow.html")
        assert len(log.records) == 1
        record = log.records[0]
        assert record["event"] == "slow_op"
        assert record["level"] == "warn"
        assert record["op"] == "lint.file"
        assert record["duration_ms"] == 150.0
        assert record["file"] == "slow.html"

    def test_non_scalar_fields_stringified(self):
        log = EventLog(clock=FakeClock())
        log.emit("x", payload=["a", "b"])
        assert log.records[0]["payload"] == "['a', 'b']"

    def test_bounded_in_memory_records(self):
        log = EventLog(clock=FakeClock(), max_records=5)
        for index in range(12):
            log.emit("e", n=index)
        assert [r["n"] for r in log.records] == [7, 8, 9, 10, 11]

    def test_null_log_is_default_and_inert(self):
        assert get_event_log() is NULL_EVENT_LOG
        NULL_EVENT_LOG.emit("ignored")
        NULL_EVENT_LOG.note_operation("ignored", 1e9)
        with use_event_log() as log:
            assert get_event_log() is log
        assert get_event_log() is NULL_EVENT_LOG

    def test_traced_spans_feed_the_slow_op_log(self):
        with use_event_log(EventLog(slow_ms=0.0, clock=FakeClock())) as log:
            with use_tracer() as tracer:
                with tracer.span("phase.parse", file="x.html"):
                    pass
        events = [r for r in log.records if r["event"] == "slow_op"]
        assert [r["op"] for r in events] == ["phase.parse"]
        assert events[0]["file"] == "x.html"

    @pytest.mark.parametrize("traced", [False, True])
    def test_one_slow_op_per_slow_lint(self, traced):
        """A slow lint logs one ``lint.file`` slow_op: its span's when a
        tracer records, the service's own when none does."""
        from repro.core.service import LintRequest, LintService, StringSource

        request = LintRequest(StringSource("<p>slow</p>", name="x.html"))
        with use_event_log(EventLog(slow_ms=0.0, clock=FakeClock())) as log:
            with use_tracer() if traced else contextlib.nullcontext():
                LintService().check(request)
        slow = [r for r in log.records if r["event"] == "slow_op"]
        assert [r["file"] for r in slow if r["op"] == "lint.file"] == ["x.html"]


# ---------------------------------------------------------------------------
# OpenMetrics export


class TestRenderOpenMetrics:
    def test_golden_exposition(self):
        registry = MetricsRegistry()
        registry.inc("lint.files", 3)
        registry.gauge_max("robot.frontier.queue_depth", 7)
        histogram = registry.histogram("lint.check_ms", buckets=(1, 5, 10))
        for value in (0.5, 4.0, 6.0, 42.0):
            histogram.observe(value)
        assert render_openmetrics(registry.snapshot()) == (
            "# TYPE lint_check_ms histogram\n"
            'lint_check_ms_bucket{le="1"} 1\n'
            'lint_check_ms_bucket{le="5"} 2\n'
            'lint_check_ms_bucket{le="10"} 3\n'
            'lint_check_ms_bucket{le="+Inf"} 4\n'
            "lint_check_ms_sum 52.5\n"
            "lint_check_ms_count 4\n"
            "# TYPE lint_files counter\n"
            "lint_files_total 3\n"
            "# TYPE robot_frontier_queue_depth gauge\n"
            "robot_frontier_queue_depth 7\n"
            "robot_frontier_queue_depth_max 7\n"
            "# EOF\n"
        )

    def test_rendering_is_deterministic(self):
        registry = MetricsRegistry()
        registry.inc("b")
        registry.inc("a")
        registry.observe("h_ms", 3.0)
        first = render_openmetrics(registry.snapshot())
        second = render_openmetrics(registry.snapshot())
        assert first == second
        assert first.index("# TYPE a counter") < first.index("# TYPE b counter")

    def test_metric_names_sanitized(self):
        registry = MetricsRegistry()
        registry.inc("robot.fetch.latency-weird name")
        text = render_openmetrics(registry.snapshot())
        assert "robot_fetch_latency_weird_name_total 1" in text


class TestTelemetrySink:
    def test_flush_writes_jsonl_and_prom(self, tmp_path):
        sink = TelemetrySink(tmp_path / "tele", clock=FakeClock(50.0))
        registry = MetricsRegistry()
        registry.inc("lint.files", 2)
        sink.flush(registry)
        registry.inc("lint.files", 1)
        sink.flush(registry)
        lines = (tmp_path / "tele" / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["metrics"]["lint.files"] == 2
        assert json.loads(lines[1])["metrics"]["lint.files"] == 3
        prom = (tmp_path / "tele" / "metrics.prom").read_text()
        assert "lint_files_total 3" in prom
        assert prom.endswith("# EOF\n")

    def test_open_event_log_streams_to_events_jsonl(self, tmp_path):
        sink = TelemetrySink(tmp_path, clock=FakeClock(9.0))
        log = sink.open_event_log()
        log.emit("crawl.start")
        sink.close()
        record = json.loads((tmp_path / "events.jsonl").read_text())
        assert record == {"t": 9.0, "event": "crawl.start", "level": "info"}

    def test_events_reach_disk_while_the_sink_is_open(self, tmp_path):
        # A daemon's events must be readable while it serves, and a
        # killed process must not take its buffered events with it.
        sink = TelemetrySink(tmp_path, clock=FakeClock(9.0))
        log = sink.open_event_log()
        log.emit("daemon.started", workers=2)
        try:
            text = (tmp_path / "events.jsonl").read_text()
        finally:
            sink.close()
        assert json.loads(text) == {
            "t": 9.0, "event": "daemon.started", "level": "info", "workers": 2,
        }

    def test_ticker_fires_final_tick_on_stop(self):
        calls = []
        ticker = Ticker(60.0, lambda: calls.append(1))
        ticker.start()
        ticker.stop()
        assert len(calls) == 1  # the final tick; the interval never elapsed

    def test_ticker_swallows_callback_errors(self):
        def boom() -> None:
            raise RuntimeError("telemetry must never take the run down")

        ticker = Ticker(60.0, boom)
        ticker.tick()  # must not raise


# ---------------------------------------------------------------------------
# Ledger + compare_runs


def _snapshot_for_run(files: int, latencies: list[float]) -> dict[str, object]:
    registry = MetricsRegistry()
    registry.inc("lint.files", files)
    registry.inc("lint.diagnostics.error", files * 2)
    for value in latencies:
        registry.observe("lint.check_ms", value)
    return registry.snapshot()


class TestRunLedger:
    def test_summarize_run_scalars(self):
        record = summarize_run(
            _snapshot_for_run(4, [1.0, 2.0, 3.0, 4.0]),
            tool="weblint", wall_s=2.0, started_unix=123.0,
        )
        assert record["tool"] == "weblint"
        assert record["documents"] == 4
        assert record["diagnostics"] == 8
        assert record["docs_per_s"] == 2.0
        assert record["error_rate"] == 0.0
        assert record["lint_p95_ms"] > 0

    def test_append_stamps_run_sequence(self, tmp_path):
        ledger = RunLedger(tmp_path)
        first = ledger.append({"tool": "weblint", "wall_s": 1.0})
        second = ledger.append({"tool": "weblint", "wall_s": 2.0})
        assert (first["run"], second["run"]) == (1, 2)
        assert [r["run"] for r in ledger.load()] == [1, 2]

    def test_load_skips_corrupt_lines(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append({"tool": "weblint"})
        with ledger.path.open("a") as handle:
            handle.write("{not json\n")
        ledger.append({"tool": "weblint"})
        assert len(ledger.load()) == 2

    def test_torn_last_line_keeps_the_next_run(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for _ in range(4):
            ledger.append({"tool": "poacher"})
        data = ledger.path.read_bytes()
        fourth = data[:-1].rfind(b"\n") + 1
        # A crash cut record 4 in half; the next run must not be glued
        # onto the fragment and lost with it.
        ledger.path.write_bytes(data[: fourth + (len(data) - fourth) // 2])
        fifth = ledger.append({"tool": "poacher", "wall_s": 5.0})
        assert fifth["run"] == 4
        assert [r["run"] for r in ledger.load()] == [1, 2, 3, 4]
        assert ledger.load()[-1] == fifth

    def test_record_run_convenience(self, tmp_path):
        stamped = record_run(
            tmp_path, _snapshot_for_run(1, [1.0]), "weblint", 0.5,
            clock=FakeClock(77.0),
        )
        assert stamped["run"] == 1
        assert stamped["started_unix"] == 77.0
        assert RunLedger(tmp_path).last(1) == [stamped]


# ---------------------------------------------------------------------------
# Run scope


class TestRunScope:
    def test_installs_a_fresh_registry_then_restores(self):
        before = get_registry()
        with run_scope("weblint") as run:
            assert get_registry() is run.registry
            assert run.registry is not before
        assert get_registry() is before

    def test_state_dir_wins_over_telemetry_dir_for_the_ledger(self, tmp_path):
        state, tele = tmp_path / "state", tmp_path / "tele"
        with run_scope("poacher", state_dir=state, telemetry_dir=tele) as run:
            run.registry.inc("lint.files", 3)
        assert not (tele / "runs.jsonl").exists()
        [record] = RunLedger(state).load()
        assert record["tool"] == "poacher"
        assert record["documents"] == 3
        assert record["wall_s"] == round(run.wall_s, 4)
        with run_scope("weblint", telemetry_dir=tele):
            pass
        assert [r["tool"] for r in RunLedger(tele).load()] == ["weblint"]

    def test_no_dir_writes_no_ledger(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with run_scope("weblint") as run:
            run.registry.inc("lint.files")
        assert list(tmp_path.iterdir()) == []

    def test_wall_time_covers_the_scope_then_stops(self):
        with run_scope("weblint") as run:
            time.sleep(0.02)
        wall = run.wall_s
        time.sleep(0.02)
        assert 0.02 <= wall == run.wall_s

    def test_body_that_raises_writes_no_ledger_but_closes_the_sink(
        self, tmp_path
    ):
        state, tele = tmp_path / "state", tmp_path / "tele"
        before, events_before = get_registry(), get_event_log()
        with pytest.raises(RuntimeError, match="crawl died"):
            with run_scope(
                "poacher", state_dir=state, telemetry_dir=tele
            ) as run:
                run.registry.inc("lint.files")
                raise RuntimeError("crawl died")
        assert not (state / "runs.jsonl").exists()
        assert not (tele / "runs.jsonl").exists()
        prom = (tele / "metrics.prom").read_text()
        assert "lint_files_total 1" in prom
        assert prom.endswith("# EOF\n")
        assert len((tele / "metrics.jsonl").read_text().splitlines()) == 1
        assert get_registry() is before
        assert get_event_log() is events_before

    def test_event_log_only_with_a_telemetry_dir(self, tmp_path):
        before = get_event_log()
        with run_scope("weblint-daemon", state_dir=tmp_path / "state"):
            assert get_event_log() is before
        with run_scope("weblint-daemon", telemetry_dir=tmp_path / "tele"):
            log = get_event_log()
            assert log is not before and log.enabled
            log.emit("daemon.started")
        assert get_event_log() is before
        events = (tmp_path / "tele" / "events.jsonl").read_text()
        assert json.loads(events)["event"] == "daemon.started"


class TestCompareRuns:
    def test_throughput_drop_is_a_regression(self):
        _lines, regressions = compare(
            {"docs_per_s": 100.0}, {"docs_per_s": 80.0}, max_regression=0.10
        )
        assert regressions == ["docs_per_s"]

    def test_small_drift_tolerated(self):
        _lines, regressions = compare(
            {"docs_per_s": 100.0, "lint_p95_ms": 10.0},
            {"docs_per_s": 95.0, "lint_p95_ms": 10.5},
            max_regression=0.10,
        )
        assert regressions == []

    def test_latency_rise_is_a_regression(self):
        _lines, regressions = compare(
            {"lint_p95_ms": 10.0}, {"lint_p95_ms": 15.0}
        )
        assert regressions == ["lint_p95_ms"]

    def test_new_errors_are_a_regression(self):
        _lines, regressions = compare({"errors": 0}, {"errors": 3})
        assert regressions == ["errors"]

    def test_portable_only_ignores_wall_clock(self):
        _lines, regressions = compare(
            {"documents": 10, "wall_s": 1.0},
            {"documents": 10, "wall_s": 9.0},
            portable_only=True,
        )
        assert regressions == []

    def test_portable_only_flags_changed_counts(self):
        _lines, regressions = compare(
            {"documents": 10}, {"documents": 9}, portable_only=True
        )
        assert regressions == ["documents"]

    def test_portable_only_gates_hook_calls_exactly(self):
        # E14's dispatch count: a widened subscription raises it, and a
        # narrowing must come with a refreshed baseline.
        for current in (1723, 1721):
            _lines, regressions = compare(
                {"e14_compiled.hook_calls": 1722, "e14_compiled.check_ms": 9.0},
                {"e14_compiled.hook_calls": current, "e14_compiled.check_ms": 20.0},
                portable_only=True,
            )
            assert regressions == ["e14_compiled.hook_calls"]

    def test_cli_on_ledger(self, tmp_path, capsys):
        ledger = RunLedger(tmp_path)
        ledger.append({"tool": "weblint", "docs_per_s": 100.0})
        ledger.append({"tool": "weblint", "docs_per_s": 50.0})
        code = compare_main([str(ledger.path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSION" in out
        assert "docs_per_s" in out

    def test_cli_clean_exit(self, tmp_path, capsys):
        ledger = RunLedger(tmp_path)
        ledger.append({"tool": "weblint", "docs_per_s": 100.0})
        ledger.append({"tool": "weblint", "docs_per_s": 101.0})
        assert compare_main([str(ledger.path)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_cli_needs_two_runs(self, tmp_path, capsys):
        ledger = RunLedger(tmp_path)
        ledger.append({"tool": "weblint"})
        assert compare_main([str(ledger.path)]) == 2

    def test_load_records_flattens_bench_artefacts(self, tmp_path):
        bench = tmp_path / "BENCH_x.json"
        bench.write_text(json.dumps({
            "generated_unix": 1.0,
            "results": {"e18": {"docs_per_s": 40.0, "overhead_pct": 1.2}},
        }))
        (records,) = (load_records(bench),)
        assert records == [{"e18.docs_per_s": 40.0, "e18.overhead_pct": 1.2}]

    def test_cli_compares_bench_files(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps({"results": {"e18": {"docs_per_s": 100.0}}}))
        new.write_text(json.dumps({"results": {"e18": {"docs_per_s": 50.0}}}))
        assert compare_main([str(old), str(new)]) == 1


# ---------------------------------------------------------------------------
# Histogram percentiles + adversarial merges


class TestHistogramPercentiles:
    def test_interpolated_percentiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_ms", buckets=(10, 20, 50, 100))
        for value in (5, 15, 15, 40, 90):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert 10 <= snap["p50"] <= 20
        assert 50 < snap["p95"] <= 90
        assert snap["p99"] <= snap["max"] == 90

    def test_empty_histogram_percentiles_are_zero(self):
        histogram = MetricsRegistry().histogram("h_ms")
        assert histogram.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_percentile_clamped_to_observed_max(self):
        histogram = MetricsRegistry().histogram("h_ms", buckets=(100,))
        histogram.observe(3.0)
        assert histogram.percentile(99) <= 3.0

    def test_summary_lines_carry_percentiles(self):
        registry = MetricsRegistry()
        registry.observe("lint.check_ms", 4.0)
        (line,) = registry.summary_lines()
        assert line.startswith("lint.check_ms: count=1")
        assert "p50=" in line and "p95=" in line and "p99=" in line

    def test_merge_preserves_percentiles(self):
        worker = MetricsRegistry()
        for value in (1.0, 2.0, 100.0, 200.0):
            worker.observe("h_ms", value)
        parent = MetricsRegistry()
        parent.merge_snapshot(worker.snapshot())
        assert (
            parent.histogram("h_ms").percentiles()
            == worker.histogram("h_ms").percentiles()
        )


class TestAdversarialMerges:
    def test_merge_snapshot_mismatched_bucket_layouts(self):
        # A snapshot recorded with coarser buckets than the local
        # histogram: counts under unknown bounds must land in overflow,
        # never be dropped, and sum/count/max must stay exact.
        parent = MetricsRegistry()
        local = parent.histogram("h_ms", buckets=(1, 2, 5))
        local.observe(1.5)
        foreign = {
            "h_ms": {
                "count": 3, "sum": 30.0, "mean": 10.0, "max": 25.0,
                "buckets": {"le_10": 2, "le_100": 1}, "overflow": 0,
            }
        }
        parent.merge_snapshot(foreign)
        merged = parent.histogram("h_ms")
        assert merged.count == 4
        assert merged.total == pytest.approx(31.5)
        assert merged.max == 25.0
        # All three foreign observations sit beyond the local bounds.
        assert merged.overflow == 3
        assert sum(merged.counts) == 1

    def test_merge_snapshot_ignores_bools_and_unknown_shapes(self):
        parent = MetricsRegistry()
        parent.merge_snapshot({
            "flag": True,
            "weird": {"neither": 1},
            "count": 2,
        })
        snapshot = parent.snapshot()
        assert snapshot == {"count": 2}

    def test_merge_records_preserves_document_order_and_nesting(self):
        worker = Tracer()
        with worker.span("parent", file="a.html"):
            with worker.span("child.first"):
                pass
            with worker.span("child.second"):
                pass
        with worker.span("sibling"):
            pass
        exported = worker.to_records()

        merged = Tracer()
        with merged.span("local.before"):
            pass
        merged.merge_records(exported)

        walk = [(span.name, depth) for span, depth in merged.iter_spans()]
        assert walk == [
            ("local.before", 0),
            ("parent", 0),
            ("child.first", 1),
            ("child.second", 1),
            ("sibling", 0),
        ]
        # Grafted ids must not collide with local ones.
        ids = [span.span_id for span, _depth in merged.iter_spans()]
        assert len(ids) == len(set(ids))

    def test_merge_records_orphan_parent_becomes_root(self):
        merged = Tracer()
        merged.merge_records([
            {"name": "lost.child", "id": 7, "parent": 99,
             "depth": 1, "start_ms": 0.0, "duration_ms": 1.0, "attrs": {}},
        ])
        assert [span.name for span in merged.roots] == ["lost.child"]


# ---------------------------------------------------------------------------
# Live crawl progress


class _FakeScheduler:
    """Just enough scheduler surface for render_line: queue + slots."""

    def __init__(self, queued, busiest=None):
        self.queued = queued
        self._busiest = busiest

    def busiest_slot(self):
        return self._busiest


def _progress_fixture(clock: FakeClock):
    from repro.robot.traversal import CrawlProgress, Robot
    from repro.www.client import UserAgent
    from repro.www.virtualweb import VirtualWeb

    robot = Robot(UserAgent(VirtualWeb()))
    progress = CrawlProgress(robot, io.StringIO(), clock=clock, window_s=10)
    robot.stats.pages_fetched = 12
    robot.stats.pages_failed = 1
    robot.stats.pages_http_error = 1
    robot._in_flight = 3
    robot._scheduler = _FakeScheduler(21, busiest=("h", 2, 4))
    return robot, progress


class TestCrawlProgress:
    def test_render_line_golden(self):
        clock = FakeClock(100.0)
        _robot, progress = _progress_fixture(clock)
        with use_registry() as registry:
            registry.inc("cache.lint.hits", 3)
            registry.inc("cache.lint.misses", 1)
            # 2 pages/s over the 10s window ending at t=109.
            for second in range(100, 110):
                clock.now = second
                registry.inc("robot.pages.fetched", 2)
                progress.tick()
            line = progress.render_line(t=109.0)
        assert line == (
            "crawl: 12 done, 3 in flight, 2 failed | 2.0 pages/s | "
            "cache hits 75% | slots h:2/4 | ETA 12s"
        )

    def test_render_line_idle_and_empty(self):
        clock = FakeClock(100.0)
        robot, progress = _progress_fixture(clock)
        with use_registry():
            robot._scheduler = None
            robot._in_flight = 0
            assert progress.render_line(t=100.0) == (
                "crawl: 12 done, 0 in flight, 2 failed | 0.0 pages/s | "
                "cache hits 0% | ETA 0s"
            )
            robot._in_flight = 4
            # Work remaining but no observed rate yet: unknown ETA.
            assert progress.render_line(t=100.0).endswith("ETA ?")

    def test_tick_rewrites_one_line(self):
        clock = FakeClock(100.0)
        _robot, progress = _progress_fixture(clock)
        with use_registry():
            progress.tick()
            clock.advance(1.0)
            progress.tick()
        text = progress.stream.getvalue()
        assert text.count("\r") == 2
        assert "\n" not in text

    def test_tick_samples_registry_counters(self):
        clock = FakeClock(100.0)
        _robot, progress = _progress_fixture(clock)
        with use_registry() as registry:
            registry.inc("robot.pages.fetched", 5)
            progress.tick()
        # 5 pages in the 10s window.
        assert "| 0.5 pages/s |" in progress.stream.getvalue()

    def test_crawl_runs_the_progress_ticker(self):
        from repro.robot.traversal import CrawlProgress, Robot
        from repro.www.client import UserAgent
        from repro.www.virtualweb import VirtualWeb

        web = VirtualWeb()
        web.add_page("http://localhost/index.html", "<html></html>")
        robot = Robot(UserAgent(web))
        stream = io.StringIO()
        with use_registry():
            progress = CrawlProgress(robot, stream, interval_s=60.0)
            robot.crawl("http://localhost/index.html", progress=progress)
        text = stream.getvalue()
        # At least the final tick ran, and stop() terminated the line.
        assert "crawl: 1 done, 0 in flight, 0 failed" in text
        assert text.endswith("\n")


# ---------------------------------------------------------------------------
# Gateway surfaces


class TestGatewaySurfaces:
    def test_stats_table_shows_percentiles(self):
        from repro.gateway.htmlreport import render_stats_table

        registry = MetricsRegistry()
        registry.observe("lint.check_ms", 5.0)
        table = render_stats_table(registry.snapshot())
        assert "p50" in table and "p95" in table and "p99" in table

    def test_stats_table_escapes_names_and_values(self):
        from repro.gateway.htmlreport import render_stats_table

        table = render_stats_table({
            '<script>alert("name")</script>': 1,
            "gauge<b>": {"value": 2.0, "max": 3.0},
        })
        assert "<script>" not in table
        assert "<b>" not in table
        assert "&lt;script&gt;" in table

    def test_http_server_metrics_endpoint(self):
        from repro.www.server import HTTPServer, http_get
        from repro.www.virtualweb import VirtualWeb

        web = VirtualWeb()
        web.add_page("http://localhost/index.html", "<html></html>")
        with use_registry() as registry:
            registry.inc("lint.files", 5)
            with HTTPServer(web) as server:
                status, headers, body = http_get(f"{server.base_url}/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        assert "lint_files_total 5" in body
        assert body.endswith("# EOF\n")

    def test_http_server_metrics_endpoint_disableable(self):
        from repro.www.server import HTTPServer, http_get
        from repro.www.virtualweb import VirtualWeb

        with HTTPServer(VirtualWeb(), metrics_path=None) as server:
            status, _headers, _body = http_get(f"{server.base_url}/metrics")
        assert status == 404
