"""E18 -- the cost of always-on telemetry (continuous observability).

The telemetry pipeline (docs/observability.md) is designed so a run can
keep the windowed time-series and the structured event log *armed* the
whole time: per document the hot path pays two global reads, one ring-
buffer add and one level check -- no I/O unless something is slow or
notable.  This benchmark holds that claim against the E10 corpus:

- throughput with telemetry armed (time-series installed, event log
  streaming at ``info`` level, progress off) must be within 3% of the
  bare-metrics baseline;
- the OpenMetrics exposition of the armed run renders deterministically.

``BENCH_telemetry.json`` records both throughputs and the measured
overhead so ``python -m repro.tools.compare_runs`` can track the cost
across PRs.
"""

from __future__ import annotations

import io
import time

from repro.core.service import LintService, StringSource
from repro.obs import (
    EventLog,
    TimeSeries,
    render_openmetrics,
    use_event_log,
    use_registry,
    use_timeseries,
)
from repro.workload import GeneratorConfig, PageGenerator

from conftest import print_table, record

#: Overhead budget for armed telemetry, as a fraction of baseline time.
MAX_OVERHEAD = 0.03

#: Documents checked per timed pass.
DOCS_PER_PASS = 30


def _corpus() -> list[str]:
    config = GeneratorConfig(paragraphs=20, images=2, tables=2, lists=2)
    return [
        PageGenerator(seed=seed, config=config).page()
        for seed in range(DOCS_PER_PASS)
    ]


def _timed_pass(service: LintService, corpus: list[str]) -> float:
    start = time.perf_counter()
    for index, page in enumerate(corpus):
        service.check(StringSource(page, name=f"doc{index}.html"))
    return time.perf_counter() - start


def _best_of(runs: int, service: LintService, corpus: list[str]) -> float:
    return min(_timed_pass(service, corpus) for _ in range(runs))


def test_e18_telemetry_overhead(benchmark):
    corpus = _corpus()
    service = LintService()
    corpus_bytes = sum(len(page) for page in corpus)

    # Warm every cache (dispatch tables, spec) before timing anything.
    with use_registry():
        _timed_pass(service, corpus)

    with use_registry():
        baseline_s = _best_of(5, service, corpus)

    events_stream = io.StringIO()
    with use_registry() as registry:
        with use_timeseries(TimeSeries()) as series, use_event_log(
            EventLog(stream=events_stream, level="info")
        ):
            armed_s = _best_of(5, service, corpus)
        armed_snapshot = registry.snapshot()

    benchmark(service.check, StringSource(corpus[0], name="bench.html"))

    overhead = (armed_s - baseline_s) / baseline_s
    assert overhead < MAX_OVERHEAD, (
        f"armed telemetry costs {overhead * 100:.2f}% "
        f"(budget {MAX_OVERHEAD * 100:.0f}%): "
        f"baseline {baseline_s * 1000:.2f} ms, armed {armed_s * 1000:.2f} ms"
    )

    # The armed run really was armed: every check landed in the ring
    # buffers, and no per-document event paid for I/O (debug-level
    # lint.file events drop before formatting; nothing was slow).
    _total, windowed_count = series.series["lint.check_ms"].totals(
        series.clock()
    )
    assert windowed_count >= DOCS_PER_PASS
    assert armed_snapshot["lint.files"] >= DOCS_PER_PASS
    assert events_stream.getvalue() == ""

    # The exposition of the armed run is byte-deterministic.
    assert render_openmetrics(armed_snapshot) == render_openmetrics(
        armed_snapshot
    )
    assert render_openmetrics(armed_snapshot).endswith("# EOF\n")

    baseline_kb_s = corpus_bytes / 1024 / baseline_s
    armed_kb_s = corpus_bytes / 1024 / armed_s
    record(
        "BENCH_telemetry.json",
        "e18_telemetry",
        docs=DOCS_PER_PASS,
        corpus_kb=round(corpus_bytes / 1024, 1),
        baseline_kb_per_s=round(baseline_kb_s, 1),
        armed_kb_per_s=round(armed_kb_s, 1),
        overhead_pct=round(overhead * 100, 3),
        budget_pct=MAX_OVERHEAD * 100,
    )

    print_table(
        "E18: always-on telemetry overhead (E10 corpus)",
        [
            ("bare metrics", f"{baseline_s * 1000:.2f} ms",
             f"{baseline_kb_s:.0f} KB/s"),
            ("armed (series + events)", f"{armed_s * 1000:.2f} ms",
             f"{armed_kb_s:.0f} KB/s"),
            ("overhead", f"{overhead * 100:+.2f}%",
             f"budget {MAX_OVERHEAD * 100:.0f}%"),
        ],
        headers=("configuration", f"{DOCS_PER_PASS} docs", "throughput"),
    )
