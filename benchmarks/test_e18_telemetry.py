"""E18 -- the cost of always-on telemetry (continuous observability).

The telemetry pipeline (docs/observability.md) is designed so a run can
keep the structured event log *armed* the whole time: per document the
hot path pays one global read and one level check -- no I/O unless
something is slow or notable.  This benchmark holds that claim against
the E10 corpus:

- throughput with telemetry armed (the event log streaming at ``info``
  level, as ``--telemetry-dir`` arms it) must be within 3% of the
  bare-metrics baseline;
- the OpenMetrics exposition of the armed run renders deterministically.

The two sides are timed as interleaved pairs of passes, alternating
which side runs first, and the budget holds the *median* per-pair
overhead: a best-of-N of each side taken one after the other reads
drift of the host as overhead (the committed figure once read -7.4%).

``BENCH_telemetry.json`` records both throughputs and the measured
overhead so ``python -m repro.tools.compare_runs`` can track the cost
across PRs.
"""

from __future__ import annotations

import io
import statistics
import time

from repro.core.service import LintService, StringSource
from repro.obs import (
    EventLog,
    MetricsRegistry,
    render_openmetrics,
    use_event_log,
    use_registry,
)
from repro.workload import GeneratorConfig, PageGenerator

from conftest import print_table, record

#: Overhead budget for armed telemetry, as a fraction of baseline time.
MAX_OVERHEAD = 0.03

#: Documents checked per timed pass.
DOCS_PER_PASS = 30

#: Interleaved baseline/armed pass pairs; odd, so the median is a pair.
PAIRS = 21


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


def test_e18_telemetry_overhead(benchmark):
    corpus = _corpus()
    service = LintService()
    corpus_bytes = sum(len(page) for page in corpus)

    # Warm every cache (dispatch tables, spec) before timing anything.
    with use_registry():
        _timed_pass(service, corpus)

    events_stream = io.StringIO()
    armed_log = EventLog(stream=events_stream, level="info")
    baseline_registry = MetricsRegistry()
    armed_registry = MetricsRegistry()
    baseline_times: list[float] = []
    armed_times: list[float] = []
    for pair in range(PAIRS):
        for armed in (False, True) if pair % 2 == 0 else (True, False):
            if armed:
                with use_registry(armed_registry), use_event_log(armed_log):
                    armed_times.append(_timed_pass(service, corpus))
            else:
                with use_registry(baseline_registry):
                    baseline_times.append(_timed_pass(service, corpus))
    armed_snapshot = armed_registry.snapshot()

    benchmark(service.check, StringSource(corpus[0], name="bench.html"))

    overhead = statistics.median(
        (armed - baseline) / baseline
        for baseline, armed in zip(baseline_times, armed_times)
    )
    baseline_s = statistics.median(baseline_times)
    armed_s = statistics.median(armed_times)
    assert overhead < MAX_OVERHEAD, (
        f"armed telemetry costs {overhead * 100:.2f}% over {PAIRS} pairs "
        f"(median; budget {MAX_OVERHEAD * 100:.0f}%): "
        f"baseline {baseline_s * 1000:.2f} ms, armed {armed_s * 1000:.2f} ms"
    )

    # The armed passes really were armed and checked every document,
    # and no per-document event paid for I/O (debug-level lint.file
    # events drop before formatting; nothing was slow).
    assert armed_snapshot["lint.files"] == DOCS_PER_PASS * PAIRS
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
            ("armed (event log at info)", f"{armed_s * 1000:.2f} ms",
             f"{armed_kb_s:.0f} KB/s"),
            ("overhead (median pair)", f"{overhead * 100:+.2f}%",
             f"budget {MAX_OVERHEAD * 100:.0f}%"),
        ],
        headers=(
            "configuration", f"{DOCS_PER_PASS} docs, median of {PAIRS}",
            "throughput",
        ),
    )
