"""``repro.obs`` -- the checker's continuous telemetry pipeline.

Layered cheapest-first:

- **metrics** (always on): process-local counters/gauges/histograms in a
  :class:`~repro.obs.metrics.MetricsRegistry`; instrumented code records
  a handful of values per document, never per token.  Histograms expose
  interpolated p50/p95/p99 estimates.
- **events** (off by default): a levelled, sampled JSON-lines event log
  via :func:`~repro.obs.events.get_event_log`, including the automatic
  ``slow_op`` log for any instrumented duration over a threshold.
- **traces** (off by default): hierarchical spans via
  ``get_tracer().span(...)``; the default :class:`~repro.obs.trace.NullTracer`
  hands back one shared no-op span so disabled call sites do no work.
- **profiles** (off by default): per-rule timing and per-message-id
  counts via a :class:`~repro.obs.profile.RuleProfiler`.

Export surfaces live in :mod:`repro.obs.export` (OpenMetrics text,
``--telemetry-dir`` sinks) and :mod:`repro.obs.ledger` (the cross-run
``runs.jsonl`` ledger).  :func:`~repro.obs.run.run_scope` ties them to
one tool run: ``weblint``, ``poacher`` and ``weblint-daemon`` each run
inside it.  See docs/observability.md for the metric/event namespace
and usage recipes.  This package imports nothing from the rest of
``repro``; every layer may depend on it without cycles.
"""

from repro.obs.events import (
    NULL_EVENT_LOG,
    EventLog,
    NullEventLog,
    get_event_log,
    set_event_log,
    use_event_log,
)
from repro.obs.export import Ticker, TelemetrySink, render_openmetrics
from repro.obs.ledger import RunLedger, record_run, summarize_run
from repro.obs.memory import REPORT_MEMORY_GAUGE, MemorySampler
from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.profile import (
    RuleProfiler,
    get_profiler,
    set_profiler,
    use_profiler,
)
from repro.obs.run import Run, run_scope
from repro.obs.trace import (
    NULL_SPAN,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
    "EventLog",
    "NullEventLog",
    "NULL_EVENT_LOG",
    "get_event_log",
    "set_event_log",
    "use_event_log",
    "Ticker",
    "TelemetrySink",
    "render_openmetrics",
    "MemorySampler",
    "REPORT_MEMORY_GAUGE",
    "RunLedger",
    "record_run",
    "summarize_run",
    "Run",
    "run_scope",
    "RuleProfiler",
    "get_profiler",
    "set_profiler",
    "use_profiler",
    "NULL_SPAN",
    "NullTracer",
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]
