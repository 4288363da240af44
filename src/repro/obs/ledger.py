"""The cross-run ledger: one summary record per instrumented run.

A crawl that runs on a schedule (the paper's Canon robot re-checked the
whole site routinely) needs run-over-run memory: was tonight's crawl
slower than last night's?  Did the error rate move?  The ledger is that
memory -- ``runs.jsonl`` under ``--state-dir`` (or ``--telemetry-dir``),
one appended JSON object per run, summarising the registry's view of
throughput, latency and errors::

    {"run": 3, "tool": "poacher", "wall_s": 12.4, "pages": 118,
     "pages_per_s": 9.5, "fetch_p95_ms": 80.1, "errors": 2, ...}

``python -m repro.tools.compare_runs`` diffs two such records and flags
throughput/latency/error-rate regressions; BENCH_*.json artefacts go
through the same comparator.

The ledger is written after a run's work is done, so a ledger that
cannot be written (a read-only state dir, ``runs.jsonl`` replaced by a
directory) never fails that run: :func:`record_run` prints one warning
naming the file on stderr and returns, and the tool keeps its output
and exit status.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Callable, Optional, Union

from repro.store import JsonLog, read_log


def _histogram_summary(
    snapshot: dict[str, object], name: str, prefix: str
) -> dict[str, float]:
    value = snapshot.get(name)
    if not isinstance(value, dict) or "buckets" not in value:
        return {}
    return {
        f"{prefix}_p50_ms": value.get("p50", 0.0),
        f"{prefix}_p95_ms": value.get("p95", 0.0),
        f"{prefix}_p99_ms": value.get("p99", 0.0),
        f"{prefix}_mean_ms": value.get("mean", 0.0),
    }


def summarize_run(
    snapshot: dict[str, object],
    tool: str,
    wall_s: float,
    started_unix: Optional[float] = None,
) -> dict[str, object]:
    """A ledger record from one registry snapshot.

    Only scalar summaries are kept -- counts, rates and interpolated
    percentiles -- so a ledger line stays small however big the run
    was, and :mod:`repro.tools.compare_runs` can diff any two records
    numerically.
    """

    def count(name: str) -> int:
        value = snapshot.get(name, 0)
        return int(value) if isinstance(value, (int, float)) else 0

    documents = count("lint.files")
    pages = count("robot.pages.fetched")
    diagnostics = sum(
        count(f"lint.diagnostics.{category}")
        for category in ("error", "warning", "style")
    )
    errors = (
        count("lint.source_errors")
        + count("robot.fetch.failures")
        + count("robot.fetch.http_errors")
    )
    attempted = documents + count("robot.fetch.failures") + count(
        "robot.fetch.http_errors"
    )
    record: dict[str, object] = {
        "tool": tool,
        "started_unix": round(
            started_unix if started_unix is not None else time.time(), 3
        ),
        "wall_s": round(wall_s, 4),
        "documents": documents,
        "diagnostics": diagnostics,
        "pages": pages,
        "bytes_fetched": count("www.bytes_fetched"),
        "errors": errors,
        "error_rate": round(errors / attempted, 6) if attempted else 0.0,
        "cache_lint_hits": count("cache.lint.hits"),
        "revalidated": count("www.conditional.revalidated"),
        #: Pages restored from the frontier journal instead of crawled.
        "resumed_pages": count("robot.frontier.resumed_pages"),
        #: Completed pages a --resume had to fetch again (body evicted);
        #: the interrupted-crawl CI gate holds this at zero.
        "refetched_pages": count("robot.frontier.resume_refetched"),
    }
    # The streaming-report memory gauge (present only when a
    # MemorySampler ran); kilobytes keep the record readable and the
    # compare_runs ratio meaningful.
    memory = snapshot.get("report.memory.high_water_bytes")
    if isinstance(memory, dict):
        high_water = memory.get("max", memory.get("value", 0.0))
        if isinstance(high_water, (int, float)) and high_water > 0:
            record["report_high_water_kb"] = round(high_water / 1024.0, 1)
    # Daemon lifetimes: served/rejected request counts and the warm
    # request latency trio, so the sustained-QPS CI gate can diff two
    # daemon runs like any other tool's.
    requests = count("daemon.requests")
    if requests or "daemon.requests" in snapshot:
        record["requests"] = requests
        record["rejected"] = count("daemon.rejected")
        record.update(
            _histogram_summary(snapshot, "daemon.request_ms", "request")
        )
    if wall_s > 0:
        record["docs_per_s"] = round(documents / wall_s, 3)
        if pages:
            record["pages_per_s"] = round(pages / wall_s, 3)
        if requests:
            record["requests_per_s"] = round(requests / wall_s, 3)
    record.update(_histogram_summary(snapshot, "lint.check_ms", "lint"))
    record.update(_histogram_summary(snapshot, "robot.fetch.latency_ms", "fetch"))
    return record


class RunLedger:
    """Append-only ``runs.jsonl`` in a state/telemetry directory."""

    FILENAME = "runs.jsonl"

    def __init__(self, directory: Union[str, Path]) -> None:
        self.path = Path(directory) / self.FILENAME

    def append(self, record: dict[str, object]) -> dict[str, object]:
        """Append one record, stamping its 1-based ``run`` sequence.

        The log's lock is held from the count to the append, so runs
        that share one ledger concurrently never stamp the same ``run``.
        """
        with JsonLog(self.path) as log, log.locked():
            stamped = {"run": len(self.load()) + 1, **record}
            log.append(stamped)
        return stamped

    def load(self) -> list[dict[str, object]]:
        """Every parseable record, oldest first (corrupt lines skipped)."""
        return read_log(self.path)[0]

    def last(self, n: int = 2) -> list[dict[str, object]]:
        return self.load()[-n:]


def record_run(
    directory: Union[str, Path],
    snapshot: dict[str, object],
    tool: str,
    wall_s: float,
    clock: Callable[[], float] = time.time,
) -> Optional[dict[str, object]]:
    """Summarize ``snapshot`` and append it to ``directory``'s ledger.

    Returns the stamped record.  A failed append is not raised: it is
    reported on stderr, naming the file, and ``None`` is returned.
    """
    ledger = RunLedger(directory)
    record = summarize_run(snapshot, tool, wall_s, started_unix=clock())
    try:
        return ledger.append(record)
    except OSError as exc:
        sys.stderr.write(
            f"{tool}: warning: run ledger {ledger.path} not written: "
            f"{exc.strerror or exc}\n"
        )
        return None
