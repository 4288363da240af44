"""Compare two instrumented runs and flag regressions.

The cross-run half of the telemetry pipeline (docs/observability.md):
:mod:`repro.obs.ledger` appends one summary record per run to
``runs.jsonl``; this tool diffs two such records -- or two BENCH_*.json
artefacts -- and exits non-zero when throughput dropped, latency rose
or the error rate climbed by more than the allowed fraction::

    python -m repro.tools.compare_runs state/runs.jsonl
    python -m repro.tools.compare_runs BENCH_telemetry.json new.json
    python -m repro.tools.compare_runs old.json new.json --max-regression 0.10

With a single ``runs.jsonl`` argument the last two records are
compared (the previous run is the baseline).  Keys are classified by
name: throughput-like values (``*_per_s``, ``speedup``) regress when
they *fall*; latency- and error-like values (``*_ms``, ``*wall_s``,
``errors``, ``error_rate``) regress when they *rise*; everything else
is reported as context but never fails the comparison.

``--portable-only`` restricts the comparison to machine-independent
keys (document/page/byte/hit counts), which is what CI uses against
committed baselines: wall-clock and throughput depend on the runner's
hardware, but the work a run *did* must not silently change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.store import read_log

#: Key suffixes/names where a *drop* is a regression.
HIGHER_IS_BETTER = ("_per_s", "speedup", "bandwidth_bytes_per_s", "kb_per_s")

#: Key suffixes/names where a *rise* is a regression.
LOWER_IS_BETTER = ("_ms", "wall_s", "error_rate")
LOWER_IS_BETTER_EXACT = ("errors", "retries", "http_errors", "transport_failures")

#: Machine-independent keys (the only ones ``--portable-only``
#: compares) and how each regresses.  Work counts must match exactly;
#: transfer volume may only fall (caching improved) and cache-hit
#: counts may only rise -- the opposite direction means the
#: incremental machinery silently broke.
PORTABLE_DIRECTIONS = {
    "documents": "exact",
    "diagnostics": "exact",
    "docs": "exact",
    "pages": "exact",
    "cold_bytes": "exact",
    "bytes_fetched": "lower",
    "warm_bytes": "lower",
    "incremental_bytes": "lower",
    "errors": "lower",
    "http_errors": "lower",
    "transport_failures": "lower",
    "cache_lint_hits": "higher",
    "revalidated": "higher",
    "warm_lint_hits": "higher",
    "warm_revalidated": "higher",
    # A resumed crawl may only restore more pages from the journal,
    # never refetch completed ones: against a zero-refetch baseline any
    # rise in refetched_pages fails the interrupted-crawl CI gate.
    "resumed_pages": "higher",
    "refetched_pages": "lower",
    # Streaming-report memory: the high-water gauge is tracemalloc's
    # traced Python heap, deterministic enough to gate across machines;
    # a >10% rise against the committed BENCH_stream baseline means the
    # bounded rollup grew an unbounded appetite.
    "report_high_water_kb": "lower",
    "stream_high_water_ratio_10x": "lower",
    # Daemon sustained-QPS gate: the driver sends a fixed request mix,
    # so the served count must match exactly and nothing in that mix
    # may start bouncing off the admission gate.
    "requests": "exact",
    "rejected": "lower",
    # Tokenizer hot-path gate (BENCH_tokenizer.json): the E10 corpus is
    # seeded, so the token and byte counts the batched scanner produces
    # are machine-independent -- any drift means the scanner changed
    # what it emits, not just how fast.
    "tokens": "exact",
    "corpus_bytes": "exact",
    # Dispatch work gate (BENCH_dispatch.json, E14): the page is seeded,
    # so the rule hooks each table invokes on it are machine-independent
    # -- any drift means a subscription widened or narrowed.
    "hook_calls": "exact",
    # One tokenizer pass per page (BENCH_cache.json, e17_site): a cold
    # -R re-check tokenizes each page once, a warm one none at all.
    "cold_tokenized_pages": "exact",
    "warm_tokenized_pages": "exact",
}


def classify(key: str) -> Optional[str]:
    """``"higher"``, ``"lower"`` or ``None`` (informational only)."""
    if key in LOWER_IS_BETTER_EXACT:
        return "lower"
    for suffix in HIGHER_IS_BETTER:
        if key == suffix or key.endswith(suffix):
            return "higher"
    for suffix in LOWER_IS_BETTER:
        if key == suffix or key.endswith(suffix):
            return "lower"
    return None


def load_records(path: Path) -> list[dict[str, object]]:
    """Every run-like record in ``path``, oldest first.

    Accepts a ``runs.jsonl`` ledger (read with
    :func:`repro.store.read_log`), a single JSON object, or a
    BENCH_*.json artefact (whose ``results`` section is flattened into
    one record so bench keys compare like run keys).
    """
    text = path.read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except ValueError:
        payload = None
    if isinstance(payload, dict):
        results = payload.get("results")
        if isinstance(results, dict):
            flat: dict[str, object] = {}
            for bench, values in sorted(results.items()):
                if isinstance(values, dict):
                    flat.update(
                        {f"{bench}.{key}": value for key, value in values.items()}
                    )
            return [flat] if flat else [payload]
        return [payload]
    if isinstance(payload, list):
        return [record for record in payload if isinstance(record, dict)]
    return read_log(path)[0]


def _base_key(key: str) -> str:
    """The key without any ``bench.`` prefix (``e18.pages`` -> ``pages``)."""
    return key.rsplit(".", 1)[-1]


def compare(
    baseline: dict[str, object],
    current: dict[str, object],
    max_regression: float = 0.10,
    portable_only: bool = False,
) -> tuple[list[str], list[str]]:
    """``(report_lines, regressions)`` for two run records."""
    lines: list[str] = []
    regressions: list[str] = []
    skipped = ("run", "started_unix", "tool", "generated_unix")
    for key in sorted(set(baseline) | set(current)):
        base = _base_key(key)
        if base in skipped:
            continue
        old, new = baseline.get(key), current.get(key)
        if not isinstance(old, (int, float)) or not isinstance(new, (int, float)):
            continue
        if isinstance(old, bool) or isinstance(new, bool):
            continue
        if portable_only:
            direction = PORTABLE_DIRECTIONS.get(base)
            if direction is None:
                continue
        else:
            direction = classify(base)
        delta = new - old
        ratio = (delta / old) if old else (1.0 if delta else 0.0)
        marker = ""
        if direction == "exact" and delta:
            marker = " REGRESSION (changed)"
            regressions.append(key)
        elif direction == "higher" and old and -ratio > max_regression:
            marker = f" REGRESSION ({-ratio * 100:.1f}% slower)"
            regressions.append(key)
        elif direction == "lower" and (
            (old and ratio > max_regression) or (not old and delta > 0)
        ):
            marker = f" REGRESSION (+{delta:g})"
            regressions.append(key)
        arrow = {"higher": "^", "lower": "v"}.get(direction or "", "-")
        lines.append(
            f"  {key}: {old:g} -> {new:g} "
            f"({'+' if ratio >= 0 else ''}{ratio * 100:.1f}%) [{arrow}]{marker}"
        )
    return lines, regressions


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="compare_runs",
        description="diff two instrumented runs and flag regressions",
    )
    parser.add_argument(
        "baseline",
        help="runs.jsonl (compare its last two records) or a baseline "
        "run/BENCH json file",
    )
    parser.add_argument(
        "current",
        nargs="?",
        default=None,
        help="current run/BENCH json file (omit when BASELINE is a "
        "runs.jsonl ledger)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.10,
        metavar="FRACTION",
        help="tolerated relative regression before failing "
        "(default %(default)s = 10%%)",
    )
    parser.add_argument(
        "--portable-only",
        action="store_true",
        help="compare only machine-independent keys (counts, bytes, "
        "cache hits) -- what CI checks against committed baselines",
    )
    args = parser.parse_args(argv)
    out = sys.stdout

    try:
        if args.current is None:
            records = load_records(Path(args.baseline))
            if len(records) < 2:
                out.write(
                    f"compare_runs: need two runs in {args.baseline}, "
                    f"found {len(records)}\n"
                )
                return 2
            baseline, current = records[-2], records[-1]
        else:
            old_records = load_records(Path(args.baseline))
            new_records = load_records(Path(args.current))
            if not old_records or not new_records:
                out.write("compare_runs: no comparable records found\n")
                return 2
            baseline, current = old_records[-1], new_records[-1]
    except OSError as exc:
        out.write(f"compare_runs: {exc}\n")
        return 2

    label_old = baseline.get("tool") or args.baseline
    label_new = current.get("tool") or (args.current or args.baseline)
    out.write(
        f"compare_runs: {label_old} run {baseline.get('run', '-')} -> "
        f"{label_new} run {current.get('run', '-')} "
        f"(max regression {args.max_regression * 100:.0f}%"
        f"{', portable keys only' if args.portable_only else ''})\n"
    )
    lines, regressions = compare(
        baseline, current,
        max_regression=args.max_regression,
        portable_only=args.portable_only,
    )
    for line in lines:
        out.write(line + "\n")
    if regressions:
        out.write(
            f"compare_runs: {len(regressions)} regression(s): "
            f"{', '.join(regressions)}\n"
        )
        return 1
    out.write("compare_runs: no regressions\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
