"""The ``poacher`` command: crawl a site directory and report.

Since the reproduction has no live network, the command mounts a local
directory as ``http://localhost/`` on a virtual web and crawls that --
the same code path a networked poacher would follow, end to end
(robots.txt included if the directory contains one).

The resilience layer is fully scriptable: ``--retries``/``--backoff``/
``--timeout`` configure the transport-level retry policy,
``--breaker-after`` the per-host circuit breaker, ``--frontier-jobs``/
``--host-delay`` the concurrent crawl frontier, and ``--fault-rate``/
``--fault-seed`` inject deterministic transient 503s into the mounted
site so the whole stack can be exercised without a hostile network.

``--state-dir DIR`` makes the crawl *incremental*: HTTP validators,
lint results and the frontier journal persist under DIR, so a second
run revalidates unchanged pages with conditional fetches (``304 Not
Modified``) and serves their lint results from the cache -- only
changed pages pay for transfer and linting.  ``--resume`` replays the
journal of a killed crawl: completed pages are restored from the body
store without refetching and only the unfinished frontier is crawled.
See docs/caching.md and docs/user-guide.md.

Telemetry: ``--progress`` renders a live one-line crawl report on
stderr (pages done/in flight/failed, pages/s, cache-hit ratio, ETA);
``--telemetry-dir DIR`` streams events to ``DIR/events.jsonl`` and
writes ``DIR/metrics.jsonl`` + ``DIR/metrics.prom`` snapshots.  Every
run with ``--state-dir`` or ``--telemetry-dir`` appends a summary to
``runs.jsonl`` for ``python -m repro.tools.compare_runs``.  See
docs/observability.md.

Streaming audits: ``--format jsonl`` emits one JSON object per page as
it resolves (the weblint ``-f jsonl`` shape, keyed by URL) instead of
the buffered summary, and ``--shards N --shard K`` runs the bounded
streaming pipeline over the K-th of N URL partitions, writing
``rollup.json`` + ``pages.jsonl`` + ``report.txt`` + ``metrics.json``
under ``--state-dir``'s report directory.  Run every shard (they can
share the state dir, even concurrently: each keeps its own frontier
journal and report directory, and the caches make the overlap cheap),
then fold the shard directories into one canonical report with
``python -m repro.tools.merge_shards STATE_DIR``.  See
docs/architecture.md ("Streaming reports").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.config.options import Options
from repro.core.cache import ResultCache
from repro.core.reporter import JsonlReporter
from repro.core.service import LintService
from repro.obs import MemorySampler, run_scope
from repro.robot.frontier import FrontierJournal
from repro.robot.poacher import Poacher
from repro.robot.traversal import CrawlProgress, TraversalPolicy
from repro.site.report import render_text_report
from repro.store import write_atomic
from repro.www.client import CircuitBreaker, RetryPolicy, UserAgent
from repro.www.httpcache import HttpCache
from repro.www.virtualweb import VirtualWeb


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poacher",
        description="crawl a site, weblint every page, validate every link",
    )
    parser.add_argument(
        "site_dir",
        help="directory served as http://localhost/ for the crawl",
    )
    parser.add_argument(
        "--start",
        default="http://localhost/index.html",
        help="start URL (default %(default)s)",
    )
    parser.add_argument(
        "--max-pages",
        type=int,
        default=1000,
        help="crawl at most this many pages",
    )
    parser.add_argument(
        "--ignore-robots",
        action="store_true",
        help="do not honour robots.txt",
    )
    parser.add_argument(
        "--no-links",
        action="store_true",
        help="skip link validation (lint only)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry transient failures (transport errors, 5xx, 429) up "
        "to N extra times with exponential backoff",
    )
    parser.add_argument(
        "--backoff",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="base backoff between retries (default %(default)s)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request timeout (default: none)",
    )
    parser.add_argument(
        "--breaker-after",
        type=int,
        default=0,
        metavar="N",
        help="open a per-host circuit breaker after N consecutive "
        "failures (0 = disabled)",
    )
    parser.add_argument(
        "--frontier-jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="fetch the crawl frontier with N worker threads "
        "(default 1 = sequential; the report is identical either way)",
    )
    parser.add_argument(
        "--host-delay",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="politeness: minimum delay between fetches to one host",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="inject deterministic transient 503s into P of all "
        "requests (0..1; exercises the retry path)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for --fault-rate fault placement",
    )
    parser.add_argument(
        "--state-dir",
        metavar="DIR",
        default=None,
        help="persist crawl state (HTTP validators, lint results, the "
        "frontier journal) under DIR so a re-crawl revalidates "
        "unchanged pages instead of re-fetching and re-linting them",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted crawl from the journal under "
        "--state-dir: completed pages are restored without refetching",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print crawl metrics (fetches, retries, latency "
        "percentiles, slowest URLs) to stderr after the report",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="render a live one-line crawl progress report on stderr "
        "(pages done/in flight/failed, pages/s, cache hits, ETA)",
    )
    parser.add_argument(
        "--telemetry-dir",
        metavar="DIR",
        default=None,
        help="stream structured events to DIR/events.jsonl and write "
        "metric snapshots to DIR/metrics.jsonl and DIR/metrics.prom",
    )
    parser.add_argument(
        "--format",
        "-f",
        choices=("summary", "jsonl"),
        default="summary",
        help="report format: the buffered crawl summary (default) or "
        "one JSON object per page streamed as each page resolves",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="streaming sharded audit: roll up only this process's "
        "partition of the site's URLs, writing rollup.json and "
        "pages.jsonl under --state-dir for repro.tools.merge_shards "
        "(N=1 streams the whole site)",
    )
    parser.add_argument(
        "--shard",
        type=int,
        default=0,
        metavar="K",
        help="which of the --shards partitions to audit (0-based)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.resume and not args.state_dir:
        parser.error("--resume requires --state-dir")
    if args.shards is not None:
        if not args.state_dir:
            parser.error("--shards requires --state-dir")
        if args.shards < 1:
            parser.error("--shards must be at least 1")
        if not 0 <= args.shard < args.shards:
            parser.error("--shard must be between 0 and --shards - 1")

    web = VirtualWeb()
    web.add_site("http://localhost/", args.site_dir)
    if args.fault_rate > 0.0:
        web.faults.seed = args.fault_seed
        web.add_fault(rate=args.fault_rate, status=503, times=None)
    # A sharded run keeps its own frontier journal and report directory.
    shard_dir = (
        f"shard-{args.shard}-of-{args.shards}" if (args.shards or 1) > 1 else ""
    )
    http_cache = None
    result_cache = None
    journal = None
    if args.state_dir:
        state = Path(args.state_dir)
        http_cache = HttpCache(state / "http")
        http_cache.load()
        result_cache = ResultCache(state / "lint")
        # Each frontier checkpoint also persists the HTTP index, so a
        # kill between checkpoints costs at most checkpoint_every pages
        # of conditional refetches -- never completed-page bodies.
        journal = FrontierJournal(
            state / "frontier" / shard_dir,
            on_checkpoint=lambda: http_cache.save(),
        )
    agent = UserAgent(
        web,
        retry=RetryPolicy(max_retries=max(0, args.retries),
                          backoff_base_s=args.backoff),
        breaker=(
            CircuitBreaker(failure_threshold=args.breaker_after)
            if args.breaker_after > 0 else None
        ),
        timeout_s=args.timeout,
        http_cache=http_cache,
    )

    options = Options.with_defaults()
    options.follow_links = not args.no_links
    policy = TraversalPolicy(
        max_pages=args.max_pages,
        obey_robots_txt=not args.ignore_robots,
        concurrency=max(1, args.frontier_jobs),
        per_host_delay_s=max(0.0, args.host_delay),
        shards=args.shards or 1,
        shard=args.shard if args.shards is not None else 0,
    )
    poacher = Poacher(
        agent,
        service=LintService(options=options, cache=result_cache),
        policy=policy,
        journal=journal,
    )
    # The bounded streaming audit runs for --format jsonl and for
    # --shards; with a state dir it leaves a mergeable report directory.
    streaming = args.format == "jsonl" or args.shards is not None
    report_dir = None
    if streaming and args.state_dir:
        report_dir = Path(args.state_dir) / "report" / shard_dir
    with run_scope(
        "poacher", state_dir=args.state_dir, telemetry_dir=args.telemetry_dir
    ) as run:
        progress = (
            CrawlProgress(poacher.robot, sys.stderr)
            if args.progress else None
        )
        # Only sharded audits arm the memory sampler: that is the
        # site-scale path whose flat-memory claim the
        # report.memory.high_water_bytes gauge exists to prove, and
        # tracemalloc tracing is not free.
        sampler = MemorySampler().start() if args.shards is not None else None
        reporter = None
        if args.format == "jsonl":
            reporter = JsonlReporter().begin(sys.stdout)
        if streaming:
            rollup = poacher.crawl_stream(
                args.start,
                report_dir=report_dir,
                progress=progress,
                resume=args.resume,
                on_result=reporter.emit if reporter is not None else None,
            )
            problems = rollup.total_messages
            text_report = render_text_report(rollup) + "\n"
            output = text_report if reporter is None else ""
        else:
            report = poacher.crawl(
                args.start, progress=progress, resume=args.resume
            )
            problems = report.total_problems()
            output = "".join(
                line + "\n" for line in report.summary_lines()
            ) + "".join(
                f"{diagnostic}\n"
                for page in report.pages
                for diagnostic in page.diagnostics
            )
        if http_cache is not None:
            http_cache.save()
        if reporter is not None:
            reporter.end()
        sys.stdout.write(output)
        if args.stats:
            _print_stats(run.registry, poacher.robot.stats, sys.stderr)
        if sampler is not None:
            sampler.stop()  # final sample lands before the snapshots below
        if report_dir is not None:
            # crawl_stream saved rollup.json here already; report.txt and
            # metrics.json complete the shard's mergeable report directory.
            metrics = json.dumps(
                run.registry.snapshot(), indent=2, sort_keys=True
            ) + "\n"
            write_atomic(report_dir / "report.txt", text_report.encode("utf-8"))
            write_atomic(report_dir / "metrics.json", metrics.encode("utf-8"))
    return 1 if problems else 0


def _print_stats(registry, crawl_stats, stream) -> None:
    stream.write("poacher stats:\n")
    for line in registry.summary_lines(
        defaults=(
            "robot.pages.fetched",
            "robot.frontier.admitted",
            "robot.frontier.resumed_pages",
            "robot.fetch.http_errors",
            "robot.fetch.latency_ms",
            "www.retry.attempts",
            "www.conditional.revalidated",
            "cache.lint.hits",
        )
    ):
        stream.write(f"  {line}\n")
    if crawl_stats.host_slots:
        stream.write("  host slots:\n")
        for host, slot in crawl_stats.host_slots.items():
            stream.write(
                f"    {host}: {slot['fetches']:g} fetch(es), "
                f"max {slot['max_in_flight']:g} in flight, "
                f"waited {slot['wait_ms']:g} ms\n"
            )
    slowest = crawl_stats.slowest()
    if slowest:
        stream.write("  slowest fetches:\n")
        for url, latency_ms in slowest:
            stream.write(f"    {url}: {latency_ms:.2f} ms\n")


if __name__ == "__main__":  # pragma: no cover
    try:
        code = main()
    except BrokenPipeError:
        # --format jsonl piped into head/jq and the reader went away:
        # die quietly with the conventional SIGPIPE status, and point
        # stdout at devnull so the interpreter's exit-time flush does
        # not raise the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 128 + 13
    raise SystemExit(code)
