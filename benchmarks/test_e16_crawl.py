"""E16 -- fault-tolerant crawling (sequential vs concurrent frontier).

Not a paper experiment: the paper's poacher crawled Canon's real, slow,
unreliable site (section 5.3) one page at a time.  This benchmark crawls
a fault-injected virtual site -- every page 25 ms slow, a 20% seeded
transient-503 rate, one dead host, one permanently broken page -- twice:
with the classic sequential frontier and with 8 frontier workers.  It
asserts the resilience contract (every reachable page fetched, HTTP
errors classified separately from transport failures, concurrent report
identical to the sequential one) and records the wall-clock numbers in
``BENCH_crawl.json``.
"""

from __future__ import annotations

import time

from repro.config.options import Options
from repro.obs import use_registry
from repro.robot.poacher import Poacher
from repro.robot.traversal import TraversalPolicy
from repro.www.client import RetryPolicy, UserAgent
from repro.www.faults import FaultInjector
from repro.www.virtualweb import VirtualWeb

from conftest import print_table, record

N_LEAF_PAGES = 16
PAGE_LATENCY_S = 0.025
FAULT_RATE = 0.2
FAULT_SEED = 1998  # the paper's year; any fixed seed works


def build_site() -> VirtualWeb:
    web = VirtualWeb(faults=FaultInjector(seed=FAULT_SEED))
    links = " ".join(
        f'<a href="leaf{i:02}.html">leaf {i}</a>' for i in range(N_LEAF_PAGES)
    )
    pages = {
        "index.html": (
            "<html><head><title>E16</title></head><body>"
            f"<p>{links} "
            '<a href="http://dead.example/x.html">dead host</a> '
            '<a href="gone.html">broken page</a></p></body></html>'
        ),
    }
    for i in range(N_LEAF_PAGES):
        pages[f"leaf{i:02}.html"] = (
            f"<html><head><title>leaf {i}</title></head>"
            f"<body><p>leaf {i}</p></body></html>"
        )
    web.add_site("http://slow.site/", pages)
    web.add_broken("http://slow.site/gone.html", status=404)
    web.set_latency(host="slow.site", seconds=PAGE_LATENCY_S)
    web.add_fault(
        host="slow.site", status=503, rate=FAULT_RATE, times=None, max_run=2
    )
    web.kill_host("dead.example")
    return web


def crawl(concurrency: int):
    agent = UserAgent(
        build_site(),
        retry=RetryPolicy(max_retries=3, backoff_base_s=0.001),
        timeout_s=5.0,
    )
    policy = TraversalPolicy(
        same_host_only=False,
        obey_robots_txt=False,
        concurrency=concurrency,
        max_in_flight_per_host=8,
    )
    # Lint-only crawl: link validation re-HEADs every target on the
    # calling thread, which would measure the (serial) link checker
    # rather than the frontier.  Broken/dead pages are still classified
    # -- that happens in the frontier's own fetch path.
    options = Options.with_defaults()
    options.follow_links = False
    poacher = Poacher(agent, options=options, policy=policy)
    with use_registry() as registry:
        start = time.perf_counter()
        report = poacher.crawl("http://slow.site/index.html")
        elapsed = time.perf_counter() - start
        retries = registry.value("www.retry.attempts")
    return report, poacher.robot.stats, elapsed, retries


def fingerprint(report):
    return (
        [page.url for page in report.pages],
        [
            (page.url, [(d.message_id, d.line) for d in page.diagnostics],
             [(link.url, status.status) for link, status in page.broken_links])
            for page in report.pages
        ],
        report.broken_pages,
        report.unreachable_pages,
    )


def test_e16_fault_tolerant_crawl():
    seq_report, seq_stats, seq_s, seq_retries = crawl(concurrency=1)
    par_report, par_stats, par_s, par_retries = crawl(concurrency=8)

    # Resilience: every reachable page fetched despite the 20% fault rate.
    assert len(seq_report.pages) == N_LEAF_PAGES + 1
    # Classification: the 404 page is an HTTP error, the dead host a
    # transport failure -- never conflated.
    for stats in (seq_stats, par_stats):
        assert stats.http_error_urls == {"http://slow.site/gone.html": 404}
        assert list(stats.failed_urls) == ["http://dead.example/x.html"]
        assert stats.pages_http_error == 1 and stats.pages_failed == 1

    # Golden: the concurrent crawl is a pure wall-clock win.
    assert fingerprint(par_report) == fingerprint(seq_report)

    speedup = seq_s / par_s if par_s else float("inf")
    record(
        "BENCH_crawl.json",
        "e16",
        pages=len(seq_report.pages),
        page_latency_ms=PAGE_LATENCY_S * 1000,
        fault_rate=FAULT_RATE,
        fault_seed=FAULT_SEED,
        seq_wall_s=round(seq_s, 4),
        par_wall_s=round(par_s, 4),
        frontier_jobs=8,
        speedup=round(speedup, 3),
        seq_retries=seq_retries,
        par_retries=par_retries,
        http_errors=seq_stats.pages_http_error,
        transport_failures=seq_stats.pages_failed,
    )
    print_table(
        "E16: fault-tolerant crawl, sequential vs 8 frontier workers",
        [
            ("pages", len(seq_report.pages)),
            ("per-page latency", f"{PAGE_LATENCY_S * 1000:.0f} ms"),
            ("transient 503 rate", f"{FAULT_RATE:.0%}"),
            ("sequential wall", f"{seq_s:.3f} s"),
            ("8-worker wall", f"{par_s:.3f} s"),
            ("speedup", f"{speedup:.2f}x"),
            ("retries (seq/par)", f"{seq_retries}/{par_retries}"),
        ],
        headers=("measure", "result"),
    )

    # Threads overlap simulated network latency regardless of CPU count,
    # so unlike E15 this speedup is asserted unconditionally.
    assert speedup > 1.5
