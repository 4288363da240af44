"""E17 -- incremental site re-check (cold vs warm crawl).

Not a paper experiment, but the paper's deployment problem: the Canon
robot re-checked "all of Canon's public web pages" on a schedule
(section 5.3), and on any real schedule almost nothing has changed since
the last run.  This benchmark crawls a bandwidth-limited virtual site
twice with persistent state (``HttpCache`` validators + ``ResultCache``
lint results, exactly what ``poacher --state-dir`` wires up):

- the *cold* crawl transfers every body and lints every page;
- the *warm* crawl sends conditional requests, gets bodyless ``304``\\ s
  back for every unchanged page, and serves every lint result from the
  cache.

It asserts the incremental contract -- warm output identical to cold,
warm wall clock >= 5x faster, zero bytes re-transferred -- then mutates
one page and asserts a third crawl pays for exactly that page.

A second scenario re-checks a 400-page directory with ``-R``'s
in-process entry point, ``SiteChecker.check_directory``, over a disk
``ResultCache``: the cold run tokenizes each page once (the lint pass
also collects its links), the warm run not at all (the cache record
holds the links).  Numbers land in ``BENCH_cache.json``.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.config.options import Options
from repro.core.cache import ResultCache
from repro.core.service import LintService
from repro.obs import use_registry
from repro.robot.poacher import Poacher
from repro.robot.traversal import TraversalPolicy
from repro.site.sitecheck import SiteChecker
from repro.workload import PageGenerator
from repro.www.client import UserAgent
from repro.www.httpcache import HttpCache
from repro.www.virtualweb import VirtualWeb

from conftest import print_table, record

N_PAGES = 12
#: Bytes of filler per page; with the bandwidth below, each full body
#: costs ~45 ms of simulated transfer (what a 304 avoids).
PAGE_FILLER = 18_000
BANDWIDTH_BYTES_PER_S = 400_000


def page_body(index: int, marker: str = "") -> str:
    filler = " ".join(
        f"word{word}" for word in range(PAGE_FILLER // 9)
    )
    return (
        f"<html><head><title>page {index}</title></head><body>"
        f"<p>page {index} {marker}<img src=pic{index}.gif>{filler}</p>"
        "</body></html>"
    )


def build_site(changed_marker: str = "") -> VirtualWeb:
    web = VirtualWeb()
    links = " ".join(
        f'<a href="page{i:02}.html">page {i}</a>' for i in range(N_PAGES)
    )
    pages = {
        "index.html": (
            "<html><head><title>E17</title></head><body>"
            f"<p>{links}</p></body></html>"
        ),
    }
    for i in range(N_PAGES):
        # ``changed_marker`` mutates page 0 only -- the incremental run.
        pages[f"page{i:02}.html"] = page_body(
            i, marker=changed_marker if i == 0 else ""
        )
    web.add_site("http://big.site/", pages)
    web.set_bandwidth(BANDWIDTH_BYTES_PER_S)
    return web


def crawl(web: VirtualWeb, state: Path):
    """One ``poacher --state-dir``-shaped crawl against ``web``."""
    http_cache = HttpCache(state / "http")
    http_cache.load()
    agent = UserAgent(web, http_cache=http_cache)
    options = Options.with_defaults()
    options.follow_links = False  # isolate fetch + lint (as in E16)
    service = LintService(
        options=options, cache=ResultCache(state / "lint")
    )
    poacher = Poacher(
        agent,
        service=service,
        policy=TraversalPolicy(obey_robots_txt=False),
    )
    with use_registry() as registry:
        start = time.perf_counter()
        report = poacher.crawl("http://big.site/index.html")
        elapsed = time.perf_counter() - start
        http_cache.save()
        snapshot = registry.snapshot()
    return report, elapsed, snapshot


def lint_fingerprint(report):
    return [
        (page.url, [str(d) for d in page.diagnostics])
        for page in report.pages
    ]


def test_e17_incremental_recheck(tmp_path):
    state = tmp_path / "state"

    cold_report, cold_s, cold_m = crawl(build_site(), state)
    warm_report, warm_s, warm_m = crawl(build_site(), state)

    # Byte-identical lint output for every (unchanged) page.
    assert lint_fingerprint(warm_report) == lint_fingerprint(cold_report)
    assert len(cold_report.pages) == N_PAGES + 1

    # Every page revalidated, no bodies re-transferred, every lint cached.
    assert warm_m.get("www.conditional.revalidated") == N_PAGES + 1
    assert warm_m.get("www.bytes_fetched", 0) == 0
    assert warm_m.get("cache.lint.hits") == N_PAGES + 1

    # One changed page: the third crawl pays for exactly that page.
    incr_report, incr_s, incr_m = crawl(build_site("CHANGED"), state)
    assert incr_m.get("www.conditional.revalidated") == N_PAGES
    assert incr_m.get("www.conditional.modified") == 1
    assert incr_m.get("cache.lint.hits") == N_PAGES
    assert incr_m.get("cache.lint.misses") == 1
    changed = incr_report.page("http://big.site/page00.html")
    fresh_options = Options.with_defaults()
    fresh_options.follow_links = False
    fresh = LintService(options=fresh_options)
    # The changed page's diagnostics match a from-scratch lint exactly.
    from repro.core.service import StringSource

    expected = fresh.check(
        StringSource(page_body(0, "CHANGED"), name=changed.url)
    ).diagnostics
    assert [str(d) for d in changed.diagnostics] == [str(d) for d in expected]
    # Unchanged pages still report identically.
    for page in cold_report.pages:
        if page.url == changed.url:
            continue
        assert lint_fingerprint_page(incr_report, page)


    speedup = cold_s / warm_s if warm_s else float("inf")
    record(
        "BENCH_cache.json",
        "e17",
        pages=len(cold_report.pages),
        page_bytes=PAGE_FILLER,
        bandwidth_bytes_per_s=BANDWIDTH_BYTES_PER_S,
        cold_wall_s=round(cold_s, 4),
        warm_wall_s=round(warm_s, 4),
        incremental_wall_s=round(incr_s, 4),
        speedup=round(speedup, 3),
        cold_bytes=cold_m.get("www.bytes_fetched", 0),
        warm_bytes=warm_m.get("www.bytes_fetched", 0),
        incremental_bytes=incr_m.get("www.bytes_fetched", 0),
        warm_revalidated=warm_m.get("www.conditional.revalidated", 0),
        warm_lint_hits=warm_m.get("cache.lint.hits", 0),
    )
    print_table(
        "E17: incremental re-check, cold vs warm (persistent state dir)",
        [
            ("pages", len(cold_report.pages)),
            ("bandwidth", f"{BANDWIDTH_BYTES_PER_S // 1000} KB/s"),
            ("cold wall", f"{cold_s:.3f} s"),
            ("warm wall", f"{warm_s:.3f} s"),
            ("1-page-changed wall", f"{incr_s:.3f} s"),
            ("speedup (warm)", f"{speedup:.2f}x"),
            ("bytes (cold/warm)",
             f"{cold_m.get('www.bytes_fetched', 0)}/"
             f"{warm_m.get('www.bytes_fetched', 0)}"),
        ],
        headers=("measure", "result"),
    )

    # The acceptance floor: a no-change re-check is at least 5x faster.
    # Transfer time is simulated (deterministic), so this is stable.
    assert speedup >= 5.0


def lint_fingerprint_page(report, page):
    mine = report.page(page.url)
    return mine is not None and [str(d) for d in mine.diagnostics] == [
        str(d) for d in page.diagnostics
    ]


#: The warm ``-R`` scenario's site: ROADMAP item 2's 400-page site.
SITE_PAGES = 400


def check_site(site: Path, cache_dir: Path):
    """One ``weblint -R --cache-dir``-shaped check, in process."""
    service = LintService(cache=ResultCache(cache_dir))
    with use_registry() as registry:
        start = time.perf_counter()
        report = SiteChecker(service=service).check_directory(site)
        elapsed = time.perf_counter() - start
        snapshot = registry.snapshot()
    return [str(d) for d in report.all_diagnostics()], elapsed, snapshot


def test_e17_warm_site_recheck(tmp_path):
    site = tmp_path / "site"
    site.mkdir()
    for name, text in PageGenerator(seed=3).iter_site(SITE_PAGES):
        (site / name).write_text(text, encoding="utf-8")

    cold_out, cold_s, cold_m = check_site(site, tmp_path / "cache")
    warm_out, warm_s, warm_m = check_site(site, tmp_path / "cache")

    assert warm_out == cold_out
    assert warm_m.get("cache.lint.hits") == SITE_PAGES
    # One tokenizer pass per page cold -- lint and links together --
    # and none warm: the cache serves links with the diagnostics.
    assert cold_m.get("tokenizer.documents") == SITE_PAGES
    assert warm_m.get("tokenizer.documents", 0) == 0

    record(
        "BENCH_cache.json",
        "e17_site",
        pages=SITE_PAGES,
        cold_wall_s=round(cold_s, 4),
        warm_wall_s=round(warm_s, 4),
        speedup=round(cold_s / warm_s, 3) if warm_s else None,
        cold_tokenized_pages=cold_m.get("tokenizer.documents", 0),
        warm_tokenized_pages=warm_m.get("tokenizer.documents", 0),
    )
    print_table(
        "E17: warm -R re-check of a 400-page site (in process)",
        [
            ("pages", SITE_PAGES),
            ("cold wall", f"{cold_s:.3f} s"),
            ("warm wall", f"{warm_s:.3f} s"),
            ("tokenized pages (cold/warm)",
             f"{cold_m.get('tokenizer.documents', 0)}/"
             f"{warm_m.get('tokenizer.documents', 0)}"),
        ],
        headers=("measure", "result"),
    )
