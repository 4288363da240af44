"""E19 -- memory-bounded streaming reports (buffered vs rollup).

The streaming diagnostics pipeline (docs/architecture.md, "Streaming
reports") claims the streamed poacher audit holds *bounded* memory: as
a site grows 10x, the buffered :meth:`Poacher.crawl` keeps every page's
diagnostics and links in its :class:`CrawlReport` until the end and its
traced-heap high-water grows roughly linearly, while
:meth:`Poacher.crawl_stream` -- what ``poacher --format jsonl`` and
``--shards`` run -- folds each page into a :class:`SiteRollup` and
spills it to ``pages.jsonl`` as the frontier completes it.

This benchmark measures both regimes on the same generated site at 50
and 500 pages.  The pages are written to disk and mounted with
:meth:`VirtualWeb.add_site`, as the poacher CLI mounts a site, before
either measurement starts; each pass crawls a fresh mount.  It asserts
the headline property:

- the streaming high-water at 500 pages is at most
  ``MAX_STREAM_GROWTH`` times the high-water at 50 pages, while the
  buffered high-water grows by well over 3x;
- the rollup carries the buffered report's totals (memory-bounded must
  not mean approximate).

Both peaks are tracemalloc's traced Python heap: the buffered regime
reads it directly, the streaming regime reads it through
:class:`~repro.obs.memory.MemorySampler` -- the same sampler a sharded
``poacher --shards`` run arms -- so the number recorded here is the
same ``report.memory.high_water_bytes`` gauge the run ledger turns
into ``report_high_water_kb``.

``BENCH_stream.json`` records the peaks, wall clocks and the 10x
growth ratios; CI re-runs this file and compares the dimensionless
``stream_high_water_ratio_10x`` against the committed baseline with
``compare_runs --portable-only``.
"""

from __future__ import annotations

import gc
import os
import time
import tracemalloc

from repro.config.options import Options
from repro.core.service import LintService
from repro.obs.memory import MemorySampler
from repro.obs.metrics import MetricsRegistry
from repro.robot.poacher import Poacher
from repro.site.report import render_text_report
from repro.site.rollup import SiteRollup
from repro.workload import GeneratorConfig, PageGenerator
from repro.www.client import UserAgent
from repro.www.virtualweb import VirtualWeb

from conftest import print_table, record

#: Site sizes: the second is 10x the first and the pair carries the
#: gated growth ratio.  E19_FULL=1 adds a 100x site (several minutes
#: per regime -- far too slow for the CI smoke).
SIZES = (50, 500, 5000) if os.environ.get("E19_FULL") else (50, 500)

#: The streaming high-water at SIZES[1] must stay within this factor
#: of the high-water at SIZES[0].  The gate exists to catch the
#: streamed audit growing an O(pages) appetite -- that failure mode
#: lands at 3x+ like the buffered regime -- not to pin the transient
#: floor.
MAX_STREAM_GROWTH = 2.0

#: Page shape: substantial pages (the per-page lint transient is the
#: memory floor both regimes share) with no generated images, so every
#: link on the site resolves and the comparison is about report state,
#: not about buffering broken-link findings.
CONFIG = GeneratorConfig(
    paragraphs=20,
    sentences_per_paragraph=8,
    words_per_sentence=12,
    images=0,
    lists=3,
    tables=3,
    table_rows=10,
)

#: The poacher CLI mounts a site directory here and starts at its index.
BASE_URL = "http://localhost/"
START_URL = "http://localhost/index.html"


def _write_site(n_pages: int, tmp_path):
    """The generated site on disk, written once per size."""
    site = tmp_path / f"site-{n_pages}"
    if not site.is_dir():
        for name, text in PageGenerator(seed=7, config=CONFIG).iter_site(n_pages):
            path = site / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
    return site


def _poacher(site) -> Poacher:
    """A poacher over a fresh mount of ``site``."""
    web = VirtualWeb()
    web.add_site(BASE_URL, site)
    options = Options.with_defaults()
    options.follow_links = True
    return Poacher(UserAgent(web), service=LintService(options=options))


def _buffered_pass(site) -> tuple[float, float, list[str]]:
    """(peak_bytes, wall_s, summary lines) for the buffered crawl."""
    poacher = _poacher(site)
    gc.collect()
    tracemalloc.start()
    start = time.perf_counter()
    summary = poacher.crawl(START_URL).summary_lines()
    wall = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return float(peak), wall, summary


def _streaming_pass(site, report_dir) -> tuple[float, float, SiteRollup]:
    """Same measurement through the streamed audit and its spill."""
    poacher = _poacher(site)
    gc.collect()
    sampler = MemorySampler(
        interval_s=0.02, registry=MetricsRegistry()
    ).start()
    start = time.perf_counter()
    rollup = poacher.crawl_stream(START_URL, report_dir=report_dir)
    render_text_report(rollup)  # what the CLI prints, inside the window
    wall = time.perf_counter() - start
    peak = float(sampler.stop())
    return peak, wall, rollup


def _warm_both_paths(tmp_path) -> None:
    """Run both regimes once on a small site before measuring.

    First-use costs -- the rule/spec caches, the lazily imported
    navigation module, the spill/rollup code objects -- would otherwise
    land inside whichever regime happens to run first and skew its
    floor.
    """
    site = _write_site(10, tmp_path)
    _buffered_pass(site)
    _streaming_pass(site, tmp_path / "warm-report")


def test_streaming_high_water_stays_flat(tmp_path):
    _warm_both_paths(tmp_path)

    rows = []
    buffered_peaks: dict[int, float] = {}
    stream_peaks: dict[int, float] = {}
    for n_pages in SIZES:
        site = _write_site(n_pages, tmp_path)
        buffered_peak, buffered_wall, summary = _buffered_pass(site)
        stream_peak, stream_wall, rollup = _streaming_pass(
            site, tmp_path / f"report-{n_pages}"
        )

        # Memory-bounded must not mean approximate: the rollup carries
        # the totals the buffered summary prints.
        assert rollup.pages == n_pages
        assert summary[0] == f"poacher: crawled {n_pages} page(s) from {START_URL}"
        assert summary[-1] == (
            f"total: {rollup.total_messages} problem(s), "
            f"{rollup.count('bad-link')} broken link(s)"
        )

        buffered_peaks[n_pages] = buffered_peak
        stream_peaks[n_pages] = stream_peak
        rows.append((
            n_pages,
            f"{buffered_peak / 1024:.0f}",
            f"{buffered_wall:.2f}",
            f"{stream_peak / 1024:.0f}",
            f"{stream_wall:.2f}",
        ))
        record(
            "BENCH_stream.json",
            f"e19_{n_pages}_pages",
            pages=n_pages,
            buffered_peak_kb=round(buffered_peak / 1024, 1),
            buffered_wall_s=round(buffered_wall, 3),
            stream_peak_kb=round(stream_peak / 1024, 1),
            stream_wall_s=round(stream_wall, 3),
        )

    small, large = SIZES[0], SIZES[1]
    stream_ratio = stream_peaks[large] / stream_peaks[small]
    buffered_ratio = buffered_peaks[large] / buffered_peaks[small]
    rows.append((
        f"{large // small}x growth",
        f"{buffered_ratio:.2f}x",
        "",
        f"{stream_ratio:.2f}x",
        "",
    ))
    print_table(
        "E19: poacher audit memory high-water, buffered vs streaming",
        rows,
        ("pages", "buffered KB", "buffered s", "stream KB", "stream s"),
    )
    record(
        "BENCH_stream.json",
        "e19_growth",
        stream_high_water_ratio_10x=round(stream_ratio, 3),
        buffered_high_water_ratio_10x=round(buffered_ratio, 3),
    )

    # The headline property: streaming memory is flat while buffered
    # memory tracks site size.
    assert stream_ratio <= MAX_STREAM_GROWTH, (
        f"streaming high-water grew {stream_ratio:.2f}x over a "
        f"{large // small}x site (limit {MAX_STREAM_GROWTH}x)"
    )
    assert buffered_ratio > 3.0, (
        "buffered regime no longer tracks site size "
        f"({buffered_ratio:.2f}x) -- the comparison is meaningless"
    )
