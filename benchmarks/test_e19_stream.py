"""E19 -- memory-bounded streaming reports (buffered vs rollup).

The streaming diagnostics pipeline (docs/architecture.md, "Streaming
reports") claims the rollup-mode site check holds *bounded* memory: as
a site grows 10x, the buffered :class:`SiteReport` path keeps every
page's diagnostics until the end and its traced-heap high-water grows
roughly linearly, while the rollup path keeps only the site-check
core's page-name index, flat integer link graph and
currently-unresolved links, so its high-water barely moves.

This benchmark measures both regimes on the same generated site at 50
and 500 pages (pages come straight out of
:meth:`PageGenerator.iter_site`, never materialised as a dict) and
asserts the headline property the ISSUE gates on:

- the streaming high-water at 500 pages is at most
  ``MAX_STREAM_GROWTH`` times the high-water at 50 pages, while the
  buffered high-water grows by well over 3x;
- the rollup renders the *same* summary the buffered report renders
  (memory-bounded must not mean approximate).

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
from repro.site.report import render_text_report
from repro.site.rollup import PageSpill, SiteRollup
from repro.site.sitecheck import SiteChecker
from repro.workload import GeneratorConfig, PageGenerator

from conftest import print_table, record

#: Site sizes: the second is 10x the first and the pair carries the
#: gated growth ratio.  E19_FULL=1 adds a 100x site (several minutes
#: per regime -- far too slow for the CI smoke, but the flat-memory
#: claim holds there too).
SIZES = (50, 500, 5000) if os.environ.get("E19_FULL") else (50, 500)

#: The streaming high-water at SIZES[1] must stay within this factor
#: of the high-water at SIZES[0].  Measured ~1.42 at 10x growth before
#: the batched-tokenizer PR; the slots tokens then cut the *absolute*
#: high-water at every size but shrank the small-site base more than
#: the large-site peak (288 vs 382 KB at 50 pages, 489 vs 553 KB at
#: 500), so the ratio settled ~1.70.  The gate exists to catch the
#: rollup growing an O(pages) appetite -- that failure mode lands at
#: 3x+ like the buffered regime -- not to pin the transient floor.
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


def _checker() -> SiteChecker:
    options = Options.with_defaults()
    options.follow_links = True
    return SiteChecker(service=LintService(options=options))


def _pages(n_pages: int):
    return PageGenerator(seed=7, config=CONFIG).iter_site(n_pages)


def _buffered_pass(n_pages: int) -> tuple[float, float, str]:
    """(peak_bytes, wall_s, rendered) for the buffered SiteReport path."""
    checker = _checker()
    gc.collect()
    tracemalloc.start()
    start = time.perf_counter()
    report = checker.check_pages(_pages(n_pages), root="bench")
    rendered = render_text_report(report)
    wall = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return float(peak), wall, rendered


def _streaming_pass(
    n_pages: int, tmp_path
) -> tuple[float, float, str, SiteRollup]:
    """Same measurement through the rollup + spill path."""
    checker = _checker()
    gc.collect()
    sampler = MemorySampler(
        interval_s=0.02, registry=MetricsRegistry()
    ).start()
    start = time.perf_counter()
    with PageSpill(tmp_path / f"pages-{n_pages}.jsonl") as spill:
        rollup = checker.check_pages(
            _pages(n_pages),
            root="bench",
            rollup=SiteRollup(root="bench"),
            spill=spill,
        )
    rendered = render_text_report(rollup)
    wall = time.perf_counter() - start
    peak = float(sampler.stop())
    return peak, wall, rendered, rollup


def _warm_both_paths(tmp_path) -> None:
    """Run both regimes once on a small site before measuring.

    First-use costs -- the rule/spec caches, the lazily imported
    navigation module, the spill/rollup code objects -- would otherwise
    land inside whichever regime happens to run first and skew its
    floor.
    """
    checker = _checker()
    render_text_report(checker.check_pages(_pages(10), root="warm"))
    with PageSpill(tmp_path / "warm.jsonl") as spill:
        render_text_report(
            checker.check_pages(
                _pages(10),
                root="warm",
                rollup=SiteRollup(root="warm"),
                spill=spill,
            )
        )


def test_streaming_high_water_stays_flat(tmp_path):
    _warm_both_paths(tmp_path)

    rows = []
    buffered_peaks: dict[int, float] = {}
    stream_peaks: dict[int, float] = {}
    for n_pages in SIZES:
        buffered_peak, buffered_wall, buffered_text = _buffered_pass(n_pages)
        stream_peak, stream_wall, stream_text, rollup = _streaming_pass(
            n_pages, tmp_path
        )

        # Memory-bounded must not mean approximate: the rollup renders
        # the exact summary the buffered report renders, and carries
        # the same totals.
        assert stream_text == buffered_text
        assert rollup.pages == n_pages

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
        "E19: report memory high-water, buffered vs streaming",
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
