"""E10 -- throughput and scaling (sections 1, 4.1).

Paper claim (qualitative): weblint is practical to run "from the
command-line, a batch script (for example under crontab on Unix), a web
page, a robot, or an application" -- i.e. fast enough to check whole
sites routinely; the stack-machine algorithm is a single pass over the
token stream.

Reproduction: checking time grows roughly linearly with document size
(single-pass behaviour), and absolute throughput is comfortably in the
hundreds-of-KB/s range on generated pages.  The benchmark times the
medium document; the sweep prints the scaling table.
"""

from __future__ import annotations

import time

from repro import Weblint
from repro.workload import GeneratorConfig, PageGenerator

from conftest import print_table, record


def _page_of_size(paragraphs: int) -> str:
    config = GeneratorConfig(paragraphs=paragraphs, images=2, tables=2, lists=2)
    return PageGenerator(seed=paragraphs, config=config).page()


def _time_check(weblint: Weblint, page: str, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        weblint.check_string(page)
        best = min(best, time.perf_counter() - start)
    return best


def test_e10_throughput_and_scaling(benchmark):
    weblint = Weblint()
    sizes = (5, 20, 80, 320)
    pages = {n: _page_of_size(n) for n in sizes}

    benchmark(weblint.check_string, pages[20])

    rows = []
    timings = {}
    for n in sizes:
        page = pages[n]
        elapsed = _time_check(weblint, page)
        timings[n] = (len(page), elapsed)
        rows.append(
            (
                f"{n} paragraphs",
                f"{len(page) / 1024:.1f} KB",
                f"{elapsed * 1000:.2f} ms",
                f"{len(page) / 1024 / elapsed:.0f} KB/s",
            )
        )

    # Single-pass shape: time per byte must not blow up with size.
    small_bytes, small_time = timings[sizes[0]]
    large_bytes, large_time = timings[sizes[-1]]
    per_byte_small = small_time / small_bytes
    per_byte_large = large_time / large_bytes
    assert per_byte_large < per_byte_small * 4, (
        "checking time grows super-linearly with document size"
    )
    # Absolute floor: at least 100 KB/s on the largest document.
    assert large_bytes / 1024 / large_time > 100

    record(
        "BENCH_obs.json",
        "e10_throughput",
        kb_per_s=round(large_bytes / 1024 / large_time, 1),
        largest_doc_kb=round(large_bytes / 1024, 1),
        check_ms=round(large_time * 1000, 3),
    )

    print_table(
        "E10: single-pass scaling (time vs document size)",
        rows,
        headers=("document", "size", "check time", "throughput"),
    )
