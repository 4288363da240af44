"""E15 -- the parallel batch pipeline (sequential vs ``jobs=4``).

Not a paper experiment: the paper's weblint checks one document per
process.  This benchmark records what the batch ``LintService`` buys on
top of that -- the same E5-style generated site corpus checked through
``check_many`` at ``jobs=1`` and ``jobs=4`` -- and proves the golden
equivalence that makes the parallel path safe to use by default in CI.

The speedup assertion only fires on multi-core hosts: on a single CPU
the pool can't beat the sequential loop, and the honest numbers (both
directions) are what ``BENCH_parallel.json`` is for.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.service import LintRequest, LintService, PathSource
from repro.workload import PageGenerator
from repro.workload.corpus import build_seeded_corpus

from conftest import print_table, record

#: Enough pages that per-worker table compilation amortises, small
#: enough that the CI smoke run stays fast.
N_PAGES = 32


@pytest.fixture
def corpus_dir(tmp_path):
    """An E5-style on-disk corpus: generated site pages + seeded errors."""
    site = PageGenerator(seed=11).site(8)
    for name, body in site.items():
        (tmp_path / name).write_text(body)
    for index, page in enumerate(build_seeded_corpus(N_PAGES - 8, seed=15)):
        (tmp_path / f"seeded{index:02}.html").write_text(page.source)
    return sorted(tmp_path.glob("*.html"))


def _run(service: LintService, paths, jobs: int):
    requests = [LintRequest(PathSource(path)) for path in paths]
    start = time.perf_counter()
    results = service.check_many(requests, jobs=jobs)
    return results, time.perf_counter() - start


def test_e15_parallel_pipeline(corpus_dir):
    service = LintService()
    service.warm()

    sequential, seq_seconds = _run(service, corpus_dir, jobs=1)
    parallel, par_seconds = _run(service, corpus_dir, jobs=4)

    # Golden equivalence: the parallel pipeline must be a pure speedup.
    assert [r.name for r in sequential] == [r.name for r in parallel]
    assert [
        [(d.message_id, d.line, d.column, d.text) for d in r.diagnostics]
        for r in sequential
    ] == [
        [(d.message_id, d.line, d.column, d.text) for d in r.diagnostics]
        for r in parallel
    ]
    assert sum(len(r.diagnostics) for r in sequential) > 0

    seq_rate = len(corpus_dir) / seq_seconds
    par_rate = len(corpus_dir) / par_seconds
    speedup = seq_seconds / par_seconds
    cpus = os.cpu_count() or 1

    record(
        "BENCH_parallel.json",
        "e15",
        pages=len(corpus_dir),
        cpus=cpus,
        seq_pages_per_s=round(seq_rate, 1),
        par_pages_per_s=round(par_rate, 1),
        jobs=4,
        speedup=round(speedup, 3),
    )
    print_table(
        "E15: batch pipeline, sequential vs jobs=4",
        [
            ("pages", len(corpus_dir)),
            ("host CPUs", cpus),
            ("sequential pages/s", f"{seq_rate:.1f}"),
            ("jobs=4 pages/s", f"{par_rate:.1f}"),
            ("speedup", f"{speedup:.2f}x"),
        ],
        headers=("measure", "result"),
    )

    # Worker processes only help when there is more than one CPU to
    # spread over; elsewhere just record the honest numbers.
    if cpus > 1:
        assert speedup > 1.0
