"""E20 -- the persistent daemon: warm workers vs per-batch cold pools.

Not a paper experiment: the paper's gateway forked one weblint per
request, and our E15 showed that even a per-*batch* process pool loses
on small batches (0.615x at jobs=4) because spawn plus per-worker
service rebuild dominates.  This benchmark measures what the daemon's
pre-warmed :class:`~repro.daemon.pool.WarmPool` buys back: the same
small-batch corpus pushed through a cold pool per batch (the E15
regime) and through one long-lived daemon, then a sustained-QPS drive
-- a fixed request mix from concurrent client threads -- whose exact
request/document counts and zero-reject guarantee CI gates via
``BENCH_daemon.json`` and ``compare_runs --portable-only``.

The warm-beats-sequential assertion only fires on multi-core hosts
(one CPU cannot out-lint itself); warm-beats-cold holds anywhere,
because eliminating pool spin-up is free speedup on any hardware.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.core.service import LintRequest, LintService, PathSource
from repro.daemon import LintDaemon
from repro.obs import use_registry
from repro.obs.ledger import summarize_run
from repro.workload import PageGenerator
from repro.workload.corpus import build_seeded_corpus

from conftest import print_table, record

#: Same shape as E15: enough pages to amortise table compilation,
#: small enough for the CI smoke run.
N_PAGES = 32

#: Small batches -- the regime where cold pools lose (E15).
BATCH_SIZE = 4

#: The sustained drive: this many requests from this many threads.
DRIVE_REQUESTS = 96
DRIVE_THREADS = 4


@pytest.fixture
def corpus_dir(tmp_path):
    """The E15 corpus: generated site pages plus seeded-error pages."""
    site = PageGenerator(seed=11).site(8)
    for name, body in site.items():
        (tmp_path / name).write_text(body)
    for index, page in enumerate(build_seeded_corpus(N_PAGES - 8, seed=15)):
        (tmp_path / f"seeded{index:02}.html").write_text(page.source)
    return sorted(tmp_path.glob("*.html"))


def _rows(result):
    return [(d.message_id, d.line, d.column, d.text) for d in result.diagnostics]


def _batches(paths):
    requests = [LintRequest(PathSource(path)) for path in paths]
    return [
        requests[offset : offset + BATCH_SIZE]
        for offset in range(0, len(requests), BATCH_SIZE)
    ]


def test_e20_daemon_warm_pool(corpus_dir):
    service = LintService()
    service.warm()

    # Sequential baseline (and the golden reference).
    start = time.perf_counter()
    sequential = [
        service.check(request)
        for batch in _batches(corpus_dir)
        for request in batch
    ]
    seq_seconds = time.perf_counter() - start

    # The E15 regime: a fresh worker pool per small batch.
    start = time.perf_counter()
    cold = [
        result
        for batch in _batches(corpus_dir)
        for result in service.check_many(batch, jobs=4)
    ]
    cold_seconds = time.perf_counter() - start

    with use_registry() as registry:
        with LintDaemon(jobs=4, queue_limit=DRIVE_THREADS * 2) as daemon:
            # The daemon regime: the same batches on pre-warmed workers.
            start = time.perf_counter()
            warm = [
                result
                for batch in _batches(corpus_dir)
                for result in daemon.check_batch(batch)
            ]
            warm_seconds = time.perf_counter() - start

            # Sustained QPS: a fixed request mix from concurrent
            # clients, every request through admission control.
            drive_batches = _batches(corpus_dir)
            errors: list[str] = []

            def drive(thread_index: int) -> None:
                for turn in range(DRIVE_REQUESTS // DRIVE_THREADS):
                    batch = drive_batches[
                        (thread_index + turn) % len(drive_batches)
                    ]
                    try:
                        with daemon.admitted():
                            results = daemon.check_batch(batch)
                        if len(results) != len(batch):
                            errors.append("short batch")
                    except Exception as exc:  # DaemonSaturated would gate
                        errors.append(repr(exc))

            threads = [
                threading.Thread(target=drive, args=(index,))
                for index in range(DRIVE_THREADS)
            ]
            drive_start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            drive_seconds = time.perf_counter() - drive_start
            assert not errors, errors

        snapshot = registry.snapshot()
    summary = summarize_run(snapshot, "e20", wall_s=drive_seconds)

    # Golden equivalence: warm workers change the wall clock only.
    assert [r.name for r in warm] == [r.name for r in sequential]
    assert [_rows(r) for r in warm] == [_rows(r) for r in sequential]
    assert [_rows(r) for r in cold] == [_rows(r) for r in sequential]
    assert sum(len(r.diagnostics) for r in sequential) > 0

    # The drive's work is deterministic: every request served, none
    # bounced -- the portable half of the BENCH_daemon gate.
    drive_documents = sum(
        len(drive_batches[(index + turn) % len(drive_batches)])
        for index in range(DRIVE_THREADS)
        for turn in range(DRIVE_REQUESTS // DRIVE_THREADS)
    )
    assert summary["requests"] == DRIVE_REQUESTS + len(_batches(corpus_dir))
    assert summary["rejected"] == 0

    warm_vs_cold = cold_seconds / warm_seconds
    warm_vs_seq = seq_seconds / warm_seconds
    qps = DRIVE_REQUESTS / drive_seconds
    cpus = os.cpu_count() or 1

    record(
        "BENCH_daemon.json",
        "e20",
        pages=N_PAGES,
        cpus=cpus,
        jobs=4,
        batch_size=BATCH_SIZE,
        requests=summary["requests"],
        documents=drive_documents + N_PAGES,
        rejected=summary["rejected"],
        cold_batch_wall_s=round(cold_seconds, 4),
        warm_batch_wall_s=round(warm_seconds, 4),
        warm_vs_cold_speedup=round(warm_vs_cold, 3),
        warm_vs_sequential_speedup=round(warm_vs_seq, 3),
        requests_per_s=round(qps, 2),
        request_p50_ms=summary.get("request_p50_ms", 0.0),
        request_p95_ms=summary.get("request_p95_ms", 0.0),
    )
    print_table(
        "E20: persistent daemon vs cold pools (batches of "
        f"{BATCH_SIZE})",
        [
            ("pages", N_PAGES),
            ("host CPUs", cpus),
            ("sequential wall", f"{seq_seconds:.3f}s"),
            ("cold pools wall", f"{cold_seconds:.3f}s"),
            ("warm daemon wall", f"{warm_seconds:.3f}s"),
            ("warm vs cold", f"{warm_vs_cold:.2f}x"),
            ("warm vs sequential", f"{warm_vs_seq:.2f}x"),
            ("sustained", f"{qps:.1f} req/s over {DRIVE_REQUESTS} requests"),
            ("warm p95", f"{summary.get('request_p95_ms', 0.0):.1f} ms"),
        ],
        headers=("measure", "result"),
    )

    # Keeping the pool warm beats respawning it whatever the hardware:
    # the cold path pays spawn + service rebuild per batch.
    assert warm_vs_cold > 1.0
    # Beating the *sequential* loop needs real parallel hardware.
    if cpus > 1:
        assert warm_vs_seq > 1.0
