"""Fold traced processes' stats files into the per-layer metrics.

Times are self times summed over every process and thread of the
traced run, normalised per document delivered (``ms/doc``), per daemon
request (``ms/req``) or per entry-point process (``ms/proc``).  A layer
a workload never reaches reads 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

#: Worker-side layers whose self times partition ``Engine.check``; their
#: sum is checked against the worker-reported ``lint.check_ms``.
ENGINE_LAYERS = ("engine", "tokenizer.scan", "dispatch.rules", "context.emit")

#: Allowed gap between the blocking path's self times and its wall time.
COVERAGE_TOLERANCE = 0.05

#: (metric, unit) in report order; BENCHMARK.json lists the same names.
PER_LAYER = (
    ("service.read_ms", "ms/doc"),
    ("service.setup_ms", "ms/proc"),
    ("service.pipeline_ms", "ms/doc"),
    ("service.pool_wall_ms", "ms/doc"),
    ("service.pool_overhead_ms", "ms/doc"),
    ("cache.key_ms", "ms/doc"),
    ("cache.get_ms", "ms/doc"),
    ("cache.put_ms", "ms/doc"),
    ("cache.hit_share", "share"),
    ("tokenizer.scan_ms", "ms/doc"),
    ("tokenizer.tokens", "count/doc"),
    ("engine.self_ms", "ms/doc"),
    ("engine.documents", "count/doc"),
    ("dispatch.rules_ms", "ms/doc"),
    ("dispatch.hook_calls", "count/doc"),
    ("context.emit_ms", "ms/doc"),
    ("context.diagnostics", "count/doc"),
    ("reporter.render_ms", "ms/doc"),
    ("reporter.bytes", "B/doc"),
    ("protocol.decode_ms", "ms/req"),
    ("protocol.encode_ms", "ms/req"),
    ("daemon.check_batch_ms", "ms/req"),
    ("daemon.inline_share", "share"),
    ("daemon.rejected", "count"),
    ("pool.batch_ms", "ms/req"),
    ("pool.overhead_ms", "ms/req"),
    ("server.residual_ms", "ms/req"),
    ("robot.crawl_ms", "ms/doc"),
    ("frontier.journal_ms", "ms/doc"),
    ("www.fetch_ms", "ms/doc"),
    ("www.fetches", "count/doc"),
    ("www.revalidated_share", "share"),
    ("www.mount_ms", "ms/proc"),
    ("httpcache.save_ms", "ms/proc"),
    ("httpcache.load_ms", "ms/proc"),
    ("linkcheck.check_ms", "ms/doc"),
    ("linkcheck.checks", "count/doc"),
    ("rollup.add_ms", "ms/doc"),
    ("trace.overhead_share", "share"),
    ("trace.coverage", "share"),
    ("trace.worker_coverage", "share"),
)


@dataclass
class Totals:
    """Sums over every stats file of one traced run."""

    processes: int = 0
    wall_ms: float = 0.0
    self_ms: dict[str, float] = field(default_factory=dict)
    total_ms: dict[str, float] = field(default_factory=dict)
    calls: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    main_self_ms: dict[str, float] = field(default_factory=dict)
    worker_self_ms: dict[str, float] = field(default_factory=dict)
    worker_check_ms: float = 0.0

    def add(self, payload: dict) -> None:
        worker = payload["role"] == "worker"
        if worker:
            self.worker_check_ms += float(payload["extra"].get("check_ms", 0.0))
            _fold(self.worker_self_ms, payload["self_ms"])
        else:
            self.processes += 1
            self.wall_ms += float(payload["wall_ms"])
            _fold(self.main_self_ms, payload["main_self_ms"])
        for key in ("self_ms", "total_ms", "calls", "counts"):
            _fold(getattr(self, key), payload[key])

    def time(self, *layers: str) -> float:
        return sum(self.self_ms.get(layer, 0.0) for layer in layers)


def _fold(into: dict[str, float], values: dict[str, float]) -> None:
    for key, value in values.items():
        into[key] = into.get(key, 0.0) + value


def load(stats_dirs: list[Path]) -> Totals:
    totals = Totals()
    for directory in stats_dirs:
        for path in sorted(directory.glob("*.json")):
            totals.add(json.loads(path.read_text(encoding="utf-8")))
    return totals


def per_layer(
    totals: Totals,
    docs: int,
    requests: int = 0,
    jobs: int = 2,
    client_latency_ms: float = 0.0,
    report_bytes: int = 0,
    overhead_share: float = 0.0,
) -> tuple[dict[str, float], list[str]]:
    """The per-layer metric values plus any failed coverage checks.

    The blocking-path checks: on the parent's main thread, the named
    layers' self times must cover ``main``'s wall time to within the
    tolerance (batch and crawl); in pool workers the engine layers must
    match the program's own ``lint.check_ms``.  On the daemon the
    blocking path is the client's request latency, and
    ``server.residual_ms`` is defined as what the server-side layers do
    not cover, so only its sign is checked.
    """
    per_doc = 1.0 / max(1, docs)
    per_req = 1.0 / max(1, requests)
    per_proc = 1.0 / max(1, totals.processes)
    t, c, calls = totals.time, totals.counts, totals.calls
    gets = calls.get("cache.get", 0.0)
    fetch_gets = calls.get("www.get", 0.0)
    batches = calls.get("daemon.check_batch", 0.0)
    worker_share = totals.worker_check_ms / jobs
    server_ms = (
        t("protocol.decode", "protocol.encode")
        + totals.total_ms.get("daemon.check_batch", 0.0)
    )
    values = {
        "service.read_ms": t("service.read") * per_doc,
        "service.setup_ms": t("service.setup") * per_proc,
        "service.pipeline_ms": t("service.pipeline") * per_doc,
        "service.pool_wall_ms": t("service.pool_wall") * per_doc,
        "service.pool_overhead_ms": (
            (totals.total_ms.get("service.pool_wall.span", 0.0) - worker_share) * per_doc
            if calls.get("service.pool_wall") else 0.0
        ),
        "cache.key_ms": t("cache.key") * per_doc,
        "cache.get_ms": t("cache.get") * per_doc,
        "cache.put_ms": t("cache.put") * per_doc,
        "cache.hit_share": c.get("cache.hits", 0.0) / gets if gets else 0.0,
        "tokenizer.scan_ms": t("tokenizer.scan") * per_doc,
        "tokenizer.tokens": c.get("tokens", 0.0) * per_doc,
        "engine.self_ms": t("engine") * per_doc,
        "engine.documents": calls.get("engine", 0.0) * per_doc,
        "dispatch.rules_ms": t("dispatch.rules") * per_doc,
        "dispatch.hook_calls": c.get("hook_calls", 0.0) * per_doc,
        "context.emit_ms": t("context.emit") * per_doc,
        "context.diagnostics": c.get("diagnostics", 0.0) * per_doc,
        "reporter.render_ms": t("reporter.render") * per_doc,
        "reporter.bytes": report_bytes * per_doc,
        "protocol.decode_ms": t("protocol.decode") * per_req,
        "protocol.encode_ms": t("protocol.encode") * per_req,
        "daemon.check_batch_ms": t("daemon.check_batch") * per_req,
        "daemon.inline_share": (
            1.0 - calls.get("pool.batch", 0.0) / batches if batches else 0.0
        ),
        "daemon.rejected": c.get("rejected", 0.0),
        "pool.batch_ms": t("pool.batch") * per_req,
        "pool.overhead_ms": (
            (totals.total_ms.get("pool.batch", 0.0) - worker_share) * per_req
            if calls.get("pool.batch") else 0.0
        ),
        "server.residual_ms": (
            (client_latency_ms - server_ms) * per_req if requests else 0.0
        ),
        "robot.crawl_ms": t("robot.crawl") * per_doc,
        "frontier.journal_ms": t("frontier.journal") * per_doc,
        "www.fetch_ms": t("www.get", "www.head") * per_doc,
        "www.fetches": (fetch_gets + calls.get("www.head", 0.0)) * per_doc,
        "www.revalidated_share": (
            c.get("revalidated", 0.0) / fetch_gets if fetch_gets else 0.0
        ),
        "www.mount_ms": t("www.mount") * per_proc,
        "httpcache.save_ms": t("httpcache.save") * per_proc,
        "httpcache.load_ms": t("httpcache.load") * per_proc,
        "linkcheck.check_ms": t("linkcheck.check") * per_doc,
        "linkcheck.checks": calls.get("linkcheck.check", 0.0) * per_doc,
        "rollup.add_ms": t("rollup.add") * per_doc,
        "trace.overhead_share": overhead_share,
    }
    failures: list[str] = []
    if requests:
        coverage = server_ms / client_latency_ms if client_latency_ms else 0.0
        if coverage > 1.0 + COVERAGE_TOLERANCE:
            failures.append(f"server layers exceed client latency ({coverage:.3f})")
    else:
        coverage = sum(totals.main_self_ms.values()) / totals.wall_ms if totals.wall_ms else 0.0
        if abs(1.0 - coverage) > COVERAGE_TOLERANCE:
            failures.append(f"main-thread layers cover {coverage:.3f} of wall time")
    values["trace.coverage"] = coverage
    worker_ms = sum(totals.worker_self_ms.get(layer, 0.0) for layer in ENGINE_LAYERS)
    worker_coverage = worker_ms / totals.worker_check_ms if totals.worker_check_ms else 0.0
    if calls.get("service.pool_wall") or calls.get("pool.batch"):
        if not totals.worker_check_ms:
            failures.append("the pool ran but no worker reported its lint.check_ms")
        elif abs(1.0 - worker_coverage) > COVERAGE_TOLERANCE:
            failures.append(f"worker engine layers cover {worker_coverage:.3f} of lint.check_ms")
    values["trace.worker_coverage"] = worker_coverage
    return values, failures
