"""The persistent lint daemon: pool, admission, protocol, HTTP, client."""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.config import options_from_dict
from repro.config.options import Options
from repro.core.cache import ResultCache
from repro.core.service import (
    LintRequest,
    LintService,
    StringSource,
    _worker_run_chunk,
)
from repro.daemon import (
    AdmissionGate,
    DaemonSaturated,
    LintDaemon,
    ProtocolError,
    WarmPool,
    decode_batch_request,
    decode_batch_response,
    encode_batch_request,
    encode_batch_response,
)
from repro.daemon.client import DaemonClientError, base_url, remote_check
from repro.daemon.daemon import FANOUT_THRESHOLD, LifecycleJournal
from repro.gateway.gateway import Gateway
from repro.obs import use_registry
from repro.www.server import HTTPServer, http_get, http_post
from repro.www.virtualweb import VirtualWeb
from tests.conftest import PAPER_EXAMPLE, make_document

GOOD_PAGE = make_document("<p>all fine here</p>")

#: Four documents with different bytes, so each has its own cache key.
DISTINCT_PAGES = [PAPER_EXAMPLE] + [
    make_document(f"<p>page {i}<img src=x.gif></p>") for i in range(3)
]

#: The document :func:`crash_on_marker` kills its worker on.
CRASH_MARKER = "crash-here.html"


def _requests(count: int, text: str = PAPER_EXAMPLE) -> list[LintRequest]:
    return [
        LintRequest(StringSource(text, name=f"doc{i:02}.html"))
        for i in range(count)
    ]


def _diag_rows(result) -> list[tuple]:
    return [
        (d.message_id, d.line, d.column, d.text) for d in result.diagnostics
    ]


# -- protocol ---------------------------------------------------------------


class TestProtocol:
    def test_request_round_trip(self):
        body = encode_batch_request(
            [("a.html", "<p>x"), ("b.html", "<p>y")],
            options={"spec": "html32", "pedantic": True},
        )
        requests, options = decode_batch_request(body)
        assert [r.source.name for r in requests] == ["a.html", "b.html"]
        assert requests[0].source.text() == "<p>x"
        assert options == {"spec": "html32", "pedantic": True}

    def test_response_round_trip(self):
        service = LintService()
        results = service.check_many(_requests(2))
        decoded = decode_batch_response(encode_batch_response(results))
        assert [r.name for r in decoded] == [r.name for r in results]
        assert [_diag_rows(r) for r in decoded] == [
            _diag_rows(r) for r in results
        ]
        assert all(d.filename == r.name for r in decoded for d in r.diagnostics)

    def test_error_result_round_trip(self):
        from repro.core.service import LintResult

        decoded = decode_batch_response(
            encode_batch_response(
                [LintResult(name="gone.html", error="cannot read gone.html")]
            )
        )
        assert decoded[0].error == "cannot read gone.html"
        assert not decoded[0].ok

    @pytest.mark.parametrize(
        "body",
        [
            "not json",
            "[]",
            "{}",
            '{"documents": []}',
            '{"documents": [{"name": "x"}]}',
            '{"documents": [{"text": 42}]}',
            '{"documents": [{"text": "x"}], "options": "pedantic"}',
        ],
    )
    def test_malformed_requests_raise(self, body):
        with pytest.raises(ProtocolError):
            decode_batch_request(body)

    def test_malformed_responses_raise(self):
        for body in ("nope", "{}", '{"results": [{"diagnostics": "x"}]}'):
            with pytest.raises(ProtocolError):
                decode_batch_response(body)

    def test_document_cap(self):
        documents = [("d", "x")] * 1025
        with pytest.raises(ProtocolError):
            decode_batch_request(encode_batch_request(documents))


# -- admission --------------------------------------------------------------


class TestAdmissionGate:
    def test_bounded(self):
        gate = AdmissionGate(2)
        assert gate.try_acquire() and gate.try_acquire()
        assert not gate.try_acquire()
        gate.release()
        assert gate.try_acquire()
        assert gate.depth == 2

    def test_close_refuses_and_waits_idle(self):
        gate = AdmissionGate(4)
        assert gate.try_acquire()
        gate.close()
        assert not gate.try_acquire()
        assert not gate.wait_idle(timeout_s=0.05)
        gate.release()
        assert gate.wait_idle(timeout_s=1.0)

    def test_wait_idle_wakes_on_release(self):
        gate = AdmissionGate(1)
        assert gate.try_acquire()
        timer = threading.Timer(0.05, gate.release)
        timer.start()
        try:
            assert gate.wait_idle(timeout_s=2.0)
        finally:
            timer.cancel()


# -- the daemon -------------------------------------------------------------


class TestLintDaemon:
    def test_batch_matches_sequential(self):
        service = LintService()
        expected = service.check_many(_requests(12))
        with LintDaemon(jobs=2) as daemon:
            got = daemon.check_batch(_requests(12))
        assert [r.name for r in got] == [r.name for r in expected]
        assert [_diag_rows(r) for r in got] == [_diag_rows(r) for r in expected]

    def test_small_batches_run_inline(self):
        with use_registry() as registry:
            with LintDaemon(jobs=2) as daemon:
                results = daemon.check_batch(_requests(FANOUT_THRESHOLD - 1))
                assert daemon.pool is not None
            # Never fanned out: the pool's busy gauge was never raised.
            assert "daemon.workers.busy" not in registry.snapshot()
        assert len(results) == 3 and all(r.ok for r in results)

    def test_pooled_batches_use_the_cache(self, tmp_path):
        """A repeated pooled request is served from the daemon's cache."""
        requests = lambda: [  # noqa: E731
            LintRequest(StringSource(page, name=f"doc{i}.html"))
            for i, page in enumerate(DISTINCT_PAGES)
        ]
        with use_registry() as registry:
            with LintDaemon(jobs=2, cache=ResultCache(tmp_path)) as daemon:
                cold = daemon.check_batch(requests())
                assert registry.value("cache.lint.misses") == 4
                assert registry.value("cache.lint.stores") == 4
                linted = registry.snapshot()["lint.check_ms"]["count"]
                warm = daemon.check_batch(requests())
            assert registry.value("cache.lint.hits") == 4
            assert registry.value("cache.lint.misses") == 4
            assert registry.snapshot()["lint.check_ms"]["count"] == linted == 4
        assert [_diag_rows(r) for r in warm] == [_diag_rows(r) for r in cold]
        assert all(r.diagnostics for r in warm)

    def test_unstarted_daemon_still_checks(self):
        daemon = LintDaemon(jobs=2)
        results = daemon.check_batch(_requests(2))
        assert len(results) == 2 and results[0].diagnostics

    def test_service_for_reuses_warm_services(self):
        with LintDaemon(jobs=1) as daemon:
            assert daemon.service_for(None) is daemon.service
            assert daemon.service_for(daemon.options.copy()) is daemon.service
            pedantic = options_from_dict(daemon.options, {"pedantic": True})
            first = daemon.service_for(pedantic)
            second = daemon.service_for(
                options_from_dict(daemon.options, {"pedantic": True})
            )
            assert first is second
            assert first is not daemon.service

    def test_custom_options_change_results(self):
        with LintDaemon(jobs=1) as daemon:
            plain = daemon.check_batch(_requests(1, GOOD_PAGE))
            pedantic = daemon.check_batch(
                _requests(1, GOOD_PAGE),
                options=options_from_dict(daemon.options, {"pedantic": True}),
            )
        assert len(pedantic[0].diagnostics) > len(plain[0].diagnostics)

    def test_admission_saturates_with_retry_after(self):
        with use_registry() as registry:
            with LintDaemon(jobs=1, queue_limit=1) as daemon:
                with daemon.admitted():
                    with pytest.raises(DaemonSaturated) as excinfo:
                        with daemon.admitted():
                            pass
                assert excinfo.value.retry_after_s >= 1
                assert not excinfo.value.draining
                # Released: admission works again.
                with daemon.admitted():
                    pass
            assert registry.value("daemon.rejected") == 1

    def test_drain_refuses_then_shutdown_completes(self):
        daemon = LintDaemon(jobs=1, queue_limit=4).start()
        daemon.begin_drain()
        with pytest.raises(DaemonSaturated) as excinfo:
            with daemon.admitted():
                pass
        assert excinfo.value.draining
        assert daemon.shutdown() is True

    def test_options_from_dict_validates(self):
        base = Options.with_defaults()
        options = options_from_dict(
            base, {"spec": "html32", "enable": ["upper-case"], "disable": "require-doctype"}
        )
        assert options.spec_name == "html32"
        assert options.is_enabled("upper-case")
        assert not options.is_enabled("require-doctype")
        with pytest.raises(Exception):
            options_from_dict(base, {"enable": ["no-such-message-id"]})


def crash_on_marker(requests, collect_trace, collect_profile):
    """A ``_worker_run_chunk`` stand-in: the worker dies on the marker."""
    if any(request.source.name == CRASH_MARKER for request in requests):
        os._exit(3)
    return _worker_run_chunk(requests, collect_trace, collect_profile)


class TestWarmPool:
    def test_pool_persists_across_batches(self):
        with WarmPool(LintService(), jobs=2) as pool:
            warmed = pool.prewarm(timeout_s=30.0)
            assert warmed >= 1
            for _ in range(3):
                results = pool.check_batch(_requests(8))
                assert len(results) == 8
                assert all(r.diagnostics for r in results)

    def test_closed_pool_falls_back(self):
        pool = WarmPool(LintService(), jobs=2)
        pool.shutdown()
        with use_registry() as registry:
            results = pool.check_batch(_requests(4))
            assert registry.value("lint.pool.fallbacks") == 4
        assert len(results) == 4 and all(r.ok for r in results)

    def test_worker_metrics_merge_into_parent(self):
        with use_registry() as registry:
            with WarmPool(LintService(), jobs=2) as pool:
                pool.check_batch(_requests(8))
            assert registry.value("lint.files") == 8

    def test_concurrent_batches_share_one_pool(self, monkeypatch):
        """Handler threads racing into a cold pool build it exactly once."""
        import sys

        import repro.core.service as service_module

        built = []
        real_start = service_module._start_workers

        def counting_start(specification, count):
            built.append(count)
            time.sleep(0.05)  # widen the window a check-then-build race needs
            return real_start(specification, count)

        monkeypatch.setattr(service_module, "_start_workers", counting_start)
        outcomes: list[object] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with use_registry() as registry, WarmPool(LintService(), jobs=2) as pool:

                def batch() -> None:
                    try:
                        outcomes.append(pool.check_batch(_requests(6)))
                    except Exception as exc:  # pragma: no cover - failure detail
                        outcomes.append(exc)

                threads = [threading.Thread(target=batch) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert pool._busy == 0
                assert registry.value("lint.files") == 36
                assert registry.value("lint.pool.fallbacks") == 0
        finally:
            sys.setswitchinterval(interval)
        assert built == [2]
        assert len(outcomes) == 6
        for results in outcomes:
            assert [r.name for r in results] == [f"doc{i:02}.html" for i in range(6)]
            assert all(r.diagnostics for r in results)

    def test_crashed_worker_heals(self, monkeypatch):
        """A worker killed mid-batch: the batch still matches the
        sequential result, the lost documents re-run in the parent
        (counted), and the next batch runs on a rebuilt pool."""
        import repro.core.service as service_module

        requests = _requests(8)
        requests[5] = LintRequest(StringSource(GOOD_PAGE, name=CRASH_MARKER))
        expected = LintService().check_many(requests)
        service = LintService()
        in_parent: list[str] = []
        lint = service._lint

        def lint_in_parent(request):
            in_parent.append(request.source.name)
            return lint(request)

        monkeypatch.setattr(service, "_lint", lint_in_parent)
        monkeypatch.setattr(service_module, "_worker_run_chunk", crash_on_marker)
        with use_registry() as registry, WarmPool(service, jobs=2) as pool:
            assert pool.prewarm(timeout_s=30.0) >= 1
            got = pool.check_batch(requests)
            assert [r.name for r in got] == [r.name for r in expected]
            assert [_diag_rows(r) for r in got] == [_diag_rows(r) for r in expected]
            assert CRASH_MARKER in in_parent
            assert registry.value("lint.pool.fallbacks") == len(in_parent)

            rerun = len(in_parent)
            healed = pool.check_batch(_requests(8))
            assert all(r.diagnostics for r in healed)
            assert registry.value("lint.pool.rebuilds") == 1
            assert registry.value("lint.pool.fallbacks") == rerun
            assert len(in_parent) == rerun  # every document ran on a worker


def count_chunks(requests, collect_trace, collect_profile):
    """A ``_worker_run_chunk`` stand-in that counts each call in the
    chunk's metrics snapshot, which the parent merges."""
    results, metrics, spans, profile = _worker_run_chunk(
        requests, collect_trace, collect_profile
    )
    metrics["test.pool.chunks"] = metrics.get("test.pool.chunks", 0) + 1
    return results, metrics, spans, profile


class TestChunking:
    """How a batch reaches the workers: a small one as one chunk per
    worker, a big one as many chunks; results come back in input order."""

    def test_a_small_batch_is_one_chunk_per_worker(self, monkeypatch):
        import repro.core.service as service_module

        requests = [
            LintRequest(StringSource(page, name=f"doc{i}.html"))
            for i, page in enumerate(DISTINCT_PAGES)
        ]
        expected = LintService().check_many(requests)
        monkeypatch.setattr(service_module, "_worker_run_chunk", count_chunks)
        with use_registry() as registry, WarmPool(LintService(), jobs=2) as pool:
            got = pool.check_batch(requests)
        assert registry.value("test.pool.chunks") == 2
        assert registry.value("lint.files") == 4
        assert [r.name for r in got] == [r.name for r in expected]
        assert [_diag_rows(r) for r in got] == [_diag_rows(r) for r in expected]

    def test_a_big_batch_is_many_chunks(self, monkeypatch):
        import repro.core.service as service_module

        jobs = 2
        requests = [
            LintRequest(
                StringSource(make_document(f"<p>page {i}<img src=x>"), name=f"p{i:03}")
            )
            for i in range(200)
        ]
        monkeypatch.setattr(service_module, "_worker_run_chunk", count_chunks)
        with use_registry() as registry:
            got = LintService().check_many(requests, jobs=jobs)
        assert registry.value("test.pool.chunks") > 2 * jobs
        assert registry.value("lint.files") == 200
        assert registry.value("lint.pool.fallbacks") == 0
        assert [r.name for r in got] == [f"p{i:03}" for i in range(200)]
        assert all(r.diagnostics for r in got)


class TestLifecycleJournal:
    def test_clean_lifecycle(self, tmp_path):
        journal = LifecycleJournal(tmp_path)
        assert journal.started(workers=2, queue_limit=8) is True
        journal.draining()
        journal.stopped(requests=5)
        state = journal.load_state()
        assert state["clean"] is True
        events = [
            json.loads(line)["event"]
            for line in journal.journal_path.read_text().splitlines()
        ]
        assert events == ["started", "draining", "stopped"]

    def test_unclean_start_detected(self, tmp_path):
        with use_registry() as registry:
            journal = LifecycleJournal(tmp_path)
            journal.started(workers=1, queue_limit=1)
            # No stopped(): simulate a crash, then a restart.
            assert LifecycleJournal(tmp_path).started(1, 1) is False
            assert registry.value("daemon.unclean_starts") == 1

    def test_daemon_wires_journal(self, tmp_path):
        with LintDaemon(jobs=1, state_dir=tmp_path) as daemon:
            daemon.check_batch(_requests(1))
        state = LifecycleJournal(tmp_path).load_state()
        assert state["clean"] is True

    def test_journal_cut_at_every_byte(self, tmp_path):
        """The journal is the state: cut a clean lifetime's journal at
        any byte, and the next start is unclean exactly when the whole
        ``started`` line survived without the whole ``stopped`` line."""
        journal = LifecycleJournal(tmp_path / "whole")
        journal.started(workers=2, queue_limit=8)
        journal.draining()
        journal.stopped(requests=5)
        data = journal.journal_path.read_bytes()
        lines = data.splitlines(keepends=True)
        assert [json.loads(line)["event"] for line in lines] == [
            "started", "draining", "stopped",
        ]
        started_end = len(lines[0])
        cut = LifecycleJournal(tmp_path / "cut")
        cut.journal_path.parent.mkdir(parents=True)
        for offset in range(len(data) + 1):
            cut.journal_path.write_bytes(data[:offset])
            state = cut.load_state()
            clean = offset == len(data)
            if offset < started_end:
                assert state is None, offset
            else:
                assert state["clean"] is clean, offset
                assert (state["pid"], state["workers"], state["queue_limit"]) == (
                    os.getpid(), 2, 8,
                )
                assert ("stopped_unix" in state) is clean
            unclean = started_end <= offset and not clean
            with use_registry() as registry:
                assert cut.started(1, 1) is not unclean, offset
                assert registry.value("daemon.unclean_starts") == int(unclean)


# -- over HTTP --------------------------------------------------------------


@pytest.fixture
def served_daemon():
    """A daemon (1 inline worker -- fast) behind a real TCP server."""
    with LintDaemon(jobs=1, queue_limit=8) as daemon:
        web = VirtualWeb()
        gateway = Gateway(service_provider=daemon.service_for)
        with HTTPServer(web, gateway=gateway, daemon=daemon) as server:
            yield daemon, server


class TestDaemonOverHTTP:
    def test_lint_endpoint_matches_local(self, served_daemon):
        daemon, server = served_daemon
        expected = LintService().check(_requests(1)[0])
        status, _headers, payload = http_post(
            f"{server.base_url}/lint",
            encode_batch_request([("doc00.html", PAPER_EXAMPLE)]),
        )
        assert status == 200
        results = decode_batch_response(payload)
        assert _diag_rows(results[0]) == _diag_rows(expected)

    def test_lint_endpoint_options(self, served_daemon):
        _daemon, server = served_daemon
        status, _headers, payload = http_post(
            f"{server.base_url}/lint",
            encode_batch_request(
                [("x.html", GOOD_PAGE)], options={"pedantic": True}
            ),
        )
        assert status == 200
        pedantic = decode_batch_response(payload)[0]
        status, _headers, payload = http_post(
            f"{server.base_url}/lint",
            encode_batch_request([("x.html", GOOD_PAGE)]),
        )
        plain = decode_batch_response(payload)[0]
        assert len(pedantic.diagnostics) > len(plain.diagnostics)

    def test_lint_endpoint_rejects_bad_payloads(self, served_daemon):
        _daemon, server = served_daemon
        status, _headers, payload = http_post(
            f"{server.base_url}/lint", "this is not json"
        )
        assert status == 400 and "error" in json.loads(payload)
        status, _headers, payload = http_post(
            f"{server.base_url}/lint",
            encode_batch_request(
                [("x.html", "<p>")], options={"enable": ["no-such-id"]}
            ),
        )
        assert status == 400
        status, _headers, _payload = http_get(f"{server.base_url}/lint")
        assert status == 405

    def test_healthz(self, served_daemon):
        daemon, server = served_daemon
        status, _headers, payload = http_get(f"{server.base_url}/healthz")
        health = json.loads(payload)
        assert status == 200
        assert health["status"] == "ok"
        assert health["queue_limit"] == daemon.gate.limit

    def test_saturated_answers_429_with_retry_after(self, served_daemon):
        daemon, server = served_daemon
        held = [daemon.gate.try_acquire() for _ in range(daemon.gate.limit)]
        assert all(held)
        try:
            status, headers, payload = http_post(
                f"{server.base_url}/lint",
                encode_batch_request([("x.html", "<p>")]),
            )
            assert status == 429
            assert int(headers["retry-after"]) >= 1
            assert "retry_after" in json.loads(payload)
            status, headers, _payload = http_get(
                f"{server.base_url}/weblint?html=%3Cp%3E"
            )
            assert status == 429 and "retry-after" in headers
        finally:
            for _ in held:
                daemon.gate.release()
        status, _headers, _payload = http_post(
            f"{server.base_url}/lint",
            encode_batch_request([("x.html", "<p>")]),
        )
        assert status == 200

    def test_draining_answers_503(self, served_daemon):
        daemon, server = served_daemon
        daemon.begin_drain()
        status, headers, _payload = http_post(
            f"{server.base_url}/lint",
            encode_batch_request([("x.html", "<p>")]),
        )
        assert status == 503 and "retry-after" in headers
        status, _headers, payload = http_get(f"{server.base_url}/healthz")
        assert json.loads(payload)["status"] == "draining"

    def test_gateway_post_form_body(self, served_daemon):
        """POSTed forms reach the gateway (the lost-body bugfix)."""
        from repro.gateway.forms import percent_encode

        _daemon, server = served_daemon
        status, _headers, body = http_post(
            f"{server.base_url}/weblint",
            f"html={percent_encode(PAPER_EXAMPLE)}",
            content_type="application/x-www-form-urlencoded",
        )
        assert status == 200
        assert "odd number of quotes" in body

    def test_concurrent_traffic_exact_counts(self, served_daemon):
        """N threads hammering /weblint, /lint and /metrics: every
        response whole, requests_served exact."""
        daemon, server = served_daemon
        threads, failures = [], []
        per_thread, n_threads = 4, 8
        lint_body = encode_batch_request([("x.html", PAPER_EXAMPLE)])

        def hammer(index: int) -> None:
            try:
                for turn in range(per_thread):
                    which = (index + turn) % 3
                    if which == 0:
                        status, headers, payload = http_post(
                            f"{server.base_url}/lint", lint_body
                        )
                        assert status == 200
                        assert decode_batch_response(payload)[0].diagnostics
                    elif which == 1:
                        status, headers, payload = http_get(
                            f"{server.base_url}/weblint?html=%3Cp%3Ehi"
                        )
                        assert status == 200
                        assert payload.endswith("</html>\n")
                    else:
                        status, headers, payload = http_get(
                            f"{server.base_url}/metrics"
                        )
                        assert status == 200
                        assert payload.endswith("# EOF\n")
                    assert int(headers["content-length"]) == len(
                        payload.encode("utf-8")
                    )
            except Exception as exc:  # pragma: no cover - failure detail
                failures.append(f"thread {index}: {exc!r}")

        for index in range(n_threads):
            thread = threading.Thread(target=hammer, args=(index,))
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join(timeout=30)
        assert not failures, failures
        assert server.requests_served == per_thread * n_threads
        assert daemon.gate.depth == 0

    def test_drain_completes_in_flight_requests(self):
        """Shutdown with a request mid-lint: the response still lands."""
        with LintDaemon(jobs=1, queue_limit=4) as daemon:
            web = VirtualWeb()
            with HTTPServer(web, daemon=daemon) as server:
                big_batch = encode_batch_request(
                    [(f"d{i}.html", PAPER_EXAMPLE) for i in range(80)]
                )
                outcome: dict[str, object] = {}

                def slow_request() -> None:
                    outcome["response"] = http_post(
                        f"{server.base_url}/lint", big_batch, timeout=30
                    )

                thread = threading.Thread(target=slow_request)
                thread.start()
                deadline = time.monotonic() + 5
                while daemon.gate.depth == 0 and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert daemon.gate.depth >= 1, "request never entered flight"
                daemon.begin_drain()
                assert daemon.gate.wait_idle(timeout_s=30)
                thread.join(timeout=30)
        status, _headers, payload = outcome["response"]
        assert status == 200
        assert len(decode_batch_response(payload)) == 80


# -- the client and the weblint front end -----------------------------------


class TestClient:
    def test_base_url_forms(self):
        assert base_url("127.0.0.1:8080") == "http://127.0.0.1:8080"
        assert base_url(":8080") == "http://127.0.0.1:8080"
        assert base_url("http://lint.local:99/") == "http://lint.local:99"
        with pytest.raises(DaemonClientError):
            base_url("   ")

    def test_remote_check_round_trip(self, served_daemon):
        _daemon, server = served_daemon
        results = remote_check(
            f"127.0.0.1:{server.port}", [("doc.html", PAPER_EXAMPLE)]
        )
        assert results[0].name == "doc.html"
        assert results[0].diagnostics

    def test_remote_check_retries_on_saturation(self, served_daemon):
        daemon, server = served_daemon
        held = [daemon.gate.try_acquire() for _ in range(daemon.gate.limit)]
        assert all(held)
        waits: list[float] = []

        def release_and_note(seconds: float) -> None:
            waits.append(seconds)
            for _ in held:
                daemon.gate.release()
            held.clear()

        results = remote_check(
            f"127.0.0.1:{server.port}",
            [("doc.html", "<p>")],
            sleep=release_and_note,
        )
        assert len(results) == 1 and waits, "client never backed off"

    def test_remote_check_connection_error(self):
        with pytest.raises(DaemonClientError):
            remote_check("127.0.0.1:1", [("d", "<p>")], timeout_s=0.5)


class TestWeblintDaemonFlag:
    def test_cli_checks_through_daemon(self, served_daemon, tmp_path, capsys):
        from repro.cli import main

        _daemon, server = served_daemon
        page = tmp_path / "page.html"
        page.write_text(PAPER_EXAMPLE)
        code = main(["--daemon", f"127.0.0.1:{server.port}", str(page)])
        out = capsys.readouterr().out
        assert code == 1
        assert str(page) in out and "odd number of quotes" in out

    def test_cli_clean_page_exits_zero(self, served_daemon, tmp_path, capsys):
        from repro.cli import main

        _daemon, server = served_daemon
        page = tmp_path / "ok.html"
        page.write_text(GOOD_PAGE)
        assert main(["--daemon", f"127.0.0.1:{server.port}", str(page)]) == 0

    def test_cli_jsonl_streams(self, served_daemon, tmp_path, capsys):
        from repro.cli import main

        _daemon, server = served_daemon
        page = tmp_path / "page.html"
        page.write_text(PAPER_EXAMPLE)
        code = main(
            ["--daemon", f"127.0.0.1:{server.port}", "-f", "jsonl", str(page)]
        )
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert code == 1
        document = next(record for record in lines if "diagnostics" in record)
        assert document["file"] == str(page)
        assert document["count"] == len(document["diagnostics"]) > 0

    @pytest.mark.parametrize(
        "flags",
        [
            (),
            ("--pedantic",),
            ("--preset", "minimal", "--pedantic"),
            ("--pedantic", "--preset", "minimal"),
            ("-x", "netscape", "-d", "img-alt"),
            ("-e", "upper-case,lower-case"),
        ],
    )
    def test_cli_daemon_matches_local(
        self, served_daemon, tmp_path, capsys, flags
    ):
        from repro.cli import main

        _daemon, server = served_daemon
        page = tmp_path / "page.html"
        page.write_text(PAPER_EXAMPLE)
        local = main(["--no-config", "--no-cache", *flags, str(page)])
        local_out = capsys.readouterr().out
        remote = main([
            "--no-config", "--daemon", f"127.0.0.1:{server.port}",
            *flags, str(page),
        ])
        assert (remote, capsys.readouterr().out) == (local, local_out)

    @pytest.mark.parametrize("flag", ["--enable-rule", "--disable-rule"])
    def test_cli_daemon_refuses_rule_flags(
        self, served_daemon, tmp_path, capsys, flag
    ):
        from repro.cli import main

        _daemon, server = served_daemon
        page = tmp_path / "page.html"
        page.write_text(PAPER_EXAMPLE)
        code = main([
            "--daemon", f"127.0.0.1:{server.port}", flag, "images", str(page),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "not supported with --daemon" in captured.err
        assert captured.out == ""

    def test_cli_missing_file_is_usage_error(self, served_daemon, capsys):
        from repro.cli import main

        _daemon, server = served_daemon
        code = main(["--daemon", f"127.0.0.1:{server.port}", "/no/such.html"])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_cli_recurse_unsupported(self, served_daemon, tmp_path, capsys):
        from repro.cli import main

        _daemon, server = served_daemon
        code = main(
            ["--daemon", f"127.0.0.1:{server.port}", "-R", str(tmp_path)]
        )
        assert code == 2
        assert "not supported" in capsys.readouterr().err

    def test_cli_daemon_unreachable(self, tmp_path, capsys):
        from repro.cli import main

        page = tmp_path / "page.html"
        page.write_text("<p>")
        code = main(["--daemon", "127.0.0.1:1", str(page)])
        assert code == 2
        assert "cannot reach lint daemon" in capsys.readouterr().err


#: The checkout under test; the daemon subprocess imports its ``src``.
REPO_ROOT = Path(__file__).resolve().parents[1]


def _spawn_daemon(*args: str):
    """``weblint-daemon ARGS`` as a subprocess; returns it and its port."""
    import re
    import subprocess
    import sys

    process = subprocess.Popen(
        [sys.executable, "-m", "repro.daemon.cli", "--jobs", "1",
         "--max-seconds", "30", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        cwd=REPO_ROOT,
    )
    banner = process.stdout.readline()
    match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
    if match is None:  # pragma: no cover - startup failure
        process.kill()
        process.wait()
        raise AssertionError(f"daemon did not start: {banner!r}")
    return process, int(match.group(1))


def _processes_naming(text: str) -> list[int]:
    """PIDs of live processes whose command line contains ``text``.

    Forked pool workers keep their daemon's command line.  Empty where
    there is no ``/proc``.
    """
    pids = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            if text.encode() in cmdline.read_bytes():
                pids.append(int(cmdline.parent.name))
        except OSError:  # the process ended while we looked
            pass
    return pids


def _stop_daemon(process) -> str:
    """SIGTERM (a graceful drain); returns the rest of its stdout."""
    import signal

    try:
        process.send_signal(signal.SIGTERM)
        out, _err = process.communicate(timeout=20)
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup
            process.kill()
            process.communicate()
    return out


class TestDaemonCLI:
    def test_daemon_cli_serves_and_drains(self, tmp_path):
        """weblint-daemon as a subprocess: serve, SIGTERM, clean ledger,
        and one lifetime's telemetry files."""
        state_dir = tmp_path / "state"
        telemetry = tmp_path / "telemetry"
        process, port = _spawn_daemon(
            "--state-dir", str(state_dir), "--telemetry-dir", str(telemetry)
        )
        try:
            results = remote_check(
                f"127.0.0.1:{port}", [("d.html", PAPER_EXAMPLE)]
            )
            assert results[0].diagnostics
        finally:
            stopped = _stop_daemon(process)
        assert process.returncode == 0
        assert stopped == "weblint daemon stopped (1 requests served, 0 rejected)\n"
        state = LifecycleJournal(state_dir).load_state()
        assert state and state["clean"] is True
        ledger = (state_dir / "runs.jsonl").read_text().splitlines()
        record = json.loads(ledger[-1])
        assert record["tool"] == "weblint-daemon"
        assert record["requests"] == 1
        assert record["rejected"] == 0
        # The state dir holds the ledger; the telemetry dir holds the
        # lifetime's one metric snapshot and its events.
        assert not (telemetry / "runs.jsonl").exists()
        [snapshot] = (telemetry / "metrics.jsonl").read_text().splitlines()
        assert json.loads(snapshot)["metrics"]["daemon.requests"] == 1
        assert (telemetry / "metrics.prom").read_text().endswith("# EOF\n")
        events = [
            json.loads(line)["event"]
            for line in (telemetry / "events.jsonl").read_text().splitlines()
        ]
        assert events[-2:] == ["daemon.draining", "daemon.stopped"]

    def test_killed_daemon_is_an_unclean_start(self, tmp_path):
        """A SIGKILLed lifetime never journals ``stopped``: the next
        start on its state dir records ``previous_clean: false``, and no
        state file besides the journal appears."""
        import signal

        state_dir = tmp_path / "state"
        killed, _port = _spawn_daemon("--state-dir", str(state_dir))
        killed.send_signal(signal.SIGKILL)
        killed.communicate(timeout=20)
        process, _port = _spawn_daemon("--state-dir", str(state_dir))
        _stop_daemon(process)
        assert process.returncode == 0
        journal = LifecycleJournal(state_dir)
        records = [
            json.loads(line)
            for line in journal.journal_path.read_text().splitlines()
        ]
        assert [r["event"] for r in records] == [
            "started", "started", "draining", "stopped",
        ]
        assert records[1]["previous_clean"] is False
        assert journal.load_state()["clean"] is True
        assert [p.name for p in (state_dir / "daemon").iterdir()] == [
            "journal.jsonl"
        ]
        assert _processes_naming(str(state_dir)) == []

    def test_site_dir_serves_the_gateway_form(self, tmp_path, capsys):
        """/weblint?url= on ``--site-dir`` answers with the page's report,
        the body the CGI gateway prints for the same form."""
        from repro.gateway.cli import main as gateway_main

        site = tmp_path / "site"
        site.mkdir()
        (site / "x.html").write_text(PAPER_EXAMPLE)
        form = "url=http%3A%2F%2Flocalhost%2Fx.html"
        assert gateway_main(["--site-dir", str(site), "--no-header", form]) == 0
        report = capsys.readouterr().out
        assert "7 problem(s) found." in report
        process, port = _spawn_daemon("--site-dir", str(site))
        try:
            status, _headers, body = http_get(
                f"http://127.0.0.1:{port}/weblint?{form}"
            )
        finally:
            _stop_daemon(process)
        assert status == 200
        assert body == report
