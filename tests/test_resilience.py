"""Tests for the fault-tolerant fetch stack.

Covers the fault-injecting virtual web (:mod:`repro.www.faults`), the
resilient ``UserAgent`` (retry/backoff/timeout/Retry-After/circuit
breaker), and the concurrent crawl frontier -- including the golden
guarantee that a concurrent crawl over a faulty site produces exactly
the sequential report.

The full-crawl scenarios read their fault seed from ``WEBLINT_FAULT_SEED``
so CI can re-run them under different deterministic fault placements.
"""

from __future__ import annotations

import os

import pytest

from repro.obs import use_registry
from repro.robot.poacher import Poacher
from repro.robot.traversal import Robot, TraversalPolicy
from repro.www.client import (
    CircuitBreaker,
    FetchError,
    HostUnavailableError,
    RetryPolicy,
    UserAgent,
)
from repro.www.faults import ConnectionFault, FaultInjector, TimeoutFault
from repro.www.virtualweb import VirtualWeb
from tests.conftest import make_document

FAULT_SEED = int(os.environ.get("WEBLINT_FAULT_SEED", "20260806"))


def no_sleep(_seconds: float) -> None:
    """Fake sleep for tests -- latency simulation without wall time."""


@pytest.fixture
def web():
    instance = VirtualWeb(sleep=no_sleep)
    instance.add_page("http://h/", make_document("<p>home</p>"))
    instance.add_page("http://h/a.html", make_document("<p>page a</p>"))
    return instance


def resilient_agent(web, sleeps=None, **kwargs):
    kwargs.setdefault("retry", RetryPolicy(max_retries=3, backoff_base_s=0.01))
    return UserAgent(
        web,
        sleep=(sleeps.append if sleeps is not None else no_sleep),
        **kwargs,
    )


class TestFaultInjection:
    def test_transient_status_then_recovery(self, web):
        web.add_fault("http://h/a.html", status=503, times=2)
        plain = UserAgent(web)
        assert plain.get("http://h/a.html").status == 503
        assert plain.get("http://h/a.html").status == 503
        assert plain.get("http://h/a.html").status == 200

    def test_connection_fault_raises_transport_error(self, web):
        web.kill_host("h")
        with pytest.raises(FetchError, match="connection failed"):
            UserAgent(web).get("http://h/a.html")

    def test_host_rule_counts_per_url(self, web):
        web.add_fault(host="h", status=500, times=1)
        plain = UserAgent(web)
        assert plain.get("http://h/").status == 500
        # a.html has its own budget: its first request still faults.
        assert plain.get("http://h/a.html").status == 500
        assert plain.get("http://h/").status == 200

    def test_rate_faults_are_deterministic(self):
        one = FaultInjector(seed=7)
        two = FaultInjector(seed=7)
        for injector in (one, two):
            injector.add_fault(rate=0.5, status=503, times=None)
        urls = [f"http://h/p{i}.html" for i in range(20)]
        pattern = [
            one.fault_for(url, "h") is not None for url in urls for _ in range(4)
        ]
        repeat = [
            two.fault_for(url, "h") is not None for url in urls for _ in range(4)
        ]
        assert pattern == repeat
        assert any(pattern) and not all(pattern)

    def test_rate_faults_bounded_by_max_run(self):
        injector = FaultInjector(seed=FAULT_SEED)
        injector.add_fault(rate=0.95, status=503, times=None, max_run=2)
        # With max_run=2, any 3 consecutive attempts contain a success.
        for url in (f"http://h/p{i}.html" for i in range(10)):
            outcomes = [
                injector.fault_for(url, "h") is not None for _ in range(9)
            ]
            for i in range(len(outcomes) - 2):
                assert not all(outcomes[i:i + 3])

    def test_latency_respects_timeout(self):
        sleeps = []
        web = VirtualWeb(sleep=sleeps.append)
        web.add_page("http://slow/x.html", "body")
        web.set_latency(host="slow", seconds=5.0)
        agent = UserAgent(web, timeout_s=0.5)
        with pytest.raises(FetchError, match="timed out"):
            agent.get("http://slow/x.html")
        assert sleeps == [0.5]  # slept only the timeout, not the latency

    def test_latency_without_timeout_just_sleeps(self):
        sleeps = []
        web = VirtualWeb(sleep=sleeps.append)
        web.add_page("http://slow/x.html", "body")
        web.set_latency(url="http://slow/x.html", seconds=0.2)
        assert UserAgent(web).get("http://slow/x.html").ok
        assert sleeps == [0.2]


class TestRetryPolicy:
    def test_retries_transient_5xx_to_success(self, web):
        web.add_fault("http://h/a.html", status=503, times=2)
        with use_registry() as registry:
            response = resilient_agent(web).get("http://h/a.html")
            assert response.ok
            assert registry.value("www.retry.attempts") == 2

    def test_persistent_5xx_returns_last_response(self, web):
        web.add_fault("http://h/a.html", status=500, times=None)
        with use_registry() as registry:
            response = resilient_agent(web).get("http://h/a.html")
            assert response.status == 500
            assert registry.value("www.retry.giveups") == 1

    def test_deterministic_4xx_not_retried(self, web):
        agent = resilient_agent(web)
        response = agent.get("http://h/missing.html")
        assert response.status == 404
        assert agent.requests_made == 1

    def test_transport_errors_retried_then_raise(self, web):
        web.kill_host("h")
        agent = resilient_agent(web)
        with pytest.raises(FetchError, match="could not fetch"):
            agent.get("http://h/a.html")
        assert agent.requests_made == 4  # 1 + 3 retries

    def test_backoff_grows_and_is_deterministic(self, web):
        web.add_fault("http://h/a.html", status=503, times=3)
        first, second = [], []
        resilient_agent(web, sleeps=first).get("http://h/a.html")
        web.add_fault("http://h/a.html", status=503, times=3)
        resilient_agent(web, sleeps=second).get("http://h/a.html")
        assert first == second  # jitter is a pure function of (url, attempt)
        assert len(first) == 3
        assert first[0] < first[1] < first[2]

    def test_retry_after_honored(self, web):
        web.add_fault(
            "http://h/a.html", status=429, times=1, retry_after=1.5
        )
        sleeps = []
        with use_registry() as registry:
            response = resilient_agent(web, sleeps=sleeps).get("http://h/a.html")
            assert response.ok
            assert sleeps == [1.5]  # far above the exponential schedule
            assert registry.value("www.retry.retry_after_honored") == 1

    def test_truncated_body_retried(self, web):
        web.add_fault(
            "http://h/a.html", kind="truncate", truncate_to=3, times=1
        )
        with use_registry() as registry:
            response = resilient_agent(web).get("http://h/a.html")
            assert response.ok
            assert "page a" in response.body
            assert registry.value("www.fetch.truncated") == 1

    def test_persistent_truncation_raises(self, web):
        web.add_fault(
            "http://h/a.html", kind="truncate", truncate_to=3, times=None
        )
        with pytest.raises(FetchError, match="truncated"):
            resilient_agent(web).get("http://h/a.html")

    def test_bare_agent_unchanged(self, web):
        """Without a RetryPolicy the agent is the paper's simple client."""
        web.add_fault("http://h/a.html", status=503, times=1)
        agent = UserAgent(web)
        assert agent.get("http://h/a.html").status == 503
        assert agent.requests_made == 1


class TestCircuitBreaker:
    def make(self, web, **kwargs):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=kwargs.pop("failure_threshold", 3),
            reset_after_s=kwargs.pop("reset_after_s", 30.0),
            clock=lambda: clock["now"],
        )
        agent = UserAgent(web, breaker=breaker, **kwargs)
        return agent, breaker, clock

    def test_opens_after_threshold_and_short_circuits(self, web):
        web.kill_host("h")
        agent, breaker, _ = self.make(web)
        for _ in range(3):
            with pytest.raises(FetchError):
                agent.get("http://h/a.html")
        assert breaker.state("h") == CircuitBreaker.OPEN
        wire_requests = len(web.request_log)
        with pytest.raises(HostUnavailableError):
            agent.get("http://h/a.html")
        assert len(web.request_log) == wire_requests  # fail-fast, no wire

    def test_half_open_probe_closes_on_recovery(self, web):
        web.add_fault(host="h", kind="connection", times=3)
        agent, breaker, clock = self.make(web)
        for _ in range(3):
            with pytest.raises(FetchError):
                agent.get("http://h/a.html")
        clock["now"] = 31.0
        assert agent.get("http://h/a.html").ok  # the probe succeeds
        assert breaker.state("h") == CircuitBreaker.CLOSED

    def test_failed_probe_reopens(self, web):
        web.kill_host("h")
        agent, breaker, clock = self.make(web)
        for _ in range(3):
            with pytest.raises(FetchError):
                agent.get("http://h/a.html")
        clock["now"] = 31.0
        with pytest.raises(FetchError):
            agent.get("http://h/a.html")  # probe fails
        assert breaker.state("h") == CircuitBreaker.OPEN
        with pytest.raises(HostUnavailableError):
            agent.get("http://h/a.html")

    def test_breaker_is_per_host(self, web):
        web.add_page("http://ok/x.html", "fine")
        web.kill_host("h")
        agent, breaker, _ = self.make(web)
        for _ in range(3):
            with pytest.raises(FetchError):
                agent.get("http://h/a.html")
        assert agent.get("http://ok/x.html").ok
        assert breaker.open_hosts() == ["h"]


def build_fault_site(seed: int = FAULT_SEED) -> VirtualWeb:
    """The acceptance scenario: 20% transient 5xx, a dead host, a slow host."""
    web = VirtualWeb(faults=FaultInjector(seed=seed), sleep=no_sleep)
    pages = {
        "index.html": make_document(
            '<p><a href="a.html">a</a> <a href="b.html">b</a> '
            '<a href="http://dead.example/x.html">dead</a> '
            '<a href="http://slow.example/s.html">slow</a> '
            '<a href="gone.html">gone</a></p>'
        ),
        "a.html": make_document('<p><a href="c.html">c</a></p>'),
        "b.html": make_document('<p><a href="c.html">c</a></p>'),
        "c.html": make_document("<p>leaf</p>"),
    }
    web.add_site("http://h/", pages)
    web.add_page("http://slow.example/s.html", make_document("<p>slow</p>"))
    web.add_broken("http://h/gone.html", status=404)
    web.add_fault(host="h", status=503, rate=0.2, times=None, max_run=2)
    web.kill_host("dead.example")
    web.set_latency(host="slow.example", seconds=0.5)
    return web


def crawl_policy(concurrency: int) -> TraversalPolicy:
    return TraversalPolicy(
        same_host_only=False,
        obey_robots_txt=False,
        concurrency=concurrency,
    )


def report_fingerprint(report):
    return (
        [
            (
                page.url,
                [(d.message_id, d.line, d.text) for d in page.diagnostics],
                [(link.url, status.status) for link, status in page.broken_links],
                sorted(link.url for link in page.bad_fragments),
            )
            for page in report.pages
        ],
        report.pages_failed,
        report.pages_http_error,
        report.broken_pages,
        report.unreachable_pages,
    )


class TestFaultySiteCrawl:
    def crawl(self, concurrency: int):
        web = build_fault_site()
        agent = UserAgent(
            web,
            retry=RetryPolicy(max_retries=3, backoff_base_s=0.001),
            sleep=no_sleep,
        )
        poacher = Poacher(agent, policy=crawl_policy(concurrency))
        report = poacher.crawl("http://h/index.html")
        return report, poacher.robot.stats

    def test_sequential_crawl_classifies_outcomes(self):
        report, stats = self.crawl(concurrency=1)
        # Every reachable page was fetched despite the 20% fault rate.
        assert sorted(page.url for page in report.pages) == [
            "http://h/a.html",
            "http://h/b.html",
            "http://h/c.html",
            "http://h/index.html",
            "http://slow.example/s.html",
        ]
        assert stats.pages_http_error == 1  # gone.html: persistent 404
        assert stats.http_error_urls == {"http://h/gone.html": 404}
        assert stats.pages_failed == 1  # the dead host: transport
        assert list(stats.failed_urls) == ["http://dead.example/x.html"]
        assert report.broken_pages == [("http://h/gone.html", 404)]
        text = "\n".join(report.summary_lines())
        assert "broken page http://h/gone.html: HTTP 404" in text
        assert "unreachable page http://dead.example/x.html" in text

    def test_concurrent_crawl_report_is_golden(self):
        sequential, _ = self.crawl(concurrency=1)
        concurrent, _ = self.crawl(concurrency=4)
        assert report_fingerprint(concurrent) == report_fingerprint(sequential)
        # Order too, not just content: waves fold back in frontier order.
        assert [p.url for p in concurrent.pages] == [
            p.url for p in sequential.pages
        ]


class TestConcurrentFrontier:
    def test_visited_order_matches_sequential(self):
        def build():
            web = VirtualWeb(sleep=no_sleep)
            web.add_site("http://h/", {
                "index.html": make_document(
                    '<p><a href="p1.html">1</a> <a href="p2.html">2</a> '
                    '<a href="p3.html">3</a></p>'
                ),
                "p1.html": make_document('<p><a href="p4.html">4</a></p>'),
                "p2.html": make_document('<p><a href="p4.html">4</a></p>'),
                "p3.html": make_document("<p>leaf</p>"),
                "p4.html": make_document("<p>leaf</p>"),
            })
            return UserAgent(web)

        sequential = Robot(build()).crawl("http://h/index.html")
        robot = Robot(build(), TraversalPolicy(concurrency=3))
        concurrent = robot.crawl("http://h/index.html")
        assert concurrent == sequential

    def test_frontier_metrics_recorded(self):
        web = VirtualWeb(sleep=no_sleep)
        web.add_site("http://h/", {
            "index.html": make_document(
                '<p><a href="p1.html">1</a> <a href="p2.html">2</a></p>'
            ),
            "p1.html": make_document("<p>leaf</p>"),
            "p2.html": make_document("<p>leaf</p>"),
        })
        with use_registry() as registry:
            Robot(
                UserAgent(web), TraversalPolicy(concurrency=2)
            ).crawl("http://h/index.html")
            assert registry.value("robot.frontier.admitted") == 3
            snap = registry.snapshot()
            assert snap["robot.frontier.workers"]["max"] == 2
            # The queue drained: its gauge peaked while pages were
            # discovered and sits at zero now.
            assert snap["robot.frontier.queue_depth"]["value"] == 0
            assert snap["robot.frontier.queue_depth"]["max"] >= 1
            assert snap["robot.frontier.slots_busy"]["value"] == 0
            assert snap["robot.frontier.slots_busy.h"]["max"] >= 1

    def test_politeness_delay_spaces_same_host_fetches(self):
        web = VirtualWeb(sleep=no_sleep)
        web.add_site("http://h/", {
            "index.html": make_document(
                '<p><a href="p1.html">1</a> <a href="p2.html">2</a> '
                '<a href="p3.html">3</a></p>'
            ),
            "p1.html": make_document("<p>leaf</p>"),
            "p2.html": make_document("<p>leaf</p>"),
            "p3.html": make_document("<p>leaf</p>"),
        })
        policy = TraversalPolicy(
            concurrency=3, per_host_delay_s=0.02, max_in_flight_per_host=2
        )
        with use_registry() as registry:
            visited = Robot(UserAgent(web), policy).crawl("http://h/index.html")
            assert len(visited) == 4
            # The wave of three leaf pages had to wait behind the gap.
            waits = registry.snapshot().get("robot.frontier.host_wait_ms")
            assert waits is not None and waits["count"] >= 1

    def test_max_pages_cutoff_matches_sequential_prefix(self):
        def build():
            web = VirtualWeb(sleep=no_sleep)
            web.add_site("http://h/", {
                "index.html": make_document(
                    "<p>" + " ".join(
                        f'<a href="p{i}.html">{i}</a>' for i in range(6)
                    ) + "</p>"
                ),
                **{
                    f"p{i}.html": make_document("<p>leaf</p>")
                    for i in range(6)
                },
            })
            return UserAgent(web)

        policy = TraversalPolicy(max_pages=4)
        sequential = Robot(build(), policy).crawl("http://h/index.html")
        concurrent = Robot(
            build(), TraversalPolicy(max_pages=4, concurrency=3)
        ).crawl("http://h/index.html")
        assert concurrent == sequential
