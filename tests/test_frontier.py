"""Tests for the streaming crawl frontier.

Covers the scheduler (priority order, dupefilter, per-host downloader
slots, admission budget), the disk-backed journal (round-trip, fsync
checkpoints, corruption tolerance), kill/resume end to end (a resumed
crawl's report is byte-identical to an uninterrupted one and refetches
no completed page), and the streamed site checker.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.robot.frontier as frontier
from repro.config.options import Options
from repro.core.cache import ResultCache
from repro.core.service import LintService
from repro.obs import use_registry
from repro.robot.frontier import (
    FrontierJournal,
    FrontierScheduler,
    request_fingerprint,
)
from repro.robot.poacher import Poacher
from repro.robot.traversal import Robot, TraversalPolicy, followed_urls
from repro.site.links import extract_links
from repro.store import content_digest, read_log
from repro.workload import PageGenerator
from repro.www.client import UserAgent
from repro.www.httpcache import HttpCache
from repro.www.virtualweb import VirtualWeb
from tests.conftest import make_document


def no_sleep(_seconds: float) -> None:
    """Latency simulation without wall time."""


def page_gets(web: VirtualWeb, url: str) -> int:
    """How many requests the virtual web actually served for ``url``."""
    return sum(1 for request in web.request_log if request.url == url)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# Request fingerprints (the dupefilter key)


class TestRequestFingerprint:
    def test_fragment_and_case_normalised(self):
        base = request_fingerprint("http://h/page.html")
        assert request_fingerprint("http://h/page.html#top") == base
        assert request_fingerprint("HTTP://H/page.html") == base

    def test_distinct_paths_distinct_fingerprints(self):
        assert request_fingerprint("http://h/a.html") != request_fingerprint(
            "http://h/b.html"
        )


# ---------------------------------------------------------------------------
# The scheduler


class TestFrontierScheduler:
    def test_priority_is_depth_then_discovery_order(self):
        with use_registry():
            scheduler = FrontierScheduler()
            scheduler.push("http://h/deep.html", 2)
            scheduler.push("http://h/shallow.html", 1)
            scheduler.push("http://h/also-shallow.html", 1)
            order = []
            while True:
                request = scheduler.poll()
                if request is None:
                    break
                order.append(request.url)
                scheduler.offer(request, None)
            assert order == [
                "http://h/shallow.html",
                "http://h/also-shallow.html",
                "http://h/deep.html",
            ]

    def test_dupefilter_admits_each_url_once(self):
        with use_registry():
            scheduler = FrontierScheduler()
            assert scheduler.mark_seen("http://h/p.html")
            assert not scheduler.mark_seen("http://h/p.html")
            assert not scheduler.mark_seen("http://h/p.html#frag")
            assert not scheduler.mark_seen("HTTP://H:80/p.html")
            assert not scheduler.mark_seen("http://h/p.html#other")

    def test_admission_budget_is_exact(self):
        with use_registry():
            scheduler = FrontierScheduler(max_pages=2)
            for name in ("a", "b", "c"):
                scheduler.push(f"http://h/{name}.html", 0)
            assert scheduler.poll() is not None
            assert scheduler.poll() is not None
            assert scheduler.poll() is None  # budget spent, never discards
            assert scheduler.queued == 1

    def test_saturated_host_parks_but_other_hosts_flow(self):
        with use_registry():
            scheduler = FrontierScheduler(max_in_flight_per_host=1)
            scheduler.push("http://slow/a.html", 0)
            scheduler.push("http://slow/b.html", 0)
            scheduler.push("http://fast/c.html", 1)
            first = scheduler.poll()
            assert first.url == "http://slow/a.html"
            # slow's only slot is busy: its next request parks, but the
            # deeper fast-host request is not held up behind it.
            second = scheduler.poll()
            assert second.url == "http://fast/c.html"
            assert scheduler.poll() is None
            scheduler.offer(first, None)
            third = scheduler.poll()
            assert third.url == "http://slow/b.html"

    def test_politeness_delay_gates_fetch_starts(self):
        clock = FakeClock()
        with use_registry() as registry:
            scheduler = FrontierScheduler(per_host_delay_s=1.0, clock=clock)
            scheduler.push("http://h/a.html", 0)
            scheduler.push("http://h/b.html", 0)
            first = scheduler.poll()
            assert first is not None
            scheduler.offer(first, None)
            assert scheduler.poll() is None  # inside the politeness gap
            clock.advance(1.5)
            second = scheduler.poll()
            assert second is not None and second.url == "http://h/b.html"
            snapshot = registry.snapshot()
            assert snapshot["robot.frontier.host_wait_ms"]["count"] == 1

    def test_slot_gauges_track_busy_hosts(self):
        with use_registry() as registry:
            scheduler = FrontierScheduler()
            scheduler.push("http://h/a.html", 0)
            request = scheduler.poll()
            assert registry.gauge("robot.frontier.slots_busy").value == 1
            assert registry.gauge("robot.frontier.slots_busy.h").value == 1
            assert scheduler.busiest_slot() == ("h", 1, 4)
            scheduler.offer(request, None)
            assert registry.gauge("robot.frontier.slots_busy").value == 0


# ---------------------------------------------------------------------------
# The journal


class TestFrontierJournal:
    START = "http://h/index.html"

    def _journal(self, tmp_path, **kwargs):
        return FrontierJournal(tmp_path / "frontier", **kwargs)

    def test_round_trip(self, tmp_path):
        with use_registry():
            journal = self._journal(tmp_path)
            journal.start(self.START)
            journal.enqueued(self.START, 0, 0)
            journal.enqueued("http://h/a.html", 1, 1)
            journal.completed({
                "t": "ok", "url": self.START, "final": self.START,
                "d": 0, "sha": "x", "ct": "text/html", "n": 10, "html": True,
            })
            journal.close()

            state = self._journal(tmp_path).load(self.START)
            assert state is not None
            assert state.pending == [(1, 1, "http://h/a.html")]
            assert [r["t"] for r in state.outcomes] == ["ok"]
            assert request_fingerprint("http://h/a.html") in state.seen
            assert state.next_seq == 2

    def test_checkpoint_compacts_and_survives(self, tmp_path):
        with use_registry() as registry:
            journal = self._journal(tmp_path)
            journal.start(self.START)
            journal.enqueued(self.START, 0, 0)
            journal.completed({"t": "err", "url": self.START, "status": 404})
            before = journal.journal_path.read_bytes()
            journal.checkpoint()
            # A checkpoint is an fsync point: the journal stays whole and
            # is the only frontier file.
            assert journal.journal_path.read_bytes() == before
            assert len(before.splitlines()) == 3
            assert registry.value("robot.frontier.checkpoints") == 1
            assert sorted(p.name for p in journal.directory.iterdir()) == [
                "journal.jsonl"
            ]
            journal.close()

            state = self._journal(tmp_path).load(self.START)
            assert state is not None
            assert state.outcomes == [
                {"t": "err", "url": self.START, "status": 404}
            ]
            assert state.pending == []

    def test_checkpoint_fires_callback(self, tmp_path):
        saves = []
        with use_registry():
            journal = self._journal(
                tmp_path, checkpoint_every=2,
                on_checkpoint=lambda: saves.append(1),
            )
            journal.start(self.START)
            journal.completed({"t": "dup", "url": "http://h/a.html"})
            assert not saves
            journal.completed({"t": "dup", "url": "http://h/b.html"})
            assert saves == [1]
            journal.close()

    def test_torn_final_line_is_tolerated(self, tmp_path):
        with use_registry():
            journal = self._journal(tmp_path)
            journal.start(self.START)
            journal.enqueued(self.START, 0, 0)
            journal.close()
            with journal.journal_path.open("a") as handle:
                handle.write('{"t": "ok", "url": "http')  # killed mid-write
            state = self._journal(tmp_path).load(self.START)
            assert state is not None
            assert state.pending == [(0, 0, self.START)]

    def test_unparseable_whole_last_line_is_corrupt(self, tmp_path):
        # Only an unterminated last line is a torn append; a whole line
        # that does not parse is corruption wherever it sits.
        with use_registry() as registry:
            journal = self._journal(tmp_path)
            journal.start(self.START)
            journal.enqueued(self.START, 0, 0)
            journal.close()
            with journal.journal_path.open("a") as handle:
                handle.write('{"t": "ok", "url": "http\n')
            assert self._journal(tmp_path).load(self.START) is None
            assert registry.value("robot.frontier.journal_corrupt") == 1

    def test_corrupt_interior_line_means_clean_restart(self, tmp_path):
        with use_registry() as registry:
            journal = self._journal(tmp_path)
            journal.start(self.START)
            journal.enqueued(self.START, 0, 0)
            journal.close()
            lines = journal.journal_path.read_text().splitlines()
            lines.insert(1, "not json at all")
            journal.journal_path.write_text("\n".join(lines) + "\n")
            assert self._journal(tmp_path).load(self.START) is None
            assert registry.value("robot.frontier.journal_corrupt") == 1

    def test_different_start_url_does_not_resume(self, tmp_path):
        with use_registry():
            journal = self._journal(tmp_path)
            journal.start(self.START)
            journal.enqueued(self.START, 0, 0)
            journal.close()
            assert self._journal(tmp_path).load("http://h/other.html") is None

    def test_empty_state_does_not_resume(self, tmp_path):
        with use_registry():
            assert self._journal(tmp_path).load(self.START) is None


# ---------------------------------------------------------------------------
# Crawl-level behaviour


#: A three-level site with a broken link and a dead-end page.
SITE = {
    "index.html": make_document(
        '<p><a href="a.html">a</a> <a href="b.html">b</a> '
        '<a href="missing.html">gone</a></p>'
    ),
    "a.html": make_document(
        '<p><a href="sub/c.html">c</a> <a href="index.html">up</a></p>'
    ),
    "b.html": make_document('<p><a href="sub/d.html">d</a></p>'),
    "sub/c.html": make_document("<p>leaf c</p>"),
    "sub/d.html": make_document('<p><a href="e.html">e</a></p>'),
    "sub/e.html": make_document("<p>leaf e</p>"),
}

#: Every page build_site serves, as absolute URLs (successes only).
SITE_URLS = sorted(f"http://h/{name}" for name in SITE)


def build_site(web: VirtualWeb) -> None:
    web.add_site("http://h/", SITE)


def lint_options() -> Options:
    options = Options.with_defaults()
    options.follow_links = False
    return options


def crawl_report_text(web, policy) -> str:
    poacher = Poacher(UserAgent(web), options=lint_options(), policy=policy)
    report = poacher.crawl("http://h/index.html")
    return "\n".join(report.summary_lines())


class TestStreamingCrawl:
    def test_report_identical_across_worker_counts(self):
        baseline = None
        for jobs in (1, 4, 8):
            web = VirtualWeb(sleep=no_sleep)
            build_site(web)
            with use_registry():
                text = crawl_report_text(web, TraversalPolicy(concurrency=jobs))
            if baseline is None:
                baseline = text
            else:
                assert text == baseline, f"jobs={jobs} diverged"
        assert "missing.html: HTTP 404" in baseline

    def test_max_pages_admission_is_exact(self):
        web = VirtualWeb(sleep=no_sleep)
        web.add_site("http://h/", dict(
            {"index.html": make_document(
                "<p>" + " ".join(
                    f'<a href="p{i}.html">{i}</a>' for i in range(10)
                ) + "</p>"
            )},
            **{
                f"p{i}.html": make_document(f"<p>leaf {i}</p>")
                for i in range(10)
            },
        ))
        with use_registry() as registry:
            robot = Robot(
                UserAgent(web),
                TraversalPolicy(max_pages=5, concurrency=4),
            )
            visited = robot.crawl("http://h/index.html")
            fetches = sum(
                1 for request in web.request_log
                if not request.url.endswith("/robots.txt")
            )
            # The scheduler stops *admitting* at the cap: exactly five
            # fetches were issued, none discarded mid-flight.
            assert fetches == 5
            assert registry.value("robot.frontier.admitted") == 5
            assert robot.stats.pages_fetched == 5
            assert len(visited) == 5

    def test_warm_crawl_fingerprints_each_spelling_once(
        self, tmp_path, monkeypatch
    ):
        web = VirtualWeb(sleep=no_sleep)
        web.add_site("http://localhost/", PageGenerator(seed=3).site(12))

        def crawl():
            http_cache = HttpCache(tmp_path / "http")
            http_cache.load()
            service = LintService(cache=ResultCache(tmp_path / "lint"))
            agent = UserAgent(web, http_cache=http_cache)
            rollup = Poacher(agent, service=service).crawl_stream(
                "http://localhost/index.html"
            )
            http_cache.save()
            return rollup

        with use_registry():
            cold = crawl()
        offered: list[str] = []
        fingerprinted: list[str] = []
        mark_seen = FrontierScheduler.mark_seen

        def counting_mark_seen(scheduler, url):
            offered.append(url)
            return mark_seen(scheduler, url)

        def counting_fingerprint(url):
            fingerprinted.append(url)
            return request_fingerprint(url)

        monkeypatch.setattr(FrontierScheduler, "mark_seen", counting_mark_seen)
        monkeypatch.setattr(frontier, "request_fingerprint", counting_fingerprint)
        with use_registry() as registry:
            warm = crawl()
            assert registry.value("www.conditional.revalidated") == 12
            assert registry.value("cache.lint.hits") == 12
        assert warm == cold
        assert len(offered) > len(set(offered))  # pages share links
        assert sorted(fingerprinted) == sorted(set(offered))

    def test_visited_is_sorted_canonically(self):
        web = VirtualWeb(sleep=no_sleep)
        build_site(web)
        with use_registry():
            visited = Robot(
                UserAgent(web), TraversalPolicy(concurrency=4)
            ).crawl("http://h/index.html")
        assert visited == SITE_URLS


class TestKillAndResume:
    def _state(self, tmp_path, name):
        state = tmp_path / name
        http_cache = HttpCache(state / "http")
        journal = FrontierJournal(state / "frontier")
        return http_cache, journal

    def _poacher(self, web, http_cache, journal, max_pages=1000):
        return Poacher(
            UserAgent(web, http_cache=http_cache),
            options=lint_options(),
            policy=TraversalPolicy(max_pages=max_pages),
            journal=journal,
        )

    def test_resume_merges_to_identical_report(self, tmp_path):
        baseline_web = VirtualWeb(sleep=no_sleep)
        build_site(baseline_web)
        http_cache, journal = self._state(tmp_path, "baseline")
        with use_registry():
            baseline = self._poacher(
                baseline_web, http_cache, journal
            ).crawl("http://h/index.html")
        baseline_text = "\n".join(baseline.summary_lines())

        web = VirtualWeb(sleep=no_sleep)
        build_site(web)
        http_cache, journal = self._state(tmp_path, "killed")
        with use_registry():
            partial = self._poacher(
                web, http_cache, journal, max_pages=3
            ).crawl("http://h/index.html")
        assert len(partial.pages) == 3
        # Deliberately no http_cache.save(): a SIGTERM would not have
        # saved the index either.  Bodies persist at store time.

        http_cache, journal = self._state(tmp_path, "killed")
        with use_registry() as registry:
            resumed = self._poacher(web, http_cache, journal).crawl(
                "http://h/index.html", resume=True
            )
            assert registry.value("robot.frontier.resumed_pages") == 3
            assert registry.value("robot.frontier.resume_refetched") == 0
        assert "\n".join(resumed.summary_lines()) == baseline_text
        # Zero completed pages were refetched across the two runs.
        for page in partial.pages:
            assert page_gets(web, page.url) == 1

    def test_hard_abort_then_resume(self, tmp_path):
        web = VirtualWeb(sleep=no_sleep)
        build_site(web)

        consumed = []

        def dying_on_page(url, response):
            consumed.append(url)
            if len(consumed) == 3:
                raise RuntimeError("simulated kill")
            return followed_urls(url, extract_links(response.body))

        http_cache, journal = self._state(tmp_path, "state")
        with use_registry():
            robot = Robot(
                UserAgent(web, http_cache=http_cache),
                TraversalPolicy(),
                journal=journal,
            )
            with pytest.raises(RuntimeError):
                robot.crawl("http://h/index.html", dying_on_page)
        # The third page raised before its completion record landed.
        completed = consumed[:2]

        http_cache, journal = self._state(tmp_path, "state")
        with use_registry():
            robot = Robot(
                UserAgent(web, http_cache=http_cache),
                TraversalPolicy(),
                journal=journal,
            )
            visited = robot.crawl("http://h/index.html", resume=True)
        assert visited == SITE_URLS
        for url in completed:
            assert page_gets(web, url) == 1

    def test_corrupt_journal_restarts_clean(self, tmp_path):
        web = VirtualWeb(sleep=no_sleep)
        build_site(web)
        http_cache, journal = self._state(tmp_path, "state")
        with use_registry():
            self._poacher(web, http_cache, journal, max_pages=3).crawl(
                "http://h/index.html"
            )
        journal_path = tmp_path / "state" / "frontier" / "journal.jsonl"
        lines = journal_path.read_text().splitlines(keepends=True)
        lines[2] = "{nope\n"
        journal_path.write_text("".join(lines))

        http_cache, journal = self._state(tmp_path, "state")
        with use_registry() as registry:
            resumed = self._poacher(web, http_cache, journal).crawl(
                "http://h/index.html", resume=True
            )
            # Corrupt state never crashes: the crawl restarted cold.
            assert registry.value("robot.frontier.journal_corrupt") >= 1
            assert registry.value("robot.frontier.resumed_pages") == 0
        assert len(resumed.pages) == 6

    def test_evicted_body_is_refetched_not_fatal(self, tmp_path):
        web = VirtualWeb(sleep=no_sleep)
        build_site(web)
        http_cache, journal = self._state(tmp_path, "state")
        with use_registry():
            partial = self._poacher(web, http_cache, journal, max_pages=3).crawl(
                "http://h/index.html"
            )
        assert partial.page("http://h/a.html") is not None
        body_file = (
            tmp_path / "state" / "http" / "bodies"
            / f"{content_digest(SITE['a.html'])}.body"
        )
        assert body_file.exists()
        body_file.unlink()

        http_cache, journal = self._state(tmp_path, "state")
        with use_registry() as registry:
            resumed = self._poacher(web, http_cache, journal).crawl(
                "http://h/index.html", resume=True
            )
            assert registry.value("robot.frontier.resume_refetched") == 1
            assert registry.value("robot.frontier.resumed_pages") == 2
        assert len(resumed.pages) == 6
        assert page_gets(web, "http://h/a.html") == 2


    def test_abort_resume_abort_resume(self, tmp_path):
        baseline_web = VirtualWeb(sleep=no_sleep)
        build_site(baseline_web)
        http_cache, journal = self._state(tmp_path, "baseline")
        with use_registry():
            baseline = self._poacher(
                baseline_web, http_cache, journal
            ).crawl("http://h/index.html")

        web = VirtualWeb(sleep=no_sleep)
        build_site(web)
        serve = web.handle

        def killed_at(url):
            def handle(request):
                if request.method == "GET" and request.url == url:
                    raise RuntimeError(f"simulated kill fetching {url}")
                return serve(request)
            return handle

        state = tmp_path / "state"
        for kill_url in ("http://h/b.html", "http://h/sub/d.html", None):
            web.handle = killed_at(kill_url) if kill_url else serve
            http_cache = HttpCache(state / "http")
            journal = FrontierJournal(
                state / "frontier", checkpoint_every=2,
                on_checkpoint=http_cache.save,
            )
            poacher = self._poacher(web, http_cache, journal)
            with use_registry() as registry:
                if kill_url is None:
                    resumed = poacher.crawl("http://h/index.html", resume=True)
                else:
                    with pytest.raises(RuntimeError):
                        poacher.crawl("http://h/index.html", resume=True)
                assert registry.value("robot.frontier.checkpoints") >= 1
        assert resumed.summary_lines() == baseline.summary_lines()
        # A killed fetch never reached the server, and every completed
        # page was restored: each page was served exactly once.
        for url in SITE_URLS + ["http://h/missing.html"]:
            assert page_gets(web, url) == 1, url
        # Both resumes appended to the journal they replayed.
        records, corrupt = read_log(journal.journal_path)
        assert corrupt == 0
        assert [r["t"] for r in records].count("frontier") == 1
        assert sorted(r["url"] for r in records if r["t"] == "ok") == SITE_URLS


@pytest.fixture(scope="class")
def finished_crawl(tmp_path_factory):
    """A finished crawl's state dir and its report."""
    state = tmp_path_factory.mktemp("finished")
    web = VirtualWeb(sleep=no_sleep)
    build_site(web)
    with use_registry():
        report = resume_poacher(web, state).crawl("http://h/index.html")
    return state, report.summary_lines()


def resume_poacher(web, state):
    http_cache = HttpCache(state / "http")
    return Poacher(
        UserAgent(web, http_cache=http_cache),
        options=lint_options(),
        journal=FrontierJournal(state / "frontier"),
    )


class TestResumeFromAnyCut:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_cut_journal_resumes_to_the_same_report(self, finished_crawl, data):
        finished, summary = finished_crawl
        with tempfile.TemporaryDirectory() as tmp:
            state = Path(tmp) / "state"
            shutil.copytree(finished, state)
            journal_path = state / "frontier" / "journal.jsonl"
            whole = journal_path.read_bytes()
            cut = data.draw(st.integers(0, len(whole)), label="cut")
            journal_path.write_bytes(whole[:cut])
            survived = [
                record["url"] for record in read_log(journal_path)[0]
                if record["t"] == "ok"
            ]
            web = VirtualWeb(sleep=no_sleep)
            build_site(web)
            with use_registry():
                resumed = resume_poacher(web, state).crawl(
                    "http://h/index.html", resume=True
                )
            assert resumed.summary_lines() == summary
            assert [url for url in survived if page_gets(web, url)] == []
