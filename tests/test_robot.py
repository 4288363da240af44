"""Tests for the traversal engine, link checker and poacher."""

from __future__ import annotations

import pytest

from repro.config.options import Options
from repro.robot.linkcheck import LinkChecker
from repro.robot.poacher import Poacher
from repro.robot.traversal import Robot, TraversalPolicy, followed_urls
from repro.site.links import extract_links
from repro.www.client import UserAgent
from repro.www.virtualweb import VirtualWeb
from tests.conftest import make_document


@pytest.fixture
def web():
    instance = VirtualWeb()
    instance.add_site(
        "http://h/",
        {
            "index.html": make_document(
                '<p><a href="one.html">page one</a> and '
                '<a href="two.html">page two</a></p>'
            ),
            "one.html": make_document(
                '<p><a href="two.html">page two</a> and '
                '<a href="missing.html">a broken link</a></p>'
            ),
            "two.html": make_document(
                '<p><a href="index.html">back home</a> and '
                '<a href="http://elsewhere/x.html">offsite</a></p>'
            ),
        },
    )
    # The offsite target exists, so only missing.html is a broken link.
    instance.add_page("http://elsewhere/x.html", "offsite content")
    return instance


@pytest.fixture
def agent(web):
    return UserAgent(web)


class TestTraversal:
    def test_bfs_visits_reachable_pages(self, agent):
        visited = Robot(agent).crawl("http://h/index.html")
        assert set(visited) == {
            "http://h/index.html",
            "http://h/one.html",
            "http://h/two.html",
        }

    def test_each_page_fetched_once(self, web, agent):
        Robot(agent).crawl("http://h/index.html")
        assert web.hit_counts["http://h/index.html"] == 1

    def test_same_host_policy(self, agent):
        robot = Robot(agent)
        robot.crawl("http://h/index.html")
        assert robot.stats.urls_skipped_offsite >= 1

    def test_max_pages(self, agent):
        policy = TraversalPolicy(max_pages=1)
        visited = Robot(agent, policy).crawl("http://h/index.html")
        assert len(visited) == 1

    def test_on_page_callback(self, agent):
        seen = []

        def on_page(url, response):
            links = extract_links(response.body)
            seen.append((url, len(links)))
            return followed_urls(url, links)  # what the robot follows

        visited = Robot(agent).crawl("http://h/index.html", on_page=on_page)
        assert ("http://h/index.html", 2) in seen
        assert [url for url, _ in sorted(seen)] == visited

    def test_robots_txt_honoured(self, web, agent):
        web.add_robots_txt("http://h/", "User-agent: *\nDisallow: /one.html\n")
        robot = Robot(agent)
        visited = robot.crawl("http://h/index.html")
        assert "http://h/one.html" not in visited
        assert robot.stats.urls_skipped_robots == 1

    def test_robots_txt_ignored_when_disabled(self, web, agent):
        web.add_robots_txt("http://h/", "User-agent: *\nDisallow: /\n")
        policy = TraversalPolicy(obey_robots_txt=False)
        visited = Robot(agent, policy).crawl("http://h/index.html")
        assert len(visited) == 3

    def test_failed_pages_counted(self, web, agent):
        web.remove("http://h/two.html")
        robot = Robot(agent)
        robot.crawl("http://h/index.html")
        # two.html (removed) and missing.html (never existed) both 404:
        # persistent HTTP errors, not transport failures.
        assert robot.stats.pages_http_error == 2
        assert robot.stats.pages_failed == 0
        assert robot.stats.http_error_urls == {
            "http://h/two.html": 404,
            "http://h/missing.html": 404,
        }

    def test_transport_failures_classified_separately(self, web, agent):
        web.kill_host("h")
        robot = Robot(agent)
        robot.crawl("http://h/index.html")
        assert robot.stats.pages_failed == 1
        assert robot.stats.pages_http_error == 0
        assert "http://h/index.html" in robot.stats.failed_urls

    def test_non_html_not_parsed(self, web, agent):
        web.add_page("http://h/data.txt", "just text", content_type="text/plain")
        web.add_page(
            "http://h/solo.html",
            make_document('<p><a href="data.txt">the data file</a></p>'),
        )
        visited = Robot(agent).crawl("http://h/solo.html")
        assert "http://h/data.txt" in visited  # fetched...
        # ...but its "links" were never extracted (no crash, no growth).


class TestLinkChecker:
    def test_broken_link(self, agent):
        status = LinkChecker(agent).check("http://h/index.html", "missing.html")
        assert status.broken and status.status == 404

    def test_ok_link(self, agent):
        status = LinkChecker(agent).check("http://h/index.html", "one.html")
        assert status.ok

    def test_redirect_reported(self, web, agent):
        web.add_redirect("http://h/moved.html", "/one.html", permanent=True)
        status = LinkChecker(agent).check("http://h/index.html", "moved.html")
        assert status.ok
        assert status.redirected_to == "http://h/one.html"
        assert "moved" in status.describe()

    def test_cache_prevents_refetch(self, web, agent):
        checker = LinkChecker(agent)
        checker.check("http://h/index.html", "one.html")
        checker.check("http://h/two.html", "one.html")
        assert checker.checked_count == 1
        assert web.hit_counts["http://h/one.html"] == 1

    def test_broken_links_listing(self, agent):
        checker = LinkChecker(agent)
        statuses = [
            checker.check("http://h/", "missing.html"),
            checker.check("http://h/", "one.html"),
        ]
        assert [s.url for s in statuses if s.broken] == [
            "http://h/missing.html"
        ]


class TestPoacher:
    def test_crawl_report(self, agent):
        report = Poacher(agent).crawl("http://h/index.html")
        assert len(report.pages) == 3
        assert report.total_broken_links() == 1

    def test_broken_link_located(self, agent):
        report = Poacher(agent).crawl("http://h/index.html")
        page = report.page("http://h/one.html")
        (link, status) = page.broken_links[0]
        assert link.url == "missing.html"
        assert status.status == 404

    def test_lint_messages_per_page(self, web, agent):
        web.add_page(
            "http://h/messy.html",
            "<h1>broken</h2>",
        )
        web.add_page(
            "http://h/entry.html",
            make_document('<p><a href="messy.html">the messy page</a></p>'),
        )
        report = Poacher(agent).crawl("http://h/entry.html")
        messy = report.page("http://h/messy.html")
        assert any(
            d.message_id == "heading-mismatch" for d in messy.diagnostics
        )

    def test_clean_pages(self, agent):
        report = Poacher(agent).crawl("http://h/index.html")
        assert "http://h/index.html" in report.clean_pages()

    def test_no_link_validation_when_disabled(self, agent):
        options = Options.with_defaults()
        options.follow_links = False
        report = Poacher(agent, options=options).crawl("http://h/index.html")
        assert report.total_broken_links() == 0

    def test_summary_lines(self, agent):
        report = Poacher(agent).crawl("http://h/index.html")
        text = "\n".join(report.summary_lines())
        assert "crawled 3 page(s)" in text
        assert "broken link missing.html" in text


class TestFragmentChecking:
    @pytest.fixture
    def fragment_web(self):
        from tests.conftest import make_document

        web = VirtualWeb()
        web.add_page(
            "http://h/index.html",
            make_document(
                '<p><a href="t.html#real">good</a> '
                '<a href="t.html#nope">bad</a> '
                '<a href="#local">self good</a> '
                '<a href="#selfbad">self bad</a> '
                '<a name="local">anchor here</a></p>'
            ),
        )
        web.add_page(
            "http://h/t.html",
            make_document(
                '<p><a name="real">target anchor</a> and '
                '<a href="index.html">back home</a></p>'
            ),
        )
        return web

    def test_bad_fragments_reported(self, fragment_web):
        report = Poacher(UserAgent(fragment_web)).crawl("http://h/index.html")
        page = report.page("http://h/index.html")
        assert sorted(l.url for l in page.bad_fragments) == [
            "#selfbad", "t.html#nope",
        ]

    def test_good_fragments_quiet(self, fragment_web):
        report = Poacher(UserAgent(fragment_web)).crawl("http://h/index.html")
        page = report.page("http://h/index.html")
        urls = {l.url for l in page.bad_fragments}
        assert "t.html#real" not in urls and "#local" not in urls

    def test_fragments_count_as_problems(self, fragment_web):
        report = Poacher(UserAgent(fragment_web)).crawl("http://h/index.html")
        assert report.total_problems() == 2

    def test_configurable(self, fragment_web):
        options = Options.with_defaults()
        options.disable("bad-fragment")
        report = Poacher(
            UserAgent(fragment_web), options=options
        ).crawl("http://h/index.html")
        page = report.page("http://h/index.html")
        assert page.bad_fragments == []

    def test_fragment_to_missing_page_is_only_broken_link(self, fragment_web):
        from tests.conftest import make_document

        fragment_web.add_page(
            "http://h/solo.html",
            make_document('<p><a href="gone.html#x">dangling</a></p>'),
        )
        report = Poacher(UserAgent(fragment_web)).crawl("http://h/solo.html")
        page = report.page("http://h/solo.html")
        assert len(page.broken_links) == 1
        assert page.bad_fragments == []

    def test_own_fragments_judged_without_refetching_the_page(
        self, fragment_web
    ):
        fragment_web.add_page(
            "http://h/self.html",
            make_document(
                '<p><a name="here">anchor</a> <a href="#here">good</a> '
                '<a href="self.html#here">good, by name</a> '
                '<a href="self.html#gone">bad, by name</a></p>'
            ),
        )
        report = Poacher(UserAgent(fragment_web)).crawl("http://h/self.html")
        page = report.page("http://h/self.html")
        assert [link.url for link in page.bad_fragments] == ["self.html#gone"]
        gets = [
            request.url for request in fragment_web.request_log
            if request.method == "GET"
        ]
        assert gets.count("http://h/self.html") == 1

    def test_summary_mentions_fragments(self, fragment_web):
        report = Poacher(UserAgent(fragment_web)).crawl("http://h/index.html")
        text = "\n".join(report.summary_lines())
        assert "fragment of t.html#nope" in text
