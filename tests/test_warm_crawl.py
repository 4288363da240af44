"""A warm crawl reads no stored body: one content digest keys both caches.

The HTTP cache names each stored body by its content digest and records
its length, and the lint cache keys a result by the same digest, so a
page that revalidates (``304``) and whose lint record is cached is
audited without its body being read (``HttpCache.body_by_digest`` is
never called).  A body is read -- once, its digest checked -- only for a
lint that misses; a body that is gone or damaged by then is fetched
again, and a failed refetch, or one that serves other text, is that
page's error, not the crawl's.  State an older version wrote (a
version-1 index without lengths, a version-4 lint log, a frontier
journal) reloads cold and still gives the same report.
"""

from __future__ import annotations

import collections
import io
import json
from pathlib import Path

import pytest

from repro.config.options import Options
from repro.core.cache import ResultCache, result_key
from repro.core.reporter import JsonlReporter
from repro.core.service import LintService
from repro.obs import use_registry
from repro.robot.frontier import FrontierJournal
from repro.robot.poacher import Poacher
from repro.robot.traversal import Robot, TraversalPolicy
from repro.site.report import render_text_report
from repro.store import content_digest
from repro.workload import PageGenerator
from repro.www.client import UserAgent
from repro.www.faults import ConnectionFault
from repro.www.httpcache import FORMAT_VERSION as HTTP_INDEX_VERSION, HttpCache
from repro.www.message import Headers, Response
from repro.www.virtualweb import VirtualWeb

SITE = PageGenerator(seed=11).site(40)
ROOT = "http://localhost/"
START = ROOT + "index.html"


@pytest.fixture(scope="module")
def site_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("site")
    for name, text in SITE.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


def mount(site_dir: Path) -> VirtualWeb:
    web = VirtualWeb()
    web.add_site(ROOT, site_dir)
    return web


def pedantic() -> Options:
    """An option set whose lint records no default crawl stored."""
    options = Options.with_defaults()
    options.enable("upper-case")
    return options


def crawl(
    web,
    state: Path,
    stream: bool = False,
    jobs: int = 1,
    options: Options | None = None,
    resume: bool = False,
    max_pages: int = 1000,
) -> str:
    """One ``poacher --state-dir`` crawl; returns what it reports.

    The buffered crawl's summary and diagnostics, or the streamed
    crawl's jsonl lines (sorted) and rollup.
    """
    http_cache = HttpCache(state / "http")
    http_cache.load()
    poacher = Poacher(
        UserAgent(web, http_cache=http_cache),
        service=LintService(options=options, cache=ResultCache(state / "lint")),
        policy=TraversalPolicy(concurrency=jobs, max_pages=max_pages),
        journal=FrontierJournal(state / "frontier"),
    )
    if stream:
        out = io.StringIO()
        reporter = JsonlReporter().begin(out)
        rollup = poacher.crawl_stream(
            START, report_dir=state / "report", on_result=reporter.emit,
            resume=resume,
        )
        reporter.end()
        text = "".join(sorted(out.getvalue().splitlines(True)))
        text += render_text_report(rollup)
    else:
        report = poacher.crawl(START, resume=resume)
        text = "\n".join(
            report.summary_lines()
            + [str(d) for page in report.pages for d in page.diagnostics]
        )
    http_cache.save()
    return text


@pytest.fixture
def body_reads(monkeypatch) -> list[str]:
    """The digest of every ``HttpCache.body_by_digest`` call."""
    reads: list[str] = []
    original = HttpCache.body_by_digest

    def counting(self, digest):
        reads.append(digest)
        return original(self, digest)

    monkeypatch.setattr(HttpCache, "body_by_digest", counting)
    return reads


def body_file(state: Path, name: str) -> Path:
    return state / "http" / "bodies" / f"{content_digest(SITE[name])}.body"


class TestWarmCrawlReadsNoBody:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("stream", [False, True])
    def test_a_warm_crawl_opens_no_body_and_reports_the_same(
        self, site_dir, tmp_path, body_reads, stream, jobs
    ):
        web = mount(site_dir)
        state = tmp_path / "state"
        cold = crawl(web, state, stream=stream, jobs=jobs)
        body_reads.clear()
        with use_registry() as registry:
            warm = crawl(web, state, stream=stream, jobs=jobs)
        assert warm == cold
        assert body_reads == []
        assert registry.value("www.conditional.revalidated") == len(SITE)
        assert registry.value("www.conditional.body_reads") == 0
        assert registry.value("cache.lint.hits") == len(SITE)


class TestLintMisses:
    def test_every_missed_record_reads_each_body_once(
        self, site_dir, tmp_path, body_reads
    ):
        web = mount(site_dir)
        state = tmp_path / "state"
        crawl(web, state)
        reference = crawl(web, tmp_path / "fresh", options=pedantic())
        body_reads.clear()
        with use_registry() as registry:
            warm = crawl(web, state, options=pedantic())
        assert warm == reference
        # One read per page, each checked against its digest.
        assert collections.Counter(body_reads) == {
            content_digest(text): 1 for text in SITE.values()
        }
        assert registry.value("www.conditional.body_reads") == len(SITE)
        assert registry.value("cache.lint.misses") == len(SITE)
        assert registry.value("www.conditional.lost_body") == 0


class TestLostBodies:
    """A body the index vouches for but the store lost by the time a
    lint miss reads it: one unconditional GET, as for a ``304`` whose
    body the cache knows it lacks."""

    @pytest.mark.parametrize("damage", ["missing", "damaged"])
    def test_a_body_lost_after_load_is_fetched_again(
        self, site_dir, tmp_path, monkeypatch, damage
    ):
        web = mount(site_dir)
        state = tmp_path / "state"
        crawl(web, state, stream=True)
        reference = crawl(web, tmp_path / "fresh", stream=True, options=pedantic())
        lost = body_file(state, "index.html")
        original_load = HttpCache.load

        def load_then_lose(self):
            loaded = original_load(self)  # lists the body as held
            if damage == "missing":
                lost.unlink()
            else:
                lost.write_text("<p>not what was stored</p>", encoding="utf-8")
            return loaded

        monkeypatch.setattr(HttpCache, "load", load_then_lose)
        with use_registry() as registry:
            warm = crawl(web, state, stream=True, options=pedantic())
        assert warm == reference
        assert registry.value("www.conditional.lost_body") == 1
        assert registry.value("www.conditional.revalidated") == len(SITE)
        # The refetch stored the body again.
        assert lost.read_text(encoding="utf-8") == SITE["index.html"]

    @staticmethod
    def lose_for_good(web, state: Path, page: str, monkeypatch):
        """Lose ``page``'s stored body after ``load()`` listed it, and
        make the full GET that would fetch it again fail; returns the
        web to crawl."""
        name = page[len(ROOT):]
        body_file(state, name).unlink()
        original_load = HttpCache.load

        def load_stale(self):
            loaded = original_load(self)
            self._held.add(content_digest(SITE[name]))  # listed, then lost
            return loaded

        monkeypatch.setattr(HttpCache, "load", load_stale)

        class RefusesFullGets:
            """Answers conditional GETs; a full GET of ``page`` fails."""

            def handle(self, request):
                if request.url == page and "If-None-Match" not in request.headers:
                    raise ConnectionFault(f"connection failed: {page}")
                return web.handle(request)

        return RefusesFullGets()

    @pytest.mark.parametrize("stream", [False, True])
    def test_a_failed_refetch_is_the_pages_error(
        self, site_dir, tmp_path, monkeypatch, stream
    ):
        web = mount(site_dir)
        state = tmp_path / "state"
        crawl(web, state)
        page = ROOT + "index.html"
        refusing = self.lose_for_good(web, state, page, monkeypatch)
        with use_registry() as registry:
            warm = crawl(refusing, state, stream=stream, options=pedantic())
        assert registry.value("www.conditional.lost_body") == 1
        if stream:
            records = [json.loads(line) for line in warm.splitlines() if line.startswith("{")]
            errors = [record for record in records if "error" in record]
            assert [record["file"] for record in errors] == [page]
            assert "connection failed" in errors[0]["error"]
        else:
            assert f"  unreachable page {page}: could not fetch {page}" in warm
            assert f"  {page}: " not in warm

    def test_a_refetch_that_serves_other_text_is_the_pages_error(
        self, site_dir, tmp_path, monkeypatch
    ):
        """The page changed between its ``304`` and the read of its lost
        body: the new text is not linted under the old text's digest."""
        web = mount(site_dir)
        state = tmp_path / "state"
        crawl(web, state)
        page = ROOT + "index.html"
        body_file(state, "index.html").unlink()
        original_load = HttpCache.load

        def load_stale(self):
            loaded = original_load(self)
            self._held.add(content_digest(SITE["index.html"]))
            return loaded

        monkeypatch.setattr(HttpCache, "load", load_stale)

        class ChangedSinceItsValidator:
            """Answers conditional GETs as before; a full GET of
            ``page`` serves new text."""

            def handle(self, request):
                if request.url == page and "If-None-Match" not in request.headers:
                    return Response(
                        status=200, url=page, body="<p>changed</p>",
                        headers=Headers({"Content-Type": "text/html"}),
                    )
                return web.handle(request)

        with use_registry() as registry:
            warm = crawl(
                ChangedSinceItsValidator(), state, stream=True, options=pedantic()
            )
        assert registry.value("www.conditional.lost_body") == 1
        records = [json.loads(line) for line in warm.splitlines() if line.startswith("{")]
        errors = [record for record in records if "error" in record]
        assert [record["file"] for record in errors] == [page]
        assert "changed since it was revalidated" in errors[0]["error"]
        # Nothing was stored under the old text's key.
        fingerprint = LintService(options=pedantic()).cache_fingerprint()
        old_key = result_key(None, fingerprint, content_digest(SITE["index.html"]))
        assert ResultCache(state / "lint").get(old_key) is None

    def test_a_failed_refetch_leaves_a_robot_scan_going(
        self, site_dir, tmp_path, monkeypatch
    ):
        """A page no callback processes is scanned for links by the
        robot; one whose body is lost for good just yields none."""
        web = mount(site_dir)
        state = tmp_path / "state"
        crawl(web, state)
        page = ROOT + "index.html"
        refusing = self.lose_for_good(web, state, page, monkeypatch)
        http_cache = HttpCache(state / "http")
        http_cache.load()
        with use_registry() as registry:
            visited = Robot(UserAgent(refusing, http_cache=http_cache)).crawl(START)
        assert visited == [page]  # its links were never read
        assert registry.value("www.conditional.lost_body") == 1


class TestStateAnOlderVersionWrote:
    """A version-1 HTTP index (no lengths), a version-4 lint log and a
    frontier journal, as the version before this layout left them."""

    @staticmethod
    def age(state: Path) -> None:
        index_path = state / "http" / "index.json"
        index = json.loads(index_path.read_text())
        index["version"] = 1
        for entry in index["entries"].values():
            del entry["length"]
        index_path.write_text(json.dumps(index, indent=2, sort_keys=True))
        (state / "lint" / "v5").rename(state / "lint" / "v4")

    def test_an_old_state_dir_gives_the_same_report(
        self, site_dir, tmp_path, body_reads
    ):
        web = mount(site_dir)
        state = tmp_path / "state"
        cold = crawl(web, state, stream=True)
        self.age(state)
        body_reads.clear()
        # Slow once: the old index reloads cold, so every page is
        # fetched in full and linted again, and the index is rewritten
        # with lengths.
        with use_registry() as registry:
            assert crawl(web, state, stream=True) == cold
        assert registry.value("www.httpcache.corrupt") == 1
        assert registry.value("www.conditional.requests") == 0
        assert registry.value("cache.lint.misses") == len(SITE)
        assert body_reads == []
        index = json.loads((state / "http" / "index.json").read_text())
        assert index["version"] == HTTP_INDEX_VERSION == 2
        assert all(
            entry["length"] == len(SITE[url[len(ROOT):]])
            for url, entry in index["entries"].items()
        )
        with use_registry() as registry:
            assert crawl(web, state, stream=True) == cold
        assert body_reads == []
        assert registry.value("www.conditional.revalidated") == len(SITE)
        # The version-4 log was never read, and clearing removes it.
        assert (state / "lint" / "v4" / "results.jsonl").exists()
        ResultCache(state / "lint").clear()
        assert not (state / "lint" / "v4").exists()

    def test_a_resume_from_an_old_state_dir(self, site_dir, tmp_path):
        web = mount(site_dir)
        uninterrupted = crawl(web, tmp_path / "whole")
        state = tmp_path / "state"
        # A crawl that stopped early: its journal holds completed pages.
        crawl(web, state, max_pages=10)
        self.age(state)
        assert crawl(web, state, resume=True) == uninterrupted
