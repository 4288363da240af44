"""Poacher: crawl a site, weblint every page, validate every link.

The paper's poacher "can be used to invoke weblint on all accessible
pages on a site ... Poacher also performs basic link validation"
(section 4.5).  The robot for Canon's public search engine "uses weblint
to check all of Canon's public web pages" (section 5.3) -- the embedding
this class makes a one-liner::

    report = Poacher(agent).crawl("http://site/")
    report.total_problems()

Every crawled page goes through one audit, :meth:`Poacher._audit`: lint
the body -- the same pass, or the lint cache, yields the page's links
and anchors -- validate each link once in link order, build the page's
``bad-link`` / ``bad-fragment`` findings, and hand the robot the
absolute URLs the link check resolved, which it then follows.  The lint
cache is keyed by the response's content digest, so a page the HTTP
cache revalidated is audited from its cached record without its stored
body being read.  :meth:`Poacher.crawl` keeps the resulting
:class:`PageResult` objects as a buffered :class:`CrawlReport`;
:meth:`Poacher.crawl_stream` folds the same diagnostics into a bounded
rollup as pages complete.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from repro.config.options import Options
from repro.core.diagnostics import Diagnostic, encode_diagnostics
from repro.core.service import (
    DocumentSource,
    LintRequest,
    LintResult,
    LintService,
    SourceError,
)
from repro.robot.frontier import FrontierJournal, shard_owns
from repro.robot.linkcheck import FragmentChecker, LinkChecker, LinkStatus
from repro.robot.traversal import CrawlProgress, Robot, TraversalPolicy, followed_urls
from repro.site.links import Link, judge_link
from repro.site.rollup import PAGES_FILENAME, ROLLUP_FILENAME, PageSpill, SiteRollup
from repro.www.client import FetchError, UserAgent
from repro.www.message import Response
from repro.www.url import urlparse


@dataclass
class PageResult:
    """Everything poacher learned about one page."""

    url: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    links: list[Link] = field(default_factory=list)
    broken_links: list[tuple[Link, LinkStatus]] = field(default_factory=list)
    moved_links: list[tuple[Link, LinkStatus]] = field(default_factory=list)
    bad_fragments: list[Link] = field(default_factory=list)
    size_bytes: int = 0

    def problem_count(self) -> int:
        return (
            len(self.diagnostics)
            + len(self.broken_links)
            + len(self.bad_fragments)
        )


class _PageSource(DocumentSource):
    """A crawled page: known to the lint cache by its response's digest,
    and read only by a lint that needs the text."""

    def __init__(self, url: str, response: Response) -> None:
        self.name = url
        self._response = response

    @property
    def digest(self) -> str:
        return self._response.digest

    def _read(self) -> str:
        try:
            return self._response.body
        except FetchError as exc:  # a lost stored body whose refetch failed
            raise SourceError(str(exc)) from exc


@dataclass
class _Audit:
    """One page's audit.

    ``lint`` is the page's lint result -- an error when its body could
    not be read, and then nothing else is set -- ``findings`` its
    ``bad-link`` / ``bad-fragment`` diagnostics in link order, and
    ``follow`` the absolute URLs the robot follows from it.
    """

    lint: LintResult
    page: PageResult
    findings: list[Diagnostic] = field(default_factory=list)
    follow: list[str] = field(default_factory=list)


@dataclass
class CrawlReport:
    """Site-wide crawl summary."""

    start_url: str
    pages: list[PageResult] = field(default_factory=list)
    #: URLs that never produced an HTTP response (transport failures).
    pages_failed: int = 0
    #: URLs whose final response was a persistent non-2xx status.
    pages_http_error: int = 0
    urls_skipped_robots: int = 0
    #: (url, status) for every persistent HTTP error -- broken pages.
    broken_pages: list[tuple[str, int]] = field(default_factory=list)
    #: (url, error text) for every transport failure, including a page
    #: whose lost stored body could not be fetched again.
    unreachable_pages: list[tuple[str, str]] = field(default_factory=list)

    def page(self, url: str) -> Optional[PageResult]:
        for result in self.pages:
            if result.url == url:
                return result
        return None

    def total_problems(self) -> int:
        return sum(page.problem_count() for page in self.pages)

    def total_broken_links(self) -> int:
        return sum(len(page.broken_links) for page in self.pages)

    def clean_pages(self) -> list[str]:
        return [page.url for page in self.pages if page.problem_count() == 0]

    def summary_lines(self) -> list[str]:
        """A human-readable crawl summary (what the CLI prints)."""
        lines = [
            f"poacher: crawled {len(self.pages)} page(s) from {self.start_url}",
        ]
        for page in self.pages:
            lines.append(
                f"  {page.url}: {len(page.diagnostics)} weblint message(s), "
                f"{len(page.broken_links)} broken link(s)"
            )
            for link, status in page.broken_links:
                lines.append(
                    f"    line {link.line}: broken link {link.url} "
                    f"({status.describe()})"
                )
            for link, status in page.moved_links:
                lines.append(
                    f"    line {link.line}: link {link.url} has moved "
                    f"({status.describe()})"
                )
            for link in page.bad_fragments:
                lines.append(
                    f"    line {link.line}: fragment of {link.url} "
                    f"is not defined on the target page"
                )
        for url, status in self.broken_pages:
            lines.append(f"  broken page {url}: HTTP {status}")
        for url, error in self.unreachable_pages:
            lines.append(f"  unreachable page {url}: {error}")
        lines.append(
            f"total: {self.total_problems()} problem(s), "
            f"{self.total_broken_links()} broken link(s)"
        )
        return lines


class Poacher:
    """The crawling front-end to weblint."""

    def __init__(
        self,
        agent: UserAgent,
        options: Optional[Options] = None,
        policy: Optional[TraversalPolicy] = None,
        service: Optional[LintService] = None,
        journal: Optional[FrontierJournal] = None,
    ) -> None:
        self.agent = agent
        if service is None:
            service = LintService(options=options)
        self.service = service
        self.options = service.options
        self.policy = policy if policy is not None else TraversalPolicy()
        self.robot = Robot(agent, self.policy, journal=journal)
        self.link_checker = LinkChecker(agent)
        self.fragment_checker = FragmentChecker(agent)

    def _audit(self, url: str, response: Response) -> _Audit:
        """Lint one crawled page and validate each of its links once.

        The one per-page audit behind both crawl modes.  Its
        :class:`PageResult` alone also keeps the moved links, because
        redirects are not problems; its findings are as
        :func:`~repro.site.links.judge_link` decides them.  A fragment
        into the page itself is judged by the page's own anchors.  The
        URLs to follow are the ones the link check resolved.  With
        ``follow_links`` off no link is checked at all, and the followed
        links are resolved here.
        """
        lint = self.service.check(
            LintRequest(_PageSource(url, response), links=True)
        )
        result = PageResult(url=url, size_bytes=response.length)
        audit = _Audit(lint, result)
        if not lint.ok:
            return audit
        links, anchors = lint.links, lint.anchors
        result.diagnostics = lint.diagnostics
        result.links = links
        if not self.options.follow_links:
            audit.follow = followed_urls(url, links)
            return audit
        findings, follow = audit.findings, audit.follow
        fragment_defined = self.fragment_checker.fragment_defined
        this_page = LinkStatus(url=url, status=response.status, ok=True)
        page = urlparse(url)
        for link in links:
            if link.is_fragment_only:
                status = this_page
            elif link.checkable:
                status = self.link_checker.check(page, link.url)
                if link.followed:
                    follow.append(status.url)
                if status.ok and status.redirected_to:
                    result.moved_links.append((link, status))
            else:
                continue
            if status.url == url:  # this page: its anchors are scanned
                defined = anchors.__contains__
            else:
                defined = lambda _: fragment_defined(page, link.url)
            finding = judge_link(
                link.url, status.ok, status.describe(), defined,
                page=url, line=link.line, options=self.options,
            )
            if finding is None:
                continue
            findings.append(finding)
            if finding.message_id == "bad-link":
                result.broken_links.append((link, status))
            else:
                result.bad_fragments.append(link)
        return audit

    def crawl(
        self,
        start_url: str,
        progress: Optional[CrawlProgress] = None,
        resume: bool = False,
    ) -> CrawlReport:
        """Crawl, lint and link-check everything reachable.

        ``progress`` (built with ``CrawlProgress(poacher.robot, ...)``)
        renders a live one-line report on its stream for the duration
        of the crawl.  ``resume=True`` (requires a journal) replays a
        killed crawl's persisted frontier before fetching anything new;
        the merged report is identical to an uninterrupted crawl's.
        """
        report = CrawlReport(start_url=start_url)
        #: (url, error) for pages whose stored body was lost for good.
        unread: list[tuple[str, str]] = []

        def on_page(url: str, response: Response) -> list[str]:
            audit = self._audit(url, response)
            if audit.lint.ok:
                report.pages.append(audit.page)
            else:
                unread.append((url, audit.lint.error))
            return audit.follow

        self.robot.crawl(start_url, on_page, progress=progress, resume=resume)
        # Pages arrive in completion order; the canonical report sorts
        # by URL so any worker count yields identical bytes.
        report.pages.sort(key=lambda page: page.url)
        stats = self.robot.stats
        report.pages_failed = stats.pages_failed
        report.pages_http_error = stats.pages_http_error
        report.urls_skipped_robots = stats.urls_skipped_robots
        report.broken_pages = sorted(stats.http_error_urls.items())
        report.unreachable_pages = sorted([*stats.failed_urls.items(), *unread])
        return report

    def crawl_stream(
        self,
        start_url: str,
        report_dir: Optional[Union[str, Path]] = None,
        progress: Optional[CrawlProgress] = None,
        resume: bool = False,
        on_result: Optional[Callable[[LintResult], None]] = None,
    ) -> SiteRollup:
        """Crawl and roll up, never holding the whole audit in memory.

        The streaming counterpart of :meth:`crawl`, over the same
        per-page audit: each page's lint diagnostics and link findings
        fold into a bounded :class:`~repro.site.rollup.SiteRollup` the
        moment the frontier completes it.  With ``report_dir`` the full
        per-page diagnostics spill to ``report_dir/pages.jsonl`` and the
        rollup is saved as ``rollup.json`` when the crawl ends.
        ``on_result`` observes every page as a ``LintResult`` in
        completion order -- what ``poacher --format jsonl`` streams to
        stdout.

        With ``TraversalPolicy.shards > 1`` only the owned partition of
        pages (and of crawl failures) is rolled up; merge the shard
        report directories with ``repro.tools.merge_shards``.
        (Unlike :meth:`crawl`'s report, the rollup does not track
        merely *moved* links -- redirects are not problems.)
        """
        rollup = SiteRollup(root=start_url)
        spill: Optional[PageSpill] = None
        if report_dir is not None:
            report_dir = Path(report_dir)
            spill = PageSpill(report_dir / PAGES_FILENAME)

        def emit(result: LintResult) -> None:
            # The spill and ``on_result`` write the same encoded rows:
            # the result encodes its diagnostics once, for both.
            if spill is not None:
                spill.write_page(result)
            if on_result is not None:
                on_result(result)

        def on_page(url: str, response: Response) -> list[str]:
            audit = self._audit(url, response)
            lint = audit.lint
            if not lint.ok:
                rollup.note_page_error()
                emit(lint)
                return audit.follow
            diagnostics = [*lint.diagnostics, *audit.findings]
            rollup.add_page(url, diagnostics)
            if spill is not None or on_result is not None:
                # The lint result's rows were encoded for its cache
                # record (or are encoded now, once); only the link
                # findings are new.
                encoded = lint.encoded.followed_by(
                    encode_diagnostics(audit.findings)
                )
                emit(LintResult(name=url, diagnostics=diagnostics, encoded=encoded))
            return audit.follow

        try:
            self.robot.crawl(
                start_url, on_page, progress=progress, resume=resume
            )
            # Crawl failures fold in at the end, filtered to this
            # shard's partition (every shard fetches everything, so
            # unfiltered counts would multiply under a merge).
            stats = self.robot.stats
            failures = [
                (url, f"HTTP {status}")
                for url, status in sorted(stats.http_error_urls.items())
            ] + sorted(stats.failed_urls.items())
            for url, error in failures:
                if shard_owns(url, self.policy.shards, self.policy.shard):
                    rollup.note_page_error()
                    emit(LintResult(name=url, error=error))
        finally:
            if spill is not None:
                spill.close()
        if report_dir is not None:
            rollup.save(Path(report_dir) / ROLLUP_FILENAME)
        return rollup
