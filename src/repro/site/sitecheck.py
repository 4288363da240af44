"""The -R whole-site checker.

Runs weblint over every page of a site and adds the site-level analyses
the paper attaches to the ``-R`` switch:

- ``directory-index``: directories without an index file;
- ``orphan-page``: pages no other checked page links to;
- ``bad-link``: relative links whose target does not exist;
- ``bad-fragment``: ``#fragment`` links to an anchor the target page
  does not define.

The last three, and the link graph behind the navigation analysis, come
from one core, :class:`_SiteCore`, which :meth:`SiteChecker.check_directory`
(``weblint -R``) feeds each page as its lint result resolves.  Pages may
arrive in any order (``--jobs`` completes them out of walk order); each
link resolves as soon as both of its endpoints are known, so the core
holds the page names, the link graph and the still-unresolved links
-- never every page's text or link list.  A :class:`SiteReport`
is a materialised view of the core's findings, and
:meth:`~repro.site.rollup.SiteRollup.from_report` counts them for the
site summary.

:func:`~repro.site.links.judge_link`, which poacher calls too, decides
every ``bad-link`` and ``bad-fragment``.  A link target is named by
:class:`_FileResolver`: a path under the site root (or, outside it, an
absolute path), looked up on disk when it never arrived as a checked
page.  ``#fragment`` and ``?query`` are stripped before resolving; a
link to a directory names that directory's index page, which judges its
fragment; and only the site root's index pages are exempt from
``orphan-page``.  A file has no query, so ``-R`` strips it; poacher
keeps it, because a server may answer each query differently.  Both
judge ``page.html?y=2#sec`` by the anchors of the page ``page.html``
serves.

External (``http:`` ...) links are left to the poacher robot by default
-- exactly the division of labour the paper describes between ``-R``
and the robot.  Pass a ``UserAgent`` (ideally one with a
:class:`~repro.www.client.RetryPolicy`) as ``agent=`` and the site
check HEAD-validates external links too, through the same resilient
fetch path the robot uses; their fragments stay unjudged.
"""

from __future__ import annotations

import os
import posixpath
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.config.options import Options
from repro.core import constants
from repro.core.diagnostics import Diagnostic
from repro.core.service import LintRequest, LintService, PathSource
from repro.site.links import Link, extract_anchor_names, judge_link
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.site.orphans import build_incoming_counts, find_orphans
from repro.site.walker import find_html_files, has_index_file, iter_directories


@dataclass
class SiteReport:
    """Everything the site check found: a materialised view of the core.

    ``page_diagnostics`` holds each page's lint diagnostics followed by
    the cross-page findings that name it, in link order.
    """

    root: str
    pages: list[str] = field(default_factory=list)
    page_diagnostics: dict[str, list[Diagnostic]] = field(default_factory=dict)
    site_diagnostics: list[Diagnostic] = field(default_factory=list)
    link_graph: list[tuple[str, str]] = field(default_factory=list)
    #: Error strings for pages that could not be read; they do not abort
    #: the site check and are excluded from ``pages``.
    page_errors: list[str] = field(default_factory=list)

    def all_diagnostics(self) -> list[Diagnostic]:
        result: list[Diagnostic] = []
        for page in self.pages:
            result.extend(self.page_diagnostics.get(page, []))
        result.extend(self.site_diagnostics)
        return result

    def count(self, message_id: Optional[str] = None) -> int:
        diagnostics = self.all_diagnostics()
        if message_id is None:
            return len(diagnostics)
        return sum(1 for d in diagnostics if d.message_id == message_id)

    def pages_with_problems(self) -> list[str]:
        return [
            page
            for page in self.pages
            if self.page_diagnostics.get(page)
        ]

    def navigation(self, root: Optional[str] = None) -> "NavigationReport":
        """Navigational analysis over the site's link graph.

        ``root`` defaults to the first index page found (users enter a
        site at its index), falling back to the first page checked.
        """
        from repro.site.navigation import NavigationReport, analyse_navigation

        if root is None:
            root = next(
                (page for page in self.pages
                 if page.rsplit("/", 1)[-1].startswith("index.")),
                self.pages[0] if self.pages else "",
            )
        return analyse_navigation(self.pages, self.link_graph, root=root)


class SiteChecker:
    """Check a directory tree of HTML pages."""

    def __init__(
        self,
        options: Optional[Options] = None,
        service: Optional[LintService] = None,
        jobs: int = 1,
        agent=None,
    ) -> None:
        if service is None:
            service = LintService(options=options)
        self.service = service
        self.options = service.options
        self.jobs = jobs
        #: Optional UserAgent; when set, external links are validated.
        self.agent = agent

    # -- main entry point -------------------------------------------------------

    def check_directory(self, root: Union[str, Path]) -> SiteReport:
        root = Path(root)
        report = SiteReport(root=str(root))
        registry = get_registry()
        tracer = get_tracer()
        start = time.perf_counter()
        with tracer.span("site.check", root=str(root)):
            files = find_html_files(root)
            names = {str(path): _relative_name(path, root) for path in files}
            core = _SiteCore(self, root)
            errors: dict[str, str] = {}

            # One batch through the lint pipeline (parallel when jobs > 1),
            # fed to the core in completion order.  The lint pass (or a
            # cache hit) hands back each page's links and anchors, so no
            # page is tokenized twice; an unreadable page becomes a
            # structured error instead of aborting the whole site check.
            requests = [LintRequest(PathSource(path), links=True) for path in files]
            for result in self.service.iter_check(requests, jobs=self.jobs):
                if result.error is not None:
                    errors[result.name] = result.error
                    continue
                page = names[result.name]
                report.page_diagnostics[page] = result.diagnostics
                registry.inc("site.files.checked")
                core.add_page(page, result.links, result.anchors)
            # The report lists pages and errors in walk order.
            report.pages = [
                page for page in names.values() if page in report.page_diagnostics
            ]
            report.page_errors = [errors[name] for name in names if name in errors]

            with tracer.span("site.analyses", pages=len(report.pages)):
                self._check_directory_indexes(root, report)
                core.finish()
            core.materialise(report)
        registry.observe("site.check_ms", (time.perf_counter() - start) * 1000.0)
        return report

    # -- site-level checks ----------------------------------------------------------

    def _make_site_diagnostic(
        self,
        message_id: str,
        *,
        filename: str,
        line: int = 0,
        **arguments: object,
    ) -> Optional[Diagnostic]:
        """Build one site-analysis diagnostic, or ``None`` if disabled."""
        if not self.options.is_enabled(message_id):
            return None
        diagnostic = Diagnostic.build(
            message_id, line=line, filename=filename, **arguments
        )
        get_registry().inc(f"site.diagnostics.{diagnostic.category.value}")
        return diagnostic

    def _check_directory_indexes(self, root: Path, report: SiteReport) -> None:
        expected = ", ".join(self.options.index_filenames)
        for directory in iter_directories(root):
            # Only directories that actually hold pages need an index.
            holds_pages = any(
                child.suffix.lower() in constants.HTML_EXTENSIONS
                for child in directory.iterdir()
                if child.is_file()
            )
            if not holds_pages:
                continue
            if not has_index_file(directory, tuple(self.options.index_filenames)):
                diagnostic = self._make_site_diagnostic(
                    "directory-index",
                    filename=str(directory),
                    directory=_relative_name(directory, root) or ".",
                    expected=expected,
                )
                if diagnostic is not None:
                    report.site_diagnostics.append(diagnostic)


#: Where a finding sits among its page's findings: local links in
#: document order, then external links, then ``orphan-page``.
_LOCAL, _EXTERNAL, _ORPHAN = 0, 1, 2


class _SiteCore:
    """The one bad-link, bad-fragment, orphan-page and link-graph analysis.

    Bounded cross-page state: each link resolves the moment both of its
    endpoints are known and the rest park in one table keyed by target,
    so steady-state memory is the page-name set, the link graph (for
    the navigation and orphan analyses) and the currently-unresolved
    links -- not every page's :class:`Link` list.
    """

    def __init__(self, checker: SiteChecker, root: Path) -> None:
        self.checker = checker
        self.resolver = _FileResolver(root)
        self.follow = checker.options.follow_links
        self.known: dict[str, int] = {}  # page name -> interned id
        self.names: list[str] = []
        #: The link graph, as (source, target) page-name pairs.
        self.edges: list[tuple[str, str]] = []
        #: Anchor-name sets by page id, kept only when non-empty.
        self.anchors: dict[int, set[str]] = {}
        #: target -> [(source id, line, url, link index)] for links whose
        #: target page has not arrived yet.
        self.pending: dict[str, list[tuple[int, int, str, int]]] = {}
        #: (page, link index, page id, line, url) of absolute http(s)
        #: links, HEAD-validated at the end when the checker has an agent.
        self.external: list[tuple[str, int, int, int, str]] = []
        #: ((kind, link index), diagnostic) findings, bounded by the
        #: problem count; the key restores link order within a page.
        self.findings: list[tuple[tuple[int, int], Diagnostic]] = []

    # -- feeding -----------------------------------------------------------

    def add_page(self, page: str, links: list[Link], anchors: set[str]) -> None:
        """Fold one arrived page, with its links and anchors, into the
        cross-page state."""
        page_id = self.known.get(page)
        if page_id is None:
            page_id = len(self.names)
            self.known[page] = page_id
            self.names.append(page)
        if anchors:
            self.anchors[page_id] = anchors
        # Everything parked waiting for this page resolves now.
        for entry in self.pending.pop(page, ()):
            self._link_to(page_id, entry)
        for index, link in enumerate(links):
            self._add_link(page, page_id, index, link)

    def _add_link(self, page: str, page_id: int, index: int, link: Link) -> None:
        if link.scheme:
            # External links are the robot's job unless an agent is set.
            if (
                self.follow
                and self.checker.agent is not None
                and link.scheme in ("http", "https")
                and link.checkable
            ):
                self.external.append(
                    (page, index, page_id, link.line, link.url)
                )
            return
        entry = (page_id, link.line, link.url, index)
        path = link.url.partition("#")[0].partition("?")[0]
        if not path:
            # Same-page fragment: #section must exist here.
            self._judge_into(page_id, entry)
            return
        target = self.resolver.name(page, path)
        target_id = self.known.get(target)
        if target_id is None:
            self.pending.setdefault(target, []).append(entry)
        else:
            self._link_to(target_id, entry)

    def _link_to(self, target_id: int, entry: tuple[int, int, str, int]) -> None:
        """A link whose target is a checked page: an edge, and its fragment."""
        self.edges.append((self.names[entry[0]], self.names[target_id]))
        self._judge_into(target_id, entry)

    def _judge_into(self, target_id: int, entry: tuple[int, int, str, int]) -> None:
        """Judge a link into a checked page by that page's anchors."""
        if self.follow:
            anchors = self.anchors.get(target_id, ())
            self._judge(entry, True, "", anchors.__contains__)

    def _judge(self, entry, exists: bool, status: str, defined, kind=_LOCAL) -> None:
        """Keep :func:`judge_link`'s finding on one link, if any."""
        source_id, line, url, index = entry
        diagnostic = judge_link(
            url, exists, status, defined, page=self.names[source_id],
            line=line, options=self.checker.options,
        )
        if diagnostic is not None:
            get_registry().inc(f"site.diagnostics.{diagnostic.category.value}")
            self.findings.append(((kind, index), diagnostic))

    # -- end of the page set --------------------------------------------------

    def finish(self) -> None:
        """Resolve what is still pending, check external links, find orphans."""
        for target, entries in self.pending.items():
            index_id = self._index_page(target)
            if index_id is not None:
                # A directory link names the directory's index page.
                for entry in entries:
                    self._link_to(index_id, entry)
            elif self.follow:
                self._check_missing(target, entries)
        self.pending.clear()
        if self.follow and self.checker.agent is not None:
            self._check_external()

        incoming = build_incoming_counts(self.edges)
        roots = [
            name for name in self.checker.options.index_filenames
            if name in self.known
        ]
        for orphan in find_orphans(self.names, incoming, roots=roots):
            diagnostic = self.checker._make_site_diagnostic(
                "orphan-page", filename=orphan, page=orphan
            )
            if diagnostic is not None:
                self.findings.append(((_ORPHAN, 0), diagnostic))

    def _index_page(self, target: str) -> Optional[int]:
        for name in self.checker.options.index_filenames:
            page_id = self.known.get(
                posixpath.normpath(posixpath.join(target, name))
            )
            if page_id is not None:
                return page_id
        return None

    def _check_missing(
        self, target: str, entries: list[tuple[int, int, str, int]]
    ) -> None:
        """Links to a target that never arrived as a page."""
        exists = self.resolver.exists(target)
        anchors = self.resolver.anchors(target) if exists else None
        defined = None if anchors is None else anchors.__contains__
        for entry in entries:
            self._judge(entry, exists, "file not found", defined)

    def _check_external(self) -> None:
        """HEAD-validate absolute ``http(s):`` links via the checker's agent.

        Uses the robot's :class:`LinkChecker` (one cached HEAD per
        unique URL across the whole site), so a retry policy or circuit
        breaker configured on the agent protects the site check too.
        Pages are visited in name order, whatever order they arrived in.
        """
        from repro.robot.linkcheck import LinkChecker

        checker = LinkChecker(self.checker.agent)
        for _, index, page_id, line, url in sorted(self.external):
            status = checker.check(url, url)
            entry = (page_id, line, url, index)
            self._judge(entry, status.ok, status.describe(), None, _EXTERNAL)
        get_registry().inc("site.external_links.checked", checker.checked_count)

    # -- the report ----------------------------------------------------------

    def materialise(self, report: SiteReport) -> None:
        """Attach every finding to its page, each page's in attach order,
        and fill the link graph in name order, whatever order the pages
        arrived in."""
        for _, diagnostic in sorted(
            self.findings, key=lambda item: (item[1].filename, item[0])
        ):
            report.page_diagnostics.setdefault(diagnostic.filename, []).append(
                diagnostic
            )
        report.link_graph = sorted(self.edges)


class _FileResolver:
    """Link targets are paths under ``root``; outside it, absolute paths.

    A target is named by its real path, as ``Path.resolve()`` gives it,
    but without a ``realpath`` per link: each page directory's real path
    is worked out once, a link's path resolves lexically from there, and
    only a link through a symlink is handed to ``Path.resolve()``.

    A target that never arrived as a checked page (an image, a text
    file, a directory, a file outside the site) is looked up on disk.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        self.resolved_root = root.resolve()
        real_root = str(self.resolved_root)
        self._real_root = real_root
        self._prefix = real_root.rstrip("/") + "/"
        #: directory -> its real path
        self._real: dict[str, str] = {}
        #: real directory -> the names of its symlinks; ``None`` when it
        #: exists but cannot be listed.
        self._symlinks: dict[str, Optional[frozenset[str]]] = {}

    def name(self, page: str, path: str) -> str:
        if path.startswith("/"):
            base = self.root
            path = path.lstrip("/")
        else:
            base = (self.root / page).parent
        key = str(base)
        if key not in self._real:
            self._real[key] = os.path.realpath(key)
        real = self._real[key]
        for part in path.split("/"):
            if part in ("", "."):
                continue
            if part == "..":
                # ``real`` holds no symlink, so its parent is what
                # ``realpath`` makes of the ``..``.
                real = os.path.dirname(real)
                continue
            if real not in self._symlinks:
                self._symlinks[real] = _symlinks_in(real)
            symlinks = self._symlinks[real]
            if symlinks is None or part in symlinks:
                return self._named(str(self._resolve(base / path)))
            real = os.path.join(real, part)
        return self._named(real)

    @staticmethod
    def _resolve(candidate: Path) -> Path:
        try:
            return candidate.resolve()
        except OSError:  # pragma: no cover - pathological names
            return candidate

    def _named(self, real: str) -> str:
        """``real`` relative to the site root, or as is outside it."""
        if real == self._real_root:
            return "."
        if real.startswith(self._prefix):
            return real[len(self._prefix):].replace("\\", "/")
        return real

    def exists(self, target: str) -> bool:
        return (self.resolved_root / target).exists()

    def anchors(self, target: str) -> Optional[set[str]]:
        """An HTML file's anchors; ``None`` (unknown) for anything else."""
        path = self.resolved_root / target
        if path.suffix.lower() not in constants.HTML_EXTENSIONS:
            return None
        try:
            source = path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return None
        return extract_anchor_names(source)


def _relative_name(path: Path, root: Path) -> str:
    return str(path.relative_to(root)).replace("\\", "/")


def _symlinks_in(directory: str) -> Optional[frozenset[str]]:
    """The names of ``directory``'s symlinks: none when it does not
    exist (``realpath`` passes such a path through as written), and
    ``None`` when it exists but cannot be listed."""
    try:
        with os.scandir(directory) as entries:
            return frozenset(entry.name for entry in entries if entry.is_symlink())
    except (FileNotFoundError, NotADirectoryError):
        return frozenset()
    except OSError:
        return None
