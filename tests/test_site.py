"""Tests for link extraction, walking, orphans and the -R site checker."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.config.options import Options
from repro.site.links import Link, extract_anchor_names, extract_links
from repro.site.orphans import build_incoming_counts, find_orphans
from repro.site.sitecheck import SiteChecker
from repro.site.walker import find_html_files, has_index_file, iter_directories
from repro.workload import PageGenerator
from tests.conftest import make_document


class TestExtractLinks:
    def test_anchor_href(self):
        links = extract_links('<a href="x.html">y</a>')
        assert links == [Link(url="x.html", line=1, element="a", kind="anchor")]

    def test_resource_links(self):
        links = extract_links(
            '<img src="i.gif" alt="a">\n<link href="s.css" rel="x">\n'
            '<script src="j.js"></script>'
        )
        assert [l.kind for l in links] == ["resource"] * 3
        assert [l.line for l in links] == [1, 2, 3]

    def test_frame_links(self):
        links = extract_links('<frame src="menu.html">')
        assert links[0].kind == "anchor"

    def test_empty_href_ignored(self):
        assert extract_links('<a href="">x</a>') == []

    def test_anchor_without_href_ignored(self):
        assert extract_links('<a name="here">x</a>') == []

    def test_checkable(self):
        checkable = {
            link.url: link.checkable
            for link in extract_links(
                '<a href="x.html">a</a>'
                '<a href="mailto:a@b">b</a>'
                '<a href="#top">c</a>'
                '<a href="javascript:void(0)">d</a>'
                '<a href="http://h/x">e</a>'
            )
        }
        assert checkable == {
            "x.html": True,
            "mailto:a@b": False,
            "#top": False,
            "javascript:void(0)": False,
            "http://h/x": True,
        }

    def test_links_survive_mangled_html(self):
        links = extract_links('<b><a href="x.html>text</b>')
        assert links[0].url == "x.html"

    def test_anchor_names(self):
        names = extract_anchor_names(
            '<a name="top">x</a><p id="sec1">y</p>'
        )
        assert names == {"top", "sec1"}


class TestWalker:
    def test_find_html_files(self, tmp_path):
        (tmp_path / "a.html").write_text("x")
        (tmp_path / "b.txt").write_text("x")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "c.HTM").write_text("x")
        files = find_html_files(tmp_path)
        assert [f.name for f in files] == ["a.html", "c.HTM"]

    def test_single_file(self, tmp_path):
        page = tmp_path / "a.html"
        page.write_text("x")
        assert find_html_files(page) == [page]

    def test_iter_directories(self, tmp_path):
        (tmp_path / "a" / "b").mkdir(parents=True)
        dirs = list(iter_directories(tmp_path))
        assert dirs[0] == tmp_path and len(dirs) == 3

    def test_has_index_file(self, tmp_path):
        assert not has_index_file(tmp_path, ("index.html",))
        (tmp_path / "index.html").write_text("x")
        assert has_index_file(tmp_path, ("index.html",))


class TestOrphans:
    def test_no_incoming_is_orphan(self):
        orphans = find_orphans(["a", "b"], {"a": 1})
        assert orphans == ["b"]

    def test_roots_never_orphans(self):
        assert find_orphans(["index"], {}, roots=["index"]) == []

    def test_incoming_counts_ignore_self_links(self):
        counts = build_incoming_counts([("a", "a"), ("a", "b")])
        assert counts == {"b": 1}


@pytest.fixture
def site_dir(tmp_path):
    """A site with every -R problem: orphan, bad link, missing index."""
    generator = PageGenerator(seed=3)
    pages = generator.site(3)
    for name, body in pages.items():
        (tmp_path / name).write_text(body)
    # images referenced by generated pages actually exist
    (tmp_path / "images").mkdir()
    for index in range(4):
        (tmp_path / "images" / f"figure{index}.gif").write_text("GIF89a")
    # an orphan page nothing links to
    (tmp_path / "orphan.html").write_text(make_document("<p>alone</p>"))
    # a page with a broken relative link
    (tmp_path / "broken.html").write_text(
        make_document('<p><a href="nonexistent.html">gone</a></p>')
    )
    # link broken.html from index so only orphan.html is orphaned
    index_page = (tmp_path / "index.html").read_text()
    index_page = index_page.replace(
        "</ul>", '<li><a href="broken.html">broken page</a></li>\n</ul>'
    )
    (tmp_path / "index.html").write_text(index_page)
    # a subdirectory with pages but no index file
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "page.html").write_text(make_document("<p>sub</p>"))
    return tmp_path


class TestSiteChecker:
    def test_all_pages_found(self, site_dir):
        report = SiteChecker().check_directory(site_dir)
        assert "index.html" in report.pages
        assert "sub/page.html" in report.pages

    def test_orphan_detected(self, site_dir):
        report = SiteChecker().check_directory(site_dir)
        orphan_messages = [
            d for d in report.all_diagnostics()
            if d.message_id == "orphan-page"
        ]
        orphaned = {d.filename for d in orphan_messages}
        assert "orphan.html" in orphaned
        assert "index.html" not in orphaned
        assert "broken.html" not in orphaned

    def test_bad_link_detected(self, site_dir):
        report = SiteChecker().check_directory(site_dir)
        bad = [
            d for d in report.page_diagnostics["broken.html"]
            if d.message_id == "bad-link"
        ]
        assert bad and "nonexistent.html" in bad[0].text

    def test_external_links_skipped_without_agent(self, tmp_path):
        (tmp_path / "index.html").write_text(make_document(
            '<p><a href="http://h/dead.html">external</a></p>'
        ))
        report = SiteChecker().check_directory(tmp_path)
        assert report.count("bad-link") == 0

    def test_external_links_validated_with_agent(self, tmp_path):
        from repro.www.client import RetryPolicy, UserAgent
        from repro.www.virtualweb import VirtualWeb

        (tmp_path / "index.html").write_text(make_document(
            '<p><a href="http://h/ok.html">good</a> '
            '<a href="http://h/dead.html">bad</a></p>'
        ))
        web = VirtualWeb()
        web.add_page("http://h/ok.html", "fine")
        # Transient outage on the good link: the retrying agent sees
        # through it, so only the genuinely dead link is reported.
        web.add_fault("http://h/ok.html", status=503, times=1)
        agent = UserAgent(
            web,
            retry=RetryPolicy(max_retries=2, backoff_base_s=0.0),
            sleep=lambda _s: None,
        )
        report = SiteChecker(agent=agent).check_directory(tmp_path)
        bad = [
            d for d in report.page_diagnostics.get("index.html", [])
            if d.message_id == "bad-link"
        ]
        assert len(bad) == 1
        assert "dead.html" in bad[0].text

    def test_external_links_get_one_head_and_no_fragment_check(
        self, tmp_path
    ):
        from repro.www.client import UserAgent
        from repro.www.virtualweb import VirtualWeb

        (tmp_path / "index.html").write_text(make_document(
            '<p><a href="http://h/ok.html#nowhere">one</a> '
            '<a href="http://h/ok.html#elsewhere">two</a></p>'
        ))
        web = VirtualWeb()
        web.add_page("http://h/ok.html", make_document("<p>no anchors</p>"))
        report = SiteChecker(agent=UserAgent(web)).check_directory(tmp_path)
        assert report.count("bad-link") == report.count("bad-fragment") == 0
        assert [(r.method, r.url) for r in web.request_log] == [
            ("HEAD", "http://h/ok.html")
        ]

    def test_good_links_not_reported(self, site_dir):
        report = SiteChecker().check_directory(site_dir)
        bad = [
            d for d in report.page_diagnostics["index.html"]
            if d.message_id == "bad-link"
        ]
        assert bad == []

    def test_missing_index_detected(self, site_dir):
        report = SiteChecker().check_directory(site_dir)
        missing = [
            d for d in report.site_diagnostics
            if d.message_id == "directory-index"
        ]
        assert any("sub" in d.text for d in missing)
        assert not any(d.text.startswith("directory . ") for d in missing)

    def test_site_checks_configurable(self, site_dir):
        options = Options.with_defaults()
        options.disable("orphan-page", "bad-link", "directory-index")
        report = SiteChecker(options=options).check_directory(site_dir)
        assert report.count("orphan-page") == 0
        assert report.count("bad-link") == 0
        assert report.count("directory-index") == 0

    def test_follow_links_off(self, site_dir):
        options = Options.with_defaults()
        options.follow_links = False
        report = SiteChecker(options=options).check_directory(site_dir)
        assert report.count("bad-link") == 0

    def test_per_page_lint_included(self, site_dir):
        (site_dir / "messy.html").write_text("<h1>x</h2>")
        report = SiteChecker().check_directory(site_dir)
        page_ids = {
            d.message_id for d in report.page_diagnostics["messy.html"]
        }
        assert "heading-mismatch" in page_ids

    def test_pages_with_problems(self, site_dir):
        report = SiteChecker().check_directory(site_dir)
        assert "broken.html" in report.pages_with_problems()

    def test_link_graph_recorded(self, site_dir):
        report = SiteChecker().check_directory(site_dir)
        assert ("index.html", "broken.html") in report.link_graph


def _walk(tmp_path, pages):
    """``pages`` written under ``tmp_path`` and checked as a directory."""
    for name, text in pages.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return SiteChecker().check_directory(tmp_path)


class TestOneSitePolicy:
    """``-R``'s one link and orphan policy."""

    def test_query_string_is_stripped_before_resolving(self, tmp_path):
        pages = {
            "index.html": make_document(
                '<p><a href="page.html?x=1">a query</a>\n'
                '<a href="page.html?y=2#sec">a query and a fragment</a></p>'
            ),
            "page.html": make_document("<p>no anchors here</p>"),
        }
        report = _walk(tmp_path, pages)
        assert report.count("bad-link") == 0
        [bad] = [
            d for d in report.page_diagnostics["index.html"]
            if d.message_id == "bad-fragment"
        ]
        assert bad.arguments["fragment"] == "sec"
        assert bad.arguments["target"] == "page.html?y=2"
        assert report.link_graph.count(("index.html", "page.html")) == 2

    def test_directory_link_names_its_index_page(self, tmp_path):
        pages = {
            "index.html": make_document(
                '<p><a href="sub/">sub</a> <a href="sub">again</a> '
                '<a href="sub/#none">by fragment</a></p>'
            ),
            "sub/index.html": make_document(
                '<p><a href="../index.html">home</a></p>'
            ),
        }
        report = _walk(tmp_path, pages)
        assert report.count("bad-link") == 0
        # The fragment of a directory link is judged against the
        # directory's index page.
        [bad] = [
            d for d in report.all_diagnostics()
            if d.message_id == "bad-fragment"
        ]
        assert (bad.arguments["target"], bad.arguments["fragment"]) == (
            "sub/", "none",
        )
        assert report.count("orphan-page") == 0
        assert report.link_graph.count(("index.html", "sub/index.html")) == 3

    def test_fragment_into_a_non_html_file_is_not_checked(self, tmp_path):
        (tmp_path / "notes.txt").write_text("plain text, no anchors\n")
        (tmp_path / "index.html").write_text(make_document(
            '<p><a href="notes.txt#x">notes</a> '
            '<a href="notes.txt">notes again</a></p>'
        ))
        report = SiteChecker().check_directory(tmp_path)
        assert report.count("bad-link") == 0
        assert report.count("bad-fragment") == 0

    def test_only_the_root_index_is_exempt_from_orphan_page(self, tmp_path):
        pages = {
            "index.html": make_document("<p>home</p>"),
            "deep/index.html": make_document("<p>nobody links here</p>"),
        }
        orphans = [
            d.filename for d in _walk(tmp_path, pages).all_diagnostics()
            if d.message_id == "orphan-page"
        ]
        assert orphans == ["deep/index.html"]

    def test_resolver_owns_the_status_and_outside_targets(self, tmp_path):
        (tmp_path / "outside.html").write_text(make_document("<p>x</p>"))
        site = tmp_path / "site"
        pages = {
            "index.html": make_document(
                '<p><a href="../outside.html">out</a> '
                '<a href="gone.html">gone</a></p>'
            ),
        }
        # The outside file exists on disk, so only gone.html is broken.
        assert [d.text for d in _walk(site, pages).all_diagnostics()
                if d.message_id == "bad-link"] == [
            "target gone.html for link not found (file not found)"
        ]


class TestFileResolverNames:
    """``-R`` names a link target by its real path without a ``realpath``
    per link; the names must be exactly what ``Path.resolve()`` gives."""

    PAGES = ["index.html", "sub/a.html", "real/b.html", "linkdir/b.html"]
    LINKS = [
        "", ".", "index.html", "./index.html", "sub/a.html", "sub", "sub/",
        "sub/../index.html", "sub/./a.html", "sub//a.html", "a.html",
        "../index.html", "../outside.html", "../../../../../../../x.html",
        "linkdir/b.html", "linkdir/", "linkdir/../index.html",
        "linkdir/../../outside.html", "linkfile.html", "linkfile.html/../x",
        "out/real.html", "out/deeper/x.html", "out/../outside.html",
        "missing/x.html", "missing/../index.html", "index.html/../sub/a.html",
        "/", "/index.html", "/sub/a.html", "/linkdir/b.html", "//sub//a.html",
        "/../outside.html", "/linkdir/../index.html", "images/pic.gif",
        "a\\b.html",
    ]

    @pytest.fixture
    def tree(self, tmp_path):
        (tmp_path / "outside.html").write_text("<p>outside</p>")
        (tmp_path / "elsewhere" / "deeper").mkdir(parents=True)
        (tmp_path / "elsewhere" / "real.html").write_text("<p>x</p>")
        (tmp_path / "elsewhere" / "deeper" / "x.html").write_text("<p>x</p>")
        site = tmp_path / "site"
        for page in ("index.html", "sub/a.html", "real/b.html"):
            (site / page).parent.mkdir(parents=True, exist_ok=True)
            (site / page).write_text("<p>page</p>")
        (site / "linkdir").symlink_to("real")
        (site / "linkfile.html").symlink_to("real/b.html")
        (site / "out").symlink_to("../elsewhere")
        (tmp_path / "alias").symlink_to("site")
        return tmp_path

    @staticmethod
    def resolved(root: Path, page: str, path: str) -> str:
        """The name as ``Path.resolve()`` gives it."""
        if path.startswith("/"):
            candidate = root / path.lstrip("/")
        else:
            candidate = (root / page).parent / path
        candidate = candidate.resolve()
        try:
            return str(candidate.relative_to(root.resolve())).replace("\\", "/")
        except ValueError:
            return str(candidate)

    @pytest.mark.parametrize("root", ["site", "alias", "relative"])
    def test_names_equal_resolve(self, tree, root, monkeypatch):
        from repro.site.sitecheck import _FileResolver

        if root == "relative":
            monkeypatch.chdir(tree)
            site = Path("site")
        else:
            site = tree / root
        resolver = _FileResolver(site)
        for page in self.PAGES:
            for path in self.LINKS:
                expected = self.resolved(site, page, path)
                assert resolver.name(page, path) == expected, (page, path)
