"""Edge-case sites for the site-check and crawl goldens and properties.

``EDGE_PAGES`` / :func:`write_edge_site`: every link shape the
site-check core resolves differently: directory links with and without
an index page, ``sub.html`` beside ``sub/`` (the walker lists
``sub/index.html`` first, name order lists ``sub.html`` first), an
existing and a missing image, a target outside the root, a fragment
into a text file, good and bad fragments into a page and into the page
itself, a ``bad-link`` and a ``bad-fragment`` on one line, query-string
links and a never-linked ``deep/index.html``.

:func:`link_findings` reduces ``weblint -R -f json`` and ``poacher
--format jsonl`` output to comparable link findings;
``POACHER_ONLY_FINDINGS`` are the ones only poacher reports on this
site, the resolver differences ``docs/architecture.md`` lists.

:func:`edge_web`: the shapes only a crawl meets -- redirects, a dead
host, a page the crawl fetches and gets a 404 for -- on a
:class:`~repro.www.virtualweb.VirtualWeb`.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.www.virtualweb import VirtualWeb
from tests.conftest import make_document

#: The site's pages (what a crawl would deliver), by name.
EDGE_PAGES: dict[str, str] = {
    "index.html": make_document(
        '<h1>Edge-case site</h1>\n'
        '<p><a name="sec">Links</a> from the home page:</p>\n'
        "<ul>\n"
        '<li><a href="sub/">the sub directory</a></li>\n'
        '<li><a href="sub">the sub directory again</a></li>\n'
        '<li><a href="sub/#nothing">the sub directory, by fragment</a></li>\n'
        '<li><a href="noindex/">a directory without an index</a></li>\n'
        '<li><a href="noindex/page.html">the page inside it</a></li>\n'
        '<li><a href="sub.html">the sibling of sub</a></li>\n'
        '<li><img src="images/logo.gif" alt="logo"> '
        '<img src="images/missing.gif" alt="missing"></li>\n'
        '<li><a href="../outside.html">outside the site</a></li>\n'
        '<li><a href="notes.txt#x">plain notes</a></li>\n'
        '<li><a href="sub.html#top">a good fragment</a> and '
        '<a href="sub.html#nowhere">a bad fragment</a></li>\n'
        '<li><a href="#sec">this section</a> and '
        '<a href="#absent">a missing section</a></li>\n'
        '<li><a href="gone.html">gone</a> then '
        '<a href="sub.html#bogus">bogus</a></li>\n'
        '<li><a href="page.html?x=1">a query</a> and '
        '<a href="page.html?y=2#sec">a query with a fragment</a></li>\n'
        "</ul>"
    ),
    "sub.html": make_document(
        '<p><a name="top">Top</a> of the sibling; back '
        '<a href="index.html">home</a>.</p>'
    ),
    "sub/index.html": make_document(
        '<p>The sub index: <a href="../index.html">home</a> and '
        '<a href="../page.html">a page</a>.</p>'
    ),
    "noindex/page.html": make_document(
        '<p>No index here: <a href="../index.html">home</a>.</p>'
    ),
    "deep/index.html": make_document("<p>Nobody links to this index.</p>"),
    "page.html": make_document(
        '<p><a name="sec">Section</a>, linked with a query string.</p>'
    ),
}


def write_edge_site(directory: Path) -> Path:
    """Write the site under ``directory/site``; returns the site root.

    Besides the pages: ``notes.txt``, ``images/logo.gif`` and, outside
    the root, ``directory/outside.html``.
    """
    site = directory / "site"
    for name, text in EDGE_PAGES.items():
        path = site / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    (site / "notes.txt").write_text("plain text, no anchors\n")
    (site / "images").mkdir()
    (site / "images" / "logo.gif").write_text("GIF89a")
    (directory / "outside.html").write_text(
        make_document("<p>Outside the site.</p>")
    )
    return site


#: ``(page, line, message id, link)`` findings on the edge site that
#: only poacher reports: it serves the mount alone, and a directory
#: without an index page is a 404 to it.
POACHER_ONLY_FINDINGS = {
    ("index.html", 13, "bad-link", "noindex/"),
    ("index.html", 17, "bad-link", "../outside.html"),
}

_BAD_LINK = re.compile(r"target (.*) for link not found \(")
_BAD_FRAGMENT = re.compile(
    r'target (.*) exists, but fragment "#(.*)" is not defined there$'
)


def link_findings(output: str) -> set[tuple[str, int, str, str]]:
    """``(page, line, message id, link)`` of every link finding.

    ``output`` is ``weblint -R -f json`` (one list; a link finding names
    its page relative to the site root) or ``poacher --format jsonl``
    (one record per ``http://localhost/`` page).  The link is the
    ``href`` as written, so the two tools' status texts do not matter.
    """
    if output.lstrip().startswith("["):
        items = [(item["file"], item) for item in json.loads(output)]
    else:
        items = [
            (record["file"].removeprefix("http://localhost/"), item)
            for record in map(json.loads, output.splitlines())
            for item in record.get("diagnostics", ())
        ]
    findings = set()
    for page, item in items:
        if item["id"] == "bad-link":
            link = _BAD_LINK.match(item["message"])[1]
        elif item["id"] == "bad-fragment":
            target, fragment = _BAD_FRAGMENT.match(item["message"]).groups()
            link = f"{'' if target == 'this page' else target}#{fragment}"
        else:
            continue
        findings.add((page, item["line"], item["id"], link))
    return findings


#: The crawl edge site's start page.
CRAWL_START = "http://edge.test/index.html"


def edge_web() -> VirtualWeb:
    """An edge-case site for poacher, on a :class:`VirtualWeb`.

    ``index.html`` links: a redirect, redirects carrying a defined and an
    undefined fragment, a broken link with and without a fragment, a bad
    fragment into another page, a bad and a good same-page fragment, a
    dead external host, a fragment into a text page, an image, a
    ``?query`` alias of a page and a ``mailto:`` link.  ``other.html``
    links a page that the crawl fetches and gets a 404 for.  Both
    carry weblint problems of their own.
    """
    web = VirtualWeb()
    web.add_site(
        "http://edge.test/",
        {
            "index.html": make_document(
                '<h1><a name="top">Edge-case crawl</a></h2>\n'
                "<ul>\n"
                '<li><a href="moved.html">a redirect</a></li>\n'
                '<li><a href="moved.html#sec">a redirect, good fragment</a> '
                'and <a href="moved.html#nowhere">bad fragment</a></li>\n'
                '<li><a href="gone.html">gone</a> and '
                '<a href="gone.html#x">gone, by fragment</a></li>\n'
                '<li><a href="page.html#nowhere">a bad fragment</a></li>\n'
                '<li><a href="#absent">a missing section</a> and '
                '<a href="#top">the top</a></li>\n'
                '<li><a href="http://dead.test/">a dead host</a></li>\n'
                '<li><a href="notes.txt#x">plain notes</a></li>\n'
                '<li><img src="images/logo.gif" alt="logo"></li>\n'
                '<li><a href="page.html?q=1">a query</a></li>\n'
                '<li><a href="mailto:webmaster@edge.test">mail</a></li>\n'
                '<li><a href="other.html">the other page</a></li>\n'
                "</ul>"
            ),
            "page.html": make_document(
                '<p><a name="sec">Section</a>, back '
                '<a href="index.html">home</a>.</p>'
            ),
            "other.html": make_document(
                '<p><b>Unclosed bold, a link to '
                '<a href="missing.html">a missing page</a> and '
                '<a href="page.html#sec">a good fragment</a>.</p>'
            ),
        },
    )
    web.add_redirect("http://edge.test/moved.html", "http://edge.test/page.html")
    web.add_page(
        "http://edge.test/notes.txt", "plain text, no anchors\n",
        content_type="text/plain",
    )
    web.add_page(
        "http://edge.test/images/logo.gif", "GIF89a", content_type="image/gif"
    )
    web.kill_host("dead.test")
    return web
