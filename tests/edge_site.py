"""An edge-case site for the site-check goldens and properties.

Every link shape the site-check core resolves differently: directory
links with and without an index page, ``sub.html`` beside ``sub/`` (the
walker lists ``sub/index.html`` first, name order lists ``sub.html``
first), an existing and a missing image, a target outside the root, a
fragment into a text file, good and bad fragments into a page and into
the page itself, a ``bad-link`` and a ``bad-fragment`` on one line,
query-string links and a never-linked ``deep/index.html``.
"""

from __future__ import annotations

from pathlib import Path

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
