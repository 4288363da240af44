"""Rendering whole-site reports -- the Spot-style summary (section 3.5).

"Spot ... is run on the web site's host machine to analyse a web site for
problems.  Problems identified include HTML syntax errors, broken links,
missing index files, non-portable host references, and summary analyses
of your site."  This module renders that kind of summary: in plain text
from either a fully materialised
:class:`~repro.site.sitecheck.SiteReport` or a bounded
:class:`~repro.site.rollup.SiteRollup` (the streaming audit path --
every number the summary shows lives in the rollup, so rendering never
needs the per-page diagnostics back in memory), or as an HTML page that
itself lints clean from a ``SiteReport``.
"""

from __future__ import annotations

from typing import Union

from repro.gateway.htmlreport import escape, render_page, render_table
from repro.site.rollup import SITE_MESSAGES, WORST_PAGES_KEPT, SiteRollup
from repro.site.sitecheck import SiteReport

#: Site-level analyses broken out in the summary, in display order.
_SITE_MESSAGES = SITE_MESSAGES


def _counts(report: SiteReport) -> dict[str, int]:
    """The summary table -- one pass over the diagnostics."""
    return SiteRollup.from_report(report, navigation=False).counts()


def _as_rollup(
    report: Union[SiteReport, SiteRollup], top_pages: int
) -> SiteRollup:
    if isinstance(report, SiteRollup):
        return report
    return SiteRollup.from_report(
        report, keep_worst=max(top_pages, WORST_PAGES_KEPT)
    )


def render_text_report(
    report: Union[SiteReport, SiteRollup], top_pages: int = 10
) -> str:
    """A terminal-friendly site summary."""
    rollup = _as_rollup(report, top_pages)
    lines = [f"site report: {rollup.root}", "=" * 60]
    counts = rollup.counts()
    width = max(len(key) for key in counts)
    for key, value in counts.items():
        lines.append(f"  {key.ljust(width)}  {value}")

    # Worst pages rank by message count; equal counts list in ascending
    # path order so the top-N block is stable and readable.
    noisy = rollup.worst_pages()[:top_pages]
    if noisy:
        lines.append("")
        lines.append(f"pages with the most messages (top {top_pages}):")
        for count, page in noisy:
            lines.append(f"  {count:4}  {page}")

    if rollup.navigation_lines:
        lines.append("")
        lines.extend(rollup.navigation_lines)
    return "\n".join(lines)


def _report_title(root: str) -> str:
    # Keep our own title under weblint's title-length limit.
    site_name = root.rstrip("/").rsplit("/", 1)[-1] or root
    title = f"Site report for {site_name}"
    if len(title) > 60:
        title = "Site report"
    return title


def render_html_report(report: SiteReport) -> str:
    """A complete HTML page summarising the site check."""
    counts = _counts(report)
    fragments = [
        f"<p>Site checked: <code>{escape(report.root)}</code></p>",
        "<h2>Summary</h2>",
        render_table(
            [(key, str(value)) for key, value in counts.items()],
            summary="site check summary",
        ),
    ]

    problem_pages = report.pages_with_problems()
    if problem_pages:
        fragments.append("<h2>Problems by page</h2>")
        for page in problem_pages:
            diagnostics = report.page_diagnostics[page]
            items = "\n".join(
                f'  <li class="weblint-{d.category.value}">'
                f"<b>line {d.line}</b>: {escape(d.text)}</li>"
                for d in diagnostics
            )
            fragments.append(
                f"<h3>{escape(page)}</h3>\n<ul>\n{items}\n</ul>"
            )
    if report.site_diagnostics:
        items = "\n".join(
            f"  <li>{escape(d.text)}</li>" for d in report.site_diagnostics
        )
        fragments.append(f"<h2>Site-level findings</h2>\n<ul>\n{items}\n</ul>")

    if report.pages:
        navigation = report.navigation()
        rows = [
            ("reachable pages", str(len(navigation.depths))),
            ("maximum click depth", str(navigation.max_depth)),
            ("average click depth", f"{navigation.average_depth:.1f}"),
            ("unreachable by browsing",
             ", ".join(navigation.unreachable) or "none"),
            ("dead ends", ", ".join(navigation.dead_ends) or "none"),
        ]
        fragments.append("<h2>Navigation</h2>")
        fragments.append(render_table(rows, summary="navigation analysis"))

    return render_page(_report_title(report.root), fragments)
