"""Whole-site checking -- the ``-R`` switch.

Paper section 4.5: "The -R switch instructs weblint to recurse in all
directories in the local filesystem, so that a set of pages or entire
site can be checked with one command.  The switch also enables additional
warnings, checking whether directories have index files, and reporting
orphan pages (which are not referred to by any other page checked)."

- :mod:`repro.site.links` -- judge links (``bad-link``,
  ``bad-fragment``), and the link extraction of :mod:`repro.html.links`;
- :mod:`repro.site.walker` -- find the HTML pages under a directory;
- :mod:`repro.site.orphans` -- orphan computation over the link graph;
- :mod:`repro.site.sitecheck` -- :class:`SiteChecker` tying it together:
  per-page lint, directory index checks, orphan pages, and local link
  validation (``bad-link``).
"""

from repro.site.links import Link, extract_links
from repro.site.orphans import find_orphans
from repro.site.sitecheck import SiteChecker, SiteReport
from repro.site.walker import find_html_files, iter_directories

__all__ = [
    "Link",
    "extract_links",
    "find_html_files",
    "iter_directories",
    "find_orphans",
    "SiteChecker",
    "SiteReport",
]
