"""Link validation -- the broken-link-robot primitive.

Paper section 3.5: "At its simplest, this merely consists of sending a
HEAD request, and reporting all URLs which result in a 404 response code.
Smarter robots will handle redirects (fixing the links)."

:class:`LinkChecker` does both: HEAD each target once (cached across the
whole crawl), classify the result, and for redirects report where the
link should now point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.site.links import extract_anchor_names
from repro.www.client import FetchError, UserAgent
from repro.www.url import URL, resolve


@dataclass(frozen=True)
class LinkStatus:
    """Outcome of validating one absolute URL."""

    url: str
    status: int            # HTTP status, or 0 for transport failure
    ok: bool
    redirected_to: Optional[str] = None
    error: Optional[str] = None

    @property
    def broken(self) -> bool:
        return not self.ok

    def describe(self) -> str:
        if self.error:
            return f"fetch failed: {self.error}"
        if self.redirected_to:
            return f"{self.status}, moved to {self.redirected_to}"
        return f"HTTP {self.status}"


class LinkChecker:
    """HEAD-validate URLs with a shared cache."""

    def __init__(self, agent: UserAgent) -> None:
        self.agent = agent
        self._cache: dict[str, LinkStatus] = {}

    def check(self, base_url: str | URL, link_url: str) -> LinkStatus:
        """Validate ``link_url`` as it appears on ``base_url``.

        ``base_url`` may be given parsed, as a page's auditor does to
        parse the page URL once for all its links.
        """
        absolute = resolve(base_url, link_url)
        if absolute in self._cache:
            return self._cache[absolute]
        status = self._fetch_status(absolute)
        self._cache[absolute] = status
        return status

    def _fetch_status(self, absolute: str) -> LinkStatus:
        try:
            response = self.agent.head(absolute)
        except FetchError as exc:
            return LinkStatus(url=absolute, status=0, ok=False, error=str(exc))
        redirected_to = response.url if response.redirects else None
        return LinkStatus(
            url=absolute,
            status=response.status,
            ok=response.ok,
            redirected_to=redirected_to,
        )

    @property
    def checked_count(self) -> int:
        return len(self._cache)


class FragmentChecker:
    """Validate ``page.html#name`` fragments across a crawl.

    GETs each HTML target once (cached) and extracts its anchor names
    (``<A NAME>`` and ID values); a fragment that names no anchor is the
    ``bad-fragment`` condition.  Fragment knowledge requires the body, so
    this is separate from the HEAD-based :class:`LinkChecker`.
    """

    def __init__(self, agent: UserAgent) -> None:
        self.agent = agent
        self._anchors: dict[str, Optional[set[str]]] = {}

    def _anchor_names(self, absolute: str) -> Optional[set[str]]:
        """Anchor names on the page, or None when it cannot be read."""
        if absolute not in self._anchors:
            try:
                response = self.agent.get(absolute)
                names = (
                    extract_anchor_names(response.body)
                    if response.ok and response.is_html
                    else None
                )
            except FetchError:
                names = None
            self._anchors[absolute] = names
        return self._anchors[absolute]

    def fragment_defined(
        self, base_url: str | URL, link_url: str
    ) -> Optional[bool]:
        """Is the link's fragment defined on its target page?

        Returns None when the link has no fragment or the target cannot
        be inspected (missing page, non-HTML) -- those cases are the
        LinkChecker's business, not a fragment problem.
        """
        target, _, fragment = link_url.partition("#")
        if not fragment:
            return None
        absolute = resolve(base_url, target)
        names = self._anchor_names(absolute)
        return None if names is None else fragment in names
