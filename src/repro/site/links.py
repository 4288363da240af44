"""Link extraction and judgement.

Pulls every hyperlink and embedded-resource reference out of an HTML
document, with source line numbers, using the same tokenizer the checker
uses (so mangled markup is handled identically).  Shared by the -R site
checker, the poacher robot and the gateway, which also share
:func:`judge_link`, the one ``bad-link`` / ``bad-fragment`` decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.config.options import Options
from repro.core.diagnostics import Diagnostic
from repro.html.tokenizer import tokenize
from repro.html.tokens import StartTag

#: element -> (attribute, kind); kind is "anchor" for navigation links and
#: "resource" for embedded content fetched automatically by browsers.
_LINK_ATTRIBUTES: dict[str, tuple[str, str]] = {
    "a": ("href", "anchor"),
    "area": ("href", "anchor"),
    "link": ("href", "resource"),
    "img": ("src", "resource"),
    "frame": ("src", "anchor"),
    "iframe": ("src", "anchor"),
    "script": ("src", "resource"),
    "embed": ("src", "resource"),
    "bgsound": ("src", "resource"),
    "input": ("src", "resource"),       # type=image
    "body": ("background", "resource"),
    "object": ("data", "resource"),
    "applet": ("code", "resource"),
}

#: schemes a local link checker cannot validate and should not report.
UNCHECKABLE_SCHEMES = frozenset(
    {"mailto", "javascript", "news", "ftp", "gopher", "telnet", "data"}
)


@dataclass(frozen=True)
class Link:
    """One outgoing reference from a page."""

    url: str
    line: int
    element: str   # the element it came from ("a", "img" ...)
    kind: str      # "anchor" | "resource"

    @property
    def is_fragment_only(self) -> bool:
        return self.url.startswith("#")

    @property
    def scheme(self) -> str:
        head, sep, _ = self.url.partition(":")
        if not sep or "/" in head or len(head) < 2:
            return ""
        return head.lower()

    @property
    def checkable(self) -> bool:
        """Can a link validator meaningfully test this reference?"""
        if self.is_fragment_only or not self.url.strip():
            return False
        return self.scheme not in UNCHECKABLE_SCHEMES


def extract_links(source: str) -> list[Link]:
    """All references in ``source``, in document order."""
    return scan_page(source)[0]


def extract_anchor_names(source: str) -> set[str]:
    """All fragment targets defined in the page (<A NAME> and ID values)."""
    return scan_page(source)[1]


def scan_page(source: str) -> tuple[list[Link], set[str]]:
    """``source``'s links and fragment targets, in one tokenizer pass."""
    links: list[Link] = []
    names: set[str] = set()
    for token in tokenize(source):
        if not isinstance(token, StartTag):
            continue
        if token.lowered == "a":
            name_attr = token.get("name")
            if name_attr is not None and name_attr.value:
                names.add(name_attr.value)
        id_attr = token.get("id")
        if id_attr is not None and id_attr.value:
            names.add(id_attr.value)
        mapping = _LINK_ATTRIBUTES.get(token.lowered)
        if mapping is None:
            continue
        attr_name, kind = mapping
        attr = token.get(attr_name)
        if attr is None or not attr.has_value or not attr.value.strip():
            continue
        links.append(
            Link(
                url=attr.value.strip(),
                line=token.line,
                element=token.lowered,
                kind=kind,
            )
        )
    return links, names


def judge_link(
    url: str,
    exists: bool,
    status: str,
    defined: Optional[Callable[[str], Optional[bool]]],
    *,
    page: str,
    line: int,
    options: Options,
) -> Optional[Diagnostic]:
    """The ``bad-link`` or ``bad-fragment`` finding on link ``url``, if any.

    The caller describes the target: does it exist, its ``status`` text
    if not, and ``defined(fragment)`` -- does it define the fragment,
    ``None`` when that is unknown (a non-HTML target).  ``defined`` is
    called only when a fragment is judged, so it may fetch.
    """
    if not exists:
        if not options.is_enabled("bad-link"):
            return None
        return Diagnostic.build(
            "bad-link", line=line, filename=page, target=url, status=status
        )
    target, _, fragment = url.partition("#")
    if not (fragment and defined and options.is_enabled("bad-fragment")):
        return None
    if defined(fragment) is not False:
        return None
    return Diagnostic.build(
        "bad-fragment", line=line, filename=page,
        target=target or "this page", fragment=fragment,
    )
