"""Link and anchor collection: what a page references and what it names.

Pulls every hyperlink and embedded-resource reference out of an HTML
document, with source line numbers, and every fragment target it
defines (``<A NAME>`` and ``ID`` values), using the same tokenizer the
checker uses, so mangled markup is handled identically.

The rules live in one place, :class:`LinkFilter`: a filter over a token
stream, in html5lib's filter idiom, that notes links and anchors as the
tokens go by and yields every token unchanged.  The engine lints through
it when a caller asks for links (so a page is tokenized once for both),
and :func:`scan_page` drains it when only the links are wanted.  This
module sits below :mod:`repro.core` so the engine can use it;
:mod:`repro.site.links` re-exports it beside the link judgement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.html.tokenizer import tokenize
from repro.html.tokens import StartTag, Token

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

    @property
    def followed(self) -> bool:
        """Does a crawl follow this reference?  Checkable navigation
        links only: embedded resources are link-checked, never crawled."""
        return self.kind != "resource" and self.checkable


class LinkFilter:
    """Yield a token stream unchanged, noting its links and anchors.

    Once the stream is exhausted, ``links`` holds the page's references
    in document order and ``anchors`` the fragment targets it defines.
    """

    __slots__ = ("source", "links", "anchors")

    def __init__(self, source: Iterable[Token]) -> None:
        self.source = source
        self.links: list[Link] = []
        self.anchors: set[str] = set()

    def __iter__(self) -> Iterator[Token]:
        links = self.links
        anchors = self.anchors
        for token in self.source:
            # A tag without attributes neither links nor names anything.
            if isinstance(token, StartTag) and token.attributes:
                element = token.lowered
                if element == "a":
                    name_attr = token.get("name")
                    if name_attr is not None and name_attr.value:
                        anchors.add(name_attr.value)
                id_attr = token.get("id")
                if id_attr is not None and id_attr.value:
                    anchors.add(id_attr.value)
                mapping = _LINK_ATTRIBUTES.get(element)
                if mapping is not None:
                    attr = token.get(mapping[0])
                    if attr is not None and attr.has_value:
                        url = attr.value.strip()
                        if url:
                            links.append(Link(url, token.line, element, mapping[1]))
            yield token


def scan_page(source: str) -> tuple[list[Link], set[str]]:
    """``source``'s links and fragment targets, in one tokenizer pass."""
    page = LinkFilter(tokenize(source))
    for _ in page:
        pass
    return page.links, page.anchors


def extract_links(source: str) -> list[Link]:
    """All references in ``source``, in document order."""
    return scan_page(source)[0]


def extract_anchor_names(source: str) -> set[str]:
    """All fragment targets defined in the page (<A NAME> and ID values)."""
    return scan_page(source)[1]
