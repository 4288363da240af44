"""HTTP-style request/response messages for the virtual web.

A deliberately small model: method, URL, headers, body, status.  Status
codes and reason phrases follow HTTP/1.0/1.1 where the link checker and
robot care (2xx success, 3xx redirect with Location, 404, 5xx).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from repro.store import content_digest

REASON_PHRASES = {
    200: "OK",
    204: "No Content",
    301: "Moved Permanently",
    302: "Found",
    303: "See Other",
    304: "Not Modified",
    307: "Temporary Redirect",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    410: "Gone",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

REDIRECT_STATUSES = frozenset({301, 302, 303, 307})


def reason_for(status: int) -> str:
    return REASON_PHRASES.get(status, "Unknown")


class Headers:
    """Case-insensitive header multimap (last value wins on get)."""

    def __init__(self, initial: Optional[dict[str, str]] = None) -> None:
        self._items: list[tuple[str, str]] = []
        if initial:
            for key, value in initial.items():
                self.set(key, value)

    def set(self, key: str, value: str) -> None:
        self._items = [(k, v) for k, v in self._items if k.lower() != key.lower()]
        self._items.append((key, value))

    def add(self, key: str, value: str) -> None:
        self._items.append((key, value))

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        wanted = key.lower()
        for k, v in reversed(self._items):
            if k.lower() == wanted:
                return v
        return default

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def items(self) -> list[tuple[str, str]]:
        return list(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Headers({self._items!r})"


@dataclass
class Request:
    """One request to the (virtual) web.

    ``timeout_s`` is the client's per-request deadline; the virtual web
    honours it when simulating latency (a slower response becomes a
    :class:`~repro.www.faults.TimeoutFault`).
    """

    method: str
    url: str
    headers: Headers = field(default_factory=Headers)
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        self.method = self.method.upper()
        if self.method not in ("GET", "HEAD"):
            raise ValueError(f"unsupported method: {self.method}")


@dataclass
class Response:
    """One response.  ``url`` is the final URL after any redirects."""

    status: int
    url: str
    body: str = ""
    headers: Headers = field(default_factory=Headers)
    redirects: tuple[str, ...] = ()

    @property
    def reason(self) -> str:
        return reason_for(self.status)

    @property
    def length(self) -> int:
        """The body's length in characters."""
        return len(self.body)

    @cached_property
    def digest(self) -> str:
        """The body's :func:`~repro.store.content_digest`, hashed once."""
        return content_digest(self.body)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def is_redirect(self) -> bool:
        return self.status in REDIRECT_STATUSES

    @property
    def content_type(self) -> str:
        value = self.headers.get("Content-Type", "")
        return value.split(";", 1)[0].strip().lower()

    @property
    def is_html(self) -> bool:
        return self.content_type in ("text/html", "application/xhtml+xml")

    @property
    def location(self) -> Optional[str]:
        return self.headers.get("Location")
