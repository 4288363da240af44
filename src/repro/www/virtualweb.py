"""The virtual web: an in-memory, deterministic stand-in for the internet.

Hosts pages, redirects and failures under ``http://host/path`` URLs.
Everything weblint's networked front-ends do against the real web --
fetch a page, follow a redirect, hit a 404, read robots.txt -- they do
against this object instead, with full inspectability (request log,
per-URL hit counts).

Typical setup::

    web = VirtualWeb()
    web.add_page("http://example.com/", "<html>...</html>")
    web.add_redirect("http://example.com/old", "http://example.com/")
    web.add_broken("http://example.com/gone", status=410)

A whole site can be mounted from a directory tree or a mapping with
:meth:`VirtualWeb.add_site`.

The web is perfectly reliable by default.  To model the internet the
paper's poacher actually crawled, attach faults (see
:mod:`repro.www.faults`)::

    web.add_fault(host="example.com", status=503, times=2)  # transient
    web.kill_host("dead.example")            # connection errors, forever
    web.set_latency(host="slow.example", seconds=0.2)  # slow pages

Latency interacts with the client's per-request timeout: a response
slower than ``Request.timeout_s`` raises :class:`TimeoutFault` after
sleeping only the timeout, which the resilient ``UserAgent`` treats as
a retryable transport failure.
"""

from __future__ import annotations

import mimetypes
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional, Union

from repro.core.constants import HTML_EXTENSIONS, INDEX_FILENAMES
from repro.www.faults import (
    ConnectionFault,
    FaultInjector,
    FaultRule,
    TimeoutFault,
)
from repro.www.message import Headers, Request, Response, reason_for
from repro.www.url import URL, urlparse


@dataclass
class _Resource:
    body: str = ""
    status: int = 200
    content_type: str = "text/html"
    location: Optional[str] = None
    extra_headers: dict[str, str] = field(default_factory=dict)
    #: Strong validator derived from the body; changes when the body does.
    etag: Optional[str] = None
    #: Optional HTTP-date validator, compared verbatim (no date parsing).
    last_modified: Optional[str] = None


def _etag_for(body: str) -> str:
    import hashlib

    digest = hashlib.sha256(body.encode("utf-8", errors="surrogatepass"))
    return f'"{digest.hexdigest()[:16]}"'


def _content_type(path: str) -> str:
    """The Content-Type a static web server sends for the file at ``path``."""
    if Path(path).suffix.lower() in HTML_EXTENSIONS:
        return "text/html"
    return mimetypes.guess_type(path)[0] or "application/octet-stream"


def _key(url: Union[str, URL]) -> tuple[str, Optional[int], str]:
    parsed = (url if isinstance(url, URL) else urlparse(url)).normalised()
    return (parsed.host, parsed.effective_port(), parsed.path or "/")


class VirtualWeb:
    """A dictionary of URLs behaving like servers."""

    def __init__(
        self,
        faults: Optional[FaultInjector] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._resources: dict[tuple[str, Optional[int], str], _Resource] = {}
        self.request_log: list[Request] = []
        self.hit_counts: dict[str, int] = {}
        self.faults = faults if faults is not None else FaultInjector()
        self._sleep = sleep

    # -- fault-injection conveniences (delegating to the injector) ----------

    def add_fault(self, url: Optional[str] = None, **kwargs) -> FaultRule:
        return self.faults.add_fault(url, **kwargs)

    def kill_host(self, host: str) -> FaultRule:
        return self.faults.kill_host(host)

    def set_latency(self, url: Optional[str] = None, **kwargs) -> None:
        self.faults.set_latency(url, **kwargs)

    def set_bandwidth(self, bytes_per_s: Optional[float]) -> None:
        """Simulate transfer time proportional to body size (None = off)."""
        self.faults.set_bandwidth(bytes_per_s)

    # -- population ---------------------------------------------------------

    def add_page(
        self,
        url: str,
        body: str,
        content_type: str = "text/html",
        status: int = 200,
        last_modified: Optional[str] = None,
    ) -> None:
        """Serve ``body`` at ``url``.

        Successful pages always carry an ``ETag`` derived from the body
        (so replacing a page with different content changes the
        validator, and re-adding identical content does not) and honour
        ``If-None-Match`` with a ``304 Not Modified``.  Pass
        ``last_modified`` to also serve a ``Last-Modified`` header and
        honour ``If-Modified-Since`` (compared verbatim).
        """
        self._resources[_key(url)] = _Resource(
            body=body,
            status=status,
            content_type=content_type,
            etag=_etag_for(body) if status == 200 else None,
            last_modified=last_modified,
        )

    def add_redirect(self, url: str, target: str, permanent: bool = False) -> None:
        """Redirect ``url`` to ``target`` (302, or 301 when permanent)."""
        self._resources[_key(url)] = _Resource(
            status=301 if permanent else 302, location=target
        )

    def add_broken(self, url: str, status: int = 404) -> None:
        """Make ``url`` exist as an explicit failure (default 404)."""
        self._resources[_key(url)] = _Resource(status=status, body="")

    def add_robots_txt(self, host_url: str, text: str) -> None:
        """Install a robots.txt for the host of ``host_url``."""
        base = urlparse(host_url)
        robots_url = str(
            URL(scheme=base.scheme or "http", host=base.host, port=base.port,
                path="/robots.txt")
        )
        self.add_page(robots_url, text, content_type="text/plain")

    def add_site(
        self,
        base_url: str,
        pages: Union[Mapping[str, str], Path, str],
    ) -> list[str]:
        """Mount many files under ``base_url``, like a static web server.

        ``pages`` is either a mapping of relative paths to bodies, or a
        directory whose files are served with their relative paths.
        Content-Type follows the extension: ``text/html`` for
        ``HTML_EXTENSIONS``, else :func:`mimetypes.guess_type`, else
        ``application/octet-stream``.  A directory (the mount root
        included) holding one of ``INDEX_FILENAMES`` serves the first of
        them, in that order, at ``dir/``, and ``dir`` answers a 301 to
        ``dir/``.  Returns the absolute URLs of the files added.
        """
        base = urlparse(base_url).normalised()
        prefix = base.path.rstrip("/")
        if isinstance(pages, (str, Path)):
            root = Path(pages)
            pages = {
                str(path.relative_to(root)).replace("\\", "/"):
                    path.read_text(encoding="utf-8", errors="replace")
                for path in sorted(root.rglob("*"))
                if path.is_file()
            }

        def url(path: str) -> str:
            return str(URL(scheme=base.scheme or "http", host=base.host,
                           port=base.port, path=path))

        files = {
            f"{prefix}/{relative.lstrip('/')}": body
            for relative, body in pages.items()
        }
        for path, body in files.items():
            self.add_page(url(path), body, content_type=_content_type(path))
        for directory in {path.rpartition("/")[0] for path in files}:
            for name in INDEX_FILENAMES:
                index = files.get(f"{directory}/{name}")
                if index is not None:
                    self.add_page(url(f"{directory}/"), index)
                    if directory:
                        self.add_redirect(
                            url(directory), url(f"{directory}/"), permanent=True
                        )
                    break
        return [url(path) for path in files]

    def remove(self, url: str) -> None:
        self._resources.pop(_key(url), None)

    def urls(self) -> list[str]:
        """All absolute URLs currently served (sorted)."""
        result = []
        for host, port, path in self._resources:
            port_text = "" if port in (None, 80) else f":{port}"
            result.append(f"http://{host}{port_text}{path}")
        return sorted(result)

    # -- serving ---------------------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Serve one request (no redirect following -- that is the client's
        job, so the redirect-handling code path is actually exercised).

        Consults the fault injector first: simulated latency (bounded by
        the request's timeout), connection errors, injected error
        statuses and truncated bodies all happen here, exactly where a
        real server would produce them.
        """
        self.request_log.append(request)
        parsed = urlparse(request.url).normalised()
        normalised = str(parsed.without_fragment())
        self.hit_counts[normalised] = self.hit_counts.get(normalised, 0) + 1

        self._simulate_latency(request, normalised, parsed.host)
        fault = self.faults.fault_for(normalised, parsed.host)
        if fault is not None and fault.kind == "connection":
            raise ConnectionFault(f"connection failed: {request.url}")
        if fault is not None and fault.kind == "status":
            return self._respond(
                request,
                status=fault.status,
                body=_error_body(fault.status),
                headers=self._fault_headers(fault),
            )

        resource = self._resources.get(_key(request.url))
        if resource is None:
            return self._respond(
                request,
                status=404,
                body=_error_body(404),
                headers=Headers({"Content-Type": "text/html"}),
            )
        headers = Headers({"Content-Type": resource.content_type})
        for key, value in resource.extra_headers.items():
            headers.set(key, value)
        if resource.location is not None:
            headers.set("Location", resource.location)
        if resource.etag is not None:
            headers.set("ETag", resource.etag)
        if resource.last_modified is not None:
            headers.set("Last-Modified", resource.last_modified)
        if self._not_modified(request, resource):
            return self._respond(request, status=304, body="", headers=headers)
        body = resource.body
        if resource.status >= 400 and not body:
            body = _error_body(resource.status)
        truncate_to = (
            fault.truncate_to
            if fault is not None and fault.kind == "truncate"
            else None
        )
        return self._respond(
            request,
            status=resource.status,
            body=body,
            headers=headers,
            truncate_to=truncate_to,
        )

    @staticmethod
    def _not_modified(request: Request, resource: _Resource) -> bool:
        """Does a stored validator match the request's conditional headers?

        ``If-None-Match`` wins over ``If-Modified-Since`` when both are
        present, per HTTP.  Only successful, non-redirect resources are
        eligible -- errors and redirects never validate.
        """
        if resource.status != 200 or resource.location is not None:
            return False
        if_none_match = request.headers.get("If-None-Match")
        if if_none_match is not None:
            return resource.etag is not None and (
                if_none_match == "*" or if_none_match == resource.etag
            )
        if_modified_since = request.headers.get("If-Modified-Since")
        if if_modified_since is not None and resource.last_modified is not None:
            return if_modified_since == resource.last_modified
        return False

    def _respond(
        self,
        request: Request,
        *,
        status: int,
        body: str,
        headers: Headers,
        truncate_to: Optional[int] = None,
    ) -> Response:
        """Finish a response: correct Content-Length, HEAD and truncation.

        ``Content-Length`` always advertises the UTF-8 byte length of
        the *full* GET body -- also for HEAD requests (which carry no
        body, per HTTP) and for truncated responses (that mismatch is
        how the client detects the truncation).  A 304 carries no body
        by definition, so it advertises zero.
        """
        headers.set("Content-Length", str(len(body.encode("utf-8"))))
        if request.method == "HEAD" or status == 304:
            body = ""
        elif truncate_to is not None:
            body = body[:truncate_to]
        self._simulate_transfer(request, body)
        return Response(
            status=status, url=request.url, body=body, headers=headers
        )

    def _simulate_transfer(self, request: Request, body: str) -> None:
        """Body-proportional latency: the bandwidth half of the model.

        ``set_bandwidth(bytes_per_s)`` makes every response cost
        ``len(body) / bytes_per_s`` seconds on top of any fixed latency
        -- which is exactly the cost a conditional fetch avoids when the
        server answers 304 (empty body, ~zero transfer).
        """
        delay = self.faults.transfer_seconds(len(body.encode("utf-8")))
        if not delay:
            return
        timeout = request.timeout_s
        if timeout is not None and delay > timeout:
            self._sleep(timeout)
            raise TimeoutFault(
                f"transfer timed out after {timeout:g}s fetching "
                f"{request.url} (body needed {delay:g}s)"
            )
        self._sleep(delay)

    def _simulate_latency(self, request: Request, url: str, host: str) -> None:
        delay = self.faults.latency_for(url, host)
        if not delay:
            return
        timeout = request.timeout_s
        if timeout is not None and delay > timeout:
            self._sleep(timeout)
            raise TimeoutFault(
                f"timed out after {timeout:g}s fetching {request.url} "
                f"(server took {delay:g}s)"
            )
        self._sleep(delay)

    @staticmethod
    def _fault_headers(fault: FaultRule) -> Headers:
        headers = Headers({"Content-Type": "text/html"})
        if fault.retry_after is not None:
            headers.set("Retry-After", f"{fault.retry_after:g}")
        return headers


def _error_body(status: int) -> str:
    reason = reason_for(status)
    return (
        f"<html><head><title>{status} {reason}</title></head>"
        f"<body><h1>{status} {reason}</h1></body></html>"
    )
