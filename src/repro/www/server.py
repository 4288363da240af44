"""A small HTTP/1.0 server exposing a VirtualWeb (or the gateway) on TCP.

The paper's gateways run behind real web servers; "I regularly receive
requests for a standard gateway distribution, particularly for
installation behind firewalls, e.g. for intranet use" (section 4.6).
This module is that standard distribution's server half: a threaded
HTTP/1.0 server written on plain sockets, serving

- the resources of a :class:`~repro.www.virtualweb.VirtualWeb`,
- optionally the weblint gateway under a configurable path
  (``/weblint`` by default), so ``GET /weblint?url=...`` -- or a
  ``POST`` with an urlencoded body -- returns a report page,
- optionally a :class:`~repro.daemon.daemon.LintDaemon`: ``POST /lint``
  speaks the JSON batch protocol on pre-warmed workers, ``/healthz``
  reports liveness, and every daemon-backed route sits behind the
  daemon's admission gate (429 + ``Retry-After`` when saturated, 503
  while draining), and
- the process's metrics registry in the OpenMetrics text exposition
  under ``/metrics`` (configurable; ``metrics_path=None`` disables it),
  so a Prometheus-style scraper -- or ``curl`` -- can watch a running
  gateway.

It exists to exercise the full network code path end to end inside the
test-suite (real sockets, real request parsing) without any outside
connectivity.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Optional

from repro.www.message import Request, Response, reason_for
from repro.www.virtualweb import VirtualWeb

_MAX_REQUEST_BYTES = 1024 * 1024
#: Seconds each ``recv`` of a request may wait; a request body that
#: stalls this long is answered 408.
_RECV_TIMEOUT_S = 5.0
#: After an error status, how much unread input the server drains (and
#: for how long) before closing, so the client reads the status instead
#: of a connection reset.
_DRAIN_BYTES = 4 * _MAX_REQUEST_BYTES
_DRAIN_SECONDS = 2.0


class _RequestError(Exception):
    """A request answered with an error status instead of being handled."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status


class HTTPServer:
    """Threaded HTTP/1.0 server over a VirtualWeb.

    Use as a context manager::

        with HTTPServer(web) as server:
            raw_http_get(f"http://127.0.0.1:{server.port}/index.html")
    """

    def __init__(
        self,
        web: VirtualWeb,
        host: str = "127.0.0.1",
        port: int = 0,
        gateway=None,
        gateway_path: str = "/weblint",
        metrics_path: Optional[str] = "/metrics",
        daemon=None,
        lint_path: str = "/lint",
        health_path: str = "/healthz",
    ) -> None:
        self.web = web
        self.host = host
        self.gateway = gateway
        self.gateway_path = gateway_path
        self.metrics_path = metrics_path
        self.daemon = daemon
        self.lint_path = lint_path
        self.health_path = health_path
        self._socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._socket.bind((host, port))
        self._socket.listen(16)
        self.port = self._socket.getsockname()[1]
        self._running = False
        self._thread: Optional[threading.Thread] = None
        # Handler threads do the increment concurrently; the lock keeps
        # the count exact (it is asserted, and exported as a gauge).
        self._served_lock = threading.Lock()
        self._requests_served = 0

    @property
    def requests_served(self) -> int:
        with self._served_lock:
            return self._requests_served

    def _count_request(self) -> None:
        with self._served_lock:
            self._requests_served += 1
            served = self._requests_served
        from repro.obs.metrics import get_registry

        get_registry().set_gauge("www.server.requests_served", served)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "HTTPServer":
        self._running = True
        self._thread = threading.Thread(target=self._serve_loop, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._running = False
        try:
            # Unblock accept() with a throwaway connection.
            with socket.create_connection((self.host, self.port), timeout=1):
                pass
        except OSError:
            pass
        self._socket.close()
        if self._thread is not None:
            self._thread.join(timeout=2)

    def __enter__(self) -> "HTTPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- the loop -------------------------------------------------------------

    def _serve_loop(self) -> None:
        while self._running:
            try:
                connection, _address = self._socket.accept()
            except OSError:
                return
            if not self._running:
                connection.close()
                return
            thread = threading.Thread(
                target=self._handle_connection, args=(connection,), daemon=True
            )
            thread.start()

    def _handle_connection(self, connection: socket.socket) -> None:
        try:
            connection.settimeout(_RECV_TIMEOUT_S)
            try:
                raw = self._read_request(connection)
            except _RequestError as exc:
                title = f"{exc.status} {reason_for(exc.status)}"
                connection.sendall(
                    _render(exc.status, f"<h1>{title}</h1><p>{exc}</p>")
                )
                _drain(connection)
                return
            if raw is None:
                return
            response_bytes = self._respond(raw)
            connection.sendall(response_bytes)
        except OSError:
            pass
        finally:
            try:
                connection.close()
            except OSError:
                pass

    @staticmethod
    def _read_request(connection: socket.socket) -> Optional[bytes]:
        """Read one request: the head, then Content-Length body bytes.

        The historical bug here stopped at the header boundary, so POST
        form submissions silently lost their body.  Now the declared
        body is read too.  A request whose declared size exceeds
        ``_MAX_REQUEST_BYTES`` is refused with 413 before any of its
        body is read, a peer that closes before its declared body has
        arrived gets 400, and one whose body stalls for
        ``_RECV_TIMEOUT_S`` gets 408 (all raise :class:`_RequestError`);
        a partial body is never handled as the whole request.
        """
        data = b""
        while b"\r\n\r\n" not in data and b"\n\n" not in data:
            try:
                chunk = connection.recv(65536)
            except OSError:
                return None
            if not chunk:
                break
            data += chunk
            if len(data) > _MAX_REQUEST_BYTES:
                return data
        header_end = _header_end(data)
        if header_end is None:
            return data or None
        content_length = _declared_content_length(data[:header_end])
        want = header_end + content_length
        if want > _MAX_REQUEST_BYTES:
            raise _RequestError(
                413,
                f"a {content_length}-byte body exceeds the "
                f"{_MAX_REQUEST_BYTES}-byte request limit",
            )
        while len(data) < want:
            try:
                chunk = connection.recv(65536)
            except TimeoutError:
                raise _RequestError(
                    408,
                    f"request body stalled after {len(data) - header_end} of "
                    f"{content_length} declared bytes",
                ) from None
            except OSError:
                return None
            if not chunk:
                raise _RequestError(
                    400,
                    f"connection closed after {len(data) - header_end} of "
                    f"{content_length} declared body bytes",
                )
            data += chunk
        return data or None

    # -- request handling ----------------------------------------------------------

    def _respond(self, raw: bytes) -> bytes:
        try:
            method, target = self._parse_request_line(raw)
        except ValueError as exc:
            return _render(400, f"<h1>400 Bad Request</h1><p>{exc}</p>")
        self._count_request()

        headers, body = _split_head_body(raw)
        path, _, query = target.partition("?")
        if self.metrics_path is not None and path == self.metrics_path:
            from repro.obs.export import render_openmetrics

            return _render(
                200,
                render_openmetrics(),
                content_type="text/plain; version=0.0.4",
                include_body=method != "HEAD",
            )
        if self.daemon is not None and path == self.health_path:
            return self._respond_health(method)
        if self.daemon is not None and path == self.lint_path:
            return self._respond_lint(method, body)
        if self.gateway is not None and path == self.gateway_path:
            return self._respond_gateway(method, query, headers, body)

        try:
            request = Request(method=method, url=f"{self.base_url}{target}")
        except ValueError:
            return _render(405, "<h1>405 Method Not Allowed</h1>")
        response = self.web.handle(request)
        return _render_response(response, include_body=method != "HEAD")

    def _respond_gateway(
        self, method: str, query: str, headers: dict[str, str], body: bytes
    ) -> bytes:
        from repro.gateway.forms import parse_form, parse_query_string

        form = parse_query_string(query)
        if method == "POST" and body:
            content_type = headers.get("content-type", "")
            if (
                not content_type
                or "application/x-www-form-urlencoded" in content_type
            ):
                posted = parse_form(body.decode("utf-8", errors="replace"))
                for name, values in posted.fields.items():
                    for value in values:
                        form.add(name, value)
        if self.daemon is not None:
            from repro.daemon.daemon import DaemonSaturated

            try:
                with self.daemon.admitted():
                    gateway_response = self.gateway.handle(form)
            except DaemonSaturated as exc:
                return _render_saturated(exc)
        else:
            gateway_response = self.gateway.handle(form)
        return _render(
            gateway_response.status,
            gateway_response.body,
            content_type=gateway_response.content_type,
            include_body=method != "HEAD",
        )

    def _respond_lint(self, method: str, body: bytes) -> bytes:
        from repro.config import options_from_dict
        from repro.config.options import UnknownMessageError
        from repro.daemon.daemon import DaemonSaturated
        from repro.daemon.protocol import (
            ProtocolError,
            decode_batch_request,
            encode_batch_response,
        )

        if method != "POST":
            return _render_json(405, {"error": "POST a JSON lint batch"})
        try:
            requests, raw_options = decode_batch_request(
                body.decode("utf-8", errors="replace")
            )
            options = (
                options_from_dict(self.daemon.options, raw_options)
                if raw_options
                else None
            )
        except (
            ProtocolError, UnknownMessageError, ValueError, KeyError
        ) as exc:
            return _render_json(400, {"error": str(exc)})
        try:
            with self.daemon.admitted():
                results = self.daemon.check_batch(requests, options=options)
        except DaemonSaturated as exc:
            return _render_saturated(exc, as_json=True)
        return _render(
            200, encode_batch_response(results), content_type="application/json"
        )

    def _respond_health(self, method: str) -> bytes:
        daemon = self.daemon
        return _render_json(
            200,
            {
                "status": "draining" if daemon.draining else "ok",
                "queue_depth": daemon.gate.depth,
                "queue_limit": daemon.gate.limit,
                "workers": daemon.jobs if daemon.pool is not None else 1,
            },
            include_body=method != "HEAD",
        )

    @staticmethod
    def _parse_request_line(raw: bytes) -> tuple[str, str]:
        try:
            first_line = raw.split(b"\r\n", 1)[0].split(b"\n", 1)[0]
            text = first_line.decode("latin-1")
        except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
            raise ValueError("undecodable request line") from exc
        parts = text.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise ValueError(f"malformed request line: {text!r}")
        method, target, _version = parts
        if not target.startswith("/"):
            raise ValueError(f"origin-form target expected: {target!r}")
        return method.upper(), target


def _header_end(data: bytes) -> Optional[int]:
    """Offset just past the head/body separator, or None if not seen."""
    candidates = []
    for separator in (b"\r\n\r\n", b"\n\n"):
        index = data.find(separator)
        if index != -1:
            candidates.append(index + len(separator))
    return min(candidates) if candidates else None


def _declared_content_length(head: bytes) -> int:
    """The Content-Length a request head declares (0 when absent/bad)."""
    for line in head.replace(b"\r\n", b"\n").split(b"\n")[1:]:
        key, _, value = line.partition(b":")
        if key.strip().lower() == b"content-length":
            try:
                return max(0, int(value.strip()))
            except ValueError:
                return 0
    return 0


def _drain(connection: socket.socket) -> None:
    """Half-close, then read and drop what the client still sends.

    Closing a socket with unread input makes the kernel answer with a
    reset, which can destroy an error response before the client reads
    it.  Bounded in bytes and time, so a client that never stops sending
    cannot hold the thread.
    """
    connection.shutdown(socket.SHUT_WR)
    deadline = time.monotonic() + _DRAIN_SECONDS
    left = _DRAIN_BYTES
    while left > 0:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return
        connection.settimeout(remaining)
        chunk = connection.recv(min(65536, left))
        if not chunk:
            return
        left -= len(chunk)


def _split_head_body(raw: bytes) -> tuple[dict[str, str], bytes]:
    """Lower-cased header dict plus the body bytes of one raw request."""
    header_end = _header_end(raw)
    if header_end is None:
        head, body = raw, b""
    else:
        head, body = raw[:header_end], raw[header_end:]
    headers: dict[str, str] = {}
    for line in head.replace(b"\r\n", b"\n").split(b"\n")[1:]:
        if not line.strip():
            continue
        key, sep, value = line.partition(b":")
        if not sep:
            continue
        headers[key.strip().lower().decode("latin-1")] = value.strip().decode(
            "latin-1", errors="replace"
        )
    content_length = _declared_content_length(head)
    return headers, body[:content_length] if content_length else body


def _render(
    status: int,
    body: str,
    content_type: str = "text/html",
    include_body: bool = True,
    extra_headers: Optional[dict[str, str]] = None,
) -> bytes:
    payload = body.encode("utf-8")
    lines = [
        f"HTTP/1.0 {status} {reason_for(status)}",
        f"Content-Type: {content_type}; charset=utf-8",
        f"Content-Length: {len(payload)}",
        "Server: weblint-repro/2.0",
    ]
    for key, value in (extra_headers or {}).items():
        lines.append(f"{key}: {value}")
    lines.append("Connection: close")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + (payload if include_body else b"")


def _render_json(
    status: int, payload: dict[str, object], include_body: bool = True
) -> bytes:
    return _render(
        status,
        json.dumps(payload),
        content_type="application/json",
        include_body=include_body,
    )


def _render_saturated(exc, as_json: bool = False) -> bytes:
    """The backpressure response: 429 when full, 503 while draining."""
    status = 503 if exc.draining else 429
    headers = {"Retry-After": str(exc.retry_after_s)}
    if as_json:
        return _render(
            status,
            json.dumps({"error": str(exc), "retry_after": exc.retry_after_s}),
            content_type="application/json",
            extra_headers=headers,
        )
    return _render(
        status,
        f"<h1>{status} {reason_for(status)}</h1><p>{exc}</p>",
        extra_headers=headers,
    )


def _render_response(response: Response, include_body: bool = True) -> bytes:
    payload = response.body.encode("utf-8")
    lines = [f"HTTP/1.0 {response.status} {response.reason}"]
    seen_keys = set()
    for key, value in response.headers.items():
        lines.append(f"{key}: {value}")
        seen_keys.add(key.lower())
    if "content-length" not in seen_keys:
        lines.append(f"Content-Length: {len(payload)}")
    lines.append("Connection: close")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + (payload if include_body else b"")


def _raw_request(
    method: str,
    url: str,
    body: Optional[bytes] = None,
    content_type: str = "application/json",
    timeout: float = 5.0,
) -> tuple[int, dict[str, str], str]:
    """One raw-socket HTTP/1.0 exchange; ``(status, headers, body)``.

    A malformed status line from the server raises a clean
    :class:`ValueError` (historically this crashed with an IndexError
    deep in the parsing).
    """
    from repro.www.url import urlparse

    parsed = urlparse(url)
    host = parsed.host or "127.0.0.1"
    port = parsed.effective_port() or 80
    target = parsed.path or "/"
    if parsed.query:
        target += "?" + parsed.query

    lines = [
        f"{method} {target} HTTP/1.0",
        f"Host: {host}",
        "User-Agent: repro-raw-client/1.0",
    ]
    if body is not None:
        lines.append(f"Content-Type: {content_type}")
        lines.append(f"Content-Length: {len(body)}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    with socket.create_connection((host, port), timeout=timeout) as connection:
        connection.sendall(head + (body or b""))
        data = b""
        while True:
            chunk = connection.recv(65536)
            if not chunk:
                break
            data += chunk

    head_bytes, _, payload = data.partition(b"\r\n\r\n")
    head_lines = head_bytes.decode("latin-1").split("\r\n")
    status_line = head_lines[0] if head_lines else ""
    parts = status_line.split()
    if len(parts) < 2 or not parts[1].isdigit():
        raise ValueError(f"malformed status line: {status_line!r}")
    status = int(parts[1])
    headers: dict[str, str] = {}
    for line in head_lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return status, headers, payload.decode("utf-8", errors="replace")


def http_get(url: str, timeout: float = 5.0) -> tuple[int, dict[str, str], str]:
    """A minimal raw-socket HTTP/1.0 GET, for tests and examples.

    Returns ``(status, headers, body)``.  Only ``http://host:port/path``
    URLs are supported -- this is deliberately the simplest client that
    can exercise :class:`HTTPServer` end to end.  Raises ``ValueError``
    when the server's status line is malformed.
    """
    return _raw_request("GET", url, timeout=timeout)


def http_post(
    url: str,
    body: str,
    content_type: str = "application/json",
    timeout: float = 5.0,
) -> tuple[int, dict[str, str], str]:
    """Raw-socket HTTP/1.0 POST -- the client half of ``POST /lint``."""
    return _raw_request(
        "POST",
        url,
        body=body.encode("utf-8"),
        content_type=content_type,
        timeout=timeout,
    )
