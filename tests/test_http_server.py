"""End-to-end tests for the TCP HTTP server (real sockets)."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.gateway.gateway import Gateway
from repro.www.server import HTTPServer, http_get, http_post
from repro.www.virtualweb import VirtualWeb
from tests.conftest import PAPER_EXAMPLE, make_document


@pytest.fixture
def web():
    instance = VirtualWeb()
    instance.add_page("http://127.0.0.1/index.html", make_document("<p>home</p>"))
    instance.add_page("http://127.0.0.1/test.html", PAPER_EXAMPLE)
    instance.add_redirect("http://127.0.0.1/old.html", "/index.html")
    return instance


def _rebind(web: VirtualWeb, server: HTTPServer) -> None:
    """Re-home the fixture pages onto the server's ephemeral port."""
    for path in ("/index.html", "/test.html"):
        response = web.handle(
            __import__("repro.www.message", fromlist=["Request"]).Request(
                "GET", f"http://127.0.0.1{path}"
            )
        )
        web.add_page(f"{server.base_url}{path}", response.body)
    web.add_redirect(f"{server.base_url}/old.html", "/index.html")


class TestHTTPServer:
    def test_serves_page(self, web):
        with HTTPServer(web) as server:
            _rebind(web, server)
            status, headers, body = http_get(f"{server.base_url}/index.html")
        assert status == 200
        assert "home" in body
        assert headers["content-type"].startswith("text/html")

    def test_404(self, web):
        with HTTPServer(web) as server:
            status, _headers, body = http_get(f"{server.base_url}/none.html")
        assert status == 404 and "404" in body

    def test_redirect_passes_through(self, web):
        with HTTPServer(web) as server:
            _rebind(web, server)
            status, headers, _body = http_get(f"{server.base_url}/old.html")
        assert status == 302
        assert headers["location"] == "/index.html"

    def test_content_length_accurate(self, web):
        with HTTPServer(web) as server:
            _rebind(web, server)
            _status, headers, body = http_get(f"{server.base_url}/index.html")
        assert int(headers["content-length"]) == len(body.encode("utf-8"))

    def test_bad_request_line(self, web):
        with HTTPServer(web) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5
            ) as connection:
                connection.sendall(b"NONSENSE\r\n\r\n")
                data = connection.recv(65536)
        assert b"400" in data.split(b"\r\n", 1)[0]

    def test_unsupported_method(self, web):
        with HTTPServer(web) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5
            ) as connection:
                connection.sendall(b"POST /x HTTP/1.0\r\n\r\n")
                data = connection.recv(65536)
        assert b"405" in data.split(b"\r\n", 1)[0]

    def test_concurrent_requests(self, web):
        with HTTPServer(web) as server:
            _rebind(web, server)
            results = [
                http_get(f"{server.base_url}/index.html")[0]
                for _ in range(8)
            ]
        assert results == [200] * 8

    def test_requests_counted(self, web):
        with HTTPServer(web) as server:
            _rebind(web, server)
            http_get(f"{server.base_url}/index.html")
            http_get(f"{server.base_url}/index.html")
            assert server.requests_served == 2

    def test_requests_counted_exactly_under_concurrency(self, web):
        """The requests_served counter is locked: N threads, exact total."""
        per_thread, n_threads = 10, 8
        with HTTPServer(web) as server:
            _rebind(web, server)
            errors: list[str] = []

            def hammer() -> None:
                for _ in range(per_thread):
                    status, _headers, _body = http_get(
                        f"{server.base_url}/index.html"
                    )
                    if status != 200:
                        errors.append(f"status {status}")

            threads = [
                threading.Thread(target=hammer) for _ in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            assert server.requests_served == per_thread * n_threads

    def test_post_body_read_to_content_length(self, web):
        """A POST body that trickles in after the headers is still read
        in full (Content-Length honoured -- the lost-body bugfix)."""
        from repro.gateway.forms import percent_encode

        gateway = Gateway()
        body = f"html={percent_encode(PAPER_EXAMPLE)}".encode("utf-8")
        with HTTPServer(web, gateway=gateway) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as connection:
                head = (
                    f"POST /weblint HTTP/1.0\r\n"
                    f"Content-Type: application/x-www-form-urlencoded\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode("ascii")
                # Headers first, then the body in two late pieces: the
                # old reader stopped at the blank line and lost all this.
                connection.sendall(head)
                time.sleep(0.05)
                connection.sendall(body[: len(body) // 2])
                time.sleep(0.05)
                connection.sendall(body[len(body) // 2 :])
                chunks = []
                while True:
                    chunk = connection.recv(65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
        response = b"".join(chunks).decode("utf-8", "replace")
        assert response.startswith("HTTP/1.0 200")
        assert "odd number of quotes" in response

    def test_oversized_post_body_truncated_not_hung(self, web):
        """A Content-Length beyond the cap is refused with 413 at once,
        without waiting for (or reading) 100MB that never comes."""
        gateway = Gateway()
        with HTTPServer(web, gateway=gateway) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as connection:
                connection.sendall(
                    b"POST /weblint HTTP/1.0\r\n"
                    b"Content-Type: application/x-www-form-urlencoded\r\n"
                    b"Content-Length: 99999999\r\n\r\n"
                    b"html=%3Cp%3E"
                )
                connection.shutdown(socket.SHUT_WR)
                data = _read_all(connection)
            assert server.requests_served == 0  # never handed to the gateway
        assert data.startswith(b"HTTP/1.0 413 ")

    def test_form_post_over_the_limit_reads_413_not_a_reset(self, web):
        """A real >1MB form POST: the client sends its whole body and
        still reads the 413 (the server drains before closing)."""
        body = b"html=" + b"x" * (3 * 1024 * 1024 // 2)
        with HTTPServer(web, gateway=Gateway()) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as connection:
                connection.sendall(
                    b"POST /weblint HTTP/1.0\r\n"
                    b"Content-Type: application/x-www-form-urlencoded\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
                    + body
                )
                connection.shutdown(socket.SHUT_WR)
                data = _read_all(connection)
        assert data.startswith(b"HTTP/1.0 413 ")

    def test_short_post_body_is_400(self, web):
        """A peer that closes before its declared body arrived gets 400;
        the partial body is never treated as the whole request."""
        with HTTPServer(web, gateway=Gateway()) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as connection:
                connection.sendall(
                    b"POST /weblint HTTP/1.0\r\n"
                    b"Content-Type: application/x-www-form-urlencoded\r\n"
                    b"Content-Length: 100\r\n\r\n"
                    b"html=%3Cp%3E"
                )
                connection.shutdown(socket.SHUT_WR)
                data = _read_all(connection)
            assert server.requests_served == 0
        assert data.startswith(b"HTTP/1.0 400 ")
        assert b"12 of 100" in data

    def test_stalled_post_body_is_408(self, web, monkeypatch):
        """A peer that stops sending mid-body gets 408 once the receive
        timeout passes; the partial body is never handled."""
        monkeypatch.setattr("repro.www.server._RECV_TIMEOUT_S", 0.2)
        with HTTPServer(web, gateway=Gateway()) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as connection:
                connection.sendall(
                    b"POST /weblint HTTP/1.0\r\n"
                    b"Content-Type: application/x-www-form-urlencoded\r\n"
                    b"Content-Length: 200\r\n\r\n"
                    b"html=%3Cp%3E"
                )
                data = _read_all(connection)
            assert server.requests_served == 0
        assert data.startswith(b"HTTP/1.0 408 Request Timeout\r\n")
        assert b"12 of 200" in data


def _read_all(connection: socket.socket) -> bytes:
    chunks = []
    while True:
        chunk = connection.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


class TestGatewayOverTCP:
    """The 'standard gateway distribution' of section 4.6, end to end."""

    def test_gateway_report_over_the_wire(self, web):
        from repro.gateway.forms import percent_encode

        gateway = Gateway()
        with HTTPServer(web, gateway=gateway) as server:
            encoded = percent_encode(PAPER_EXAMPLE)
            status, _headers, body = http_get(
                f"{server.base_url}/weblint?html={encoded}"
            )
        assert status == 200
        assert "odd number of quotes" in body

    def test_gateway_error_status_over_the_wire(self, web):
        gateway = Gateway()
        with HTTPServer(web, gateway=gateway) as server:
            status, _headers, body = http_get(f"{server.base_url}/weblint")
        assert status == 400

    def test_gateway_path_configurable(self, web):
        gateway = Gateway()
        with HTTPServer(web, gateway=gateway, gateway_path="/check") as server:
            status, _headers, _body = http_get(
                f"{server.base_url}/check?html=%3Cp%3Ex%3C%2Fp%3E"
            )
        assert status == 200


class TestHTTPClient:
    """The in-repo client half: clean errors, not tracebacks."""

    @pytest.mark.parametrize(
        "raw",
        [
            b"garbage\r\n\r\n",
            b"\r\n\r\n",
            b"HTTP/1.0 OK\r\n\r\n",
        ],
    )
    def test_malformed_status_line_raises_value_error(self, raw):
        """A junk status line is a ValueError, not an IndexError."""

        def serve_once(listener: socket.socket) -> None:
            connection, _addr = listener.accept()
            with connection:
                connection.recv(65536)
                connection.sendall(raw)

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        thread = threading.Thread(target=serve_once, args=(listener,))
        thread.start()
        try:
            with pytest.raises(ValueError, match="malformed status line"):
                http_get(f"http://127.0.0.1:{port}/x")
        finally:
            thread.join(timeout=10)
            listener.close()

    def test_http_post_round_trips(self, web):
        gateway = Gateway()
        with HTTPServer(web, gateway=gateway) as server:
            status, headers, body = http_post(
                f"{server.base_url}/weblint",
                "html=%3Cp%3Ehello",
                content_type="application/x-www-form-urlencoded",
            )
        assert status == 200
        assert int(headers["content-length"]) == len(body.encode("utf-8"))
