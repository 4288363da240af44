"""Tests for the virtual web, the user agent and robots.txt."""

from __future__ import annotations

import pytest

from repro.www.client import FetchError, NoNetworkError, UserAgent
from repro.www.message import Headers, Request, Response
from repro.www.robotstxt import RobotsTxt
from repro.www.virtualweb import VirtualWeb


@pytest.fixture
def web():
    instance = VirtualWeb()
    instance.add_page("http://h/", "<html><body>home</body></html>")
    instance.add_page("http://h/a.html", "page a")
    return instance


class TestHeaders:
    def test_case_insensitive(self):
        headers = Headers({"Content-Type": "text/html"})
        assert headers.get("content-type") == "text/html"
        assert "CONTENT-TYPE" in headers

    def test_set_replaces(self):
        headers = Headers()
        headers.set("X", "1")
        headers.set("x", "2")
        assert headers.get("X") == "2"
        assert len(headers.items()) == 1

    def test_add_keeps_both(self):
        headers = Headers()
        headers.add("Set-Cookie", "a")
        headers.add("Set-Cookie", "b")
        assert len(headers.items()) == 2
        assert headers.get("set-cookie") == "b"


class TestMessages:
    def test_request_normalises_method(self):
        assert Request("get", "http://h/").method == "GET"

    def test_request_rejects_post(self):
        with pytest.raises(ValueError):
            Request("POST", "http://h/")

    def test_response_predicates(self):
        response = Response(status=200, url="http://h/",
                            headers=Headers({"Content-Type": "text/html; charset=x"}))
        assert response.ok and response.is_html
        assert response.reason == "OK"

    def test_redirect_predicates(self):
        response = Response(status=302, url="http://h/",
                            headers=Headers({"Location": "/x"}))
        assert response.is_redirect and response.location == "/x"


class TestVirtualWeb:
    def test_serves_page(self, web):
        response = web.handle(Request("GET", "http://h/a.html"))
        assert response.status == 200 and response.body == "page a"

    def test_404_for_missing(self, web):
        response = web.handle(Request("GET", "http://h/missing.html"))
        assert response.status == 404
        assert "404" in response.body

    def test_head_has_no_body(self, web):
        response = web.handle(Request("HEAD", "http://h/a.html"))
        assert response.status == 200 and response.body == ""

    def test_redirect_not_followed_by_server(self, web):
        web.add_redirect("http://h/old", "/a.html")
        response = web.handle(Request("GET", "http://h/old"))
        assert response.is_redirect and response.location == "/a.html"

    def test_broken_with_status(self, web):
        web.add_broken("http://h/gone", status=410)
        assert web.handle(Request("GET", "http://h/gone")).status == 410

    def test_hit_counts(self, web):
        web.handle(Request("GET", "http://h/a.html"))
        web.handle(Request("GET", "http://h/a.html#frag"))
        assert web.hit_counts["http://h/a.html"] == 2

    def test_add_site_mapping(self):
        web = VirtualWeb()
        urls = web.add_site("http://s/", {"index.html": "i", "sub/x.html": "x"})
        assert "http://s/index.html" in urls
        assert web.handle(Request("GET", "http://s/sub/x.html")).body == "x"

    def test_add_site_from_directory(self, tmp_path):
        (tmp_path / "index.html").write_text("root")
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "p.html").write_text("deep")
        web = VirtualWeb()
        web.add_site("http://s/", tmp_path)
        assert web.handle(Request("GET", "http://s/d/p.html")).body == "deep"

    def test_head_on_unknown_url_has_no_body(self, web):
        response = web.handle(Request("HEAD", "http://h/missing.html"))
        assert response.status == 404
        assert response.body == ""
        # Content-Length still advertises the GET error body.
        get_body = web.handle(Request("GET", "http://h/missing.html")).body
        assert response.headers.get("Content-Length") == str(
            len(get_body.encode("utf-8"))
        )

    def test_content_length_is_utf8_byte_count(self, web):
        web.add_page("http://h/u.html", "héllo — ünïcode")
        response = web.handle(Request("GET", "http://h/u.html"))
        declared = int(response.headers.get("Content-Length"))
        assert declared == len(response.body.encode("utf-8"))
        assert declared > len(response.body)  # multi-byte characters

    def test_error_body_content_length_matches(self, web):
        web.add_broken("http://h/gone", status=410)
        response = web.handle(Request("GET", "http://h/gone"))
        assert int(response.headers.get("Content-Length")) == len(
            response.body.encode("utf-8")
        )

    def test_remove(self, web):
        web.remove("http://h/a.html")
        assert web.handle(Request("GET", "http://h/a.html")).status == 404

    def test_urls_listing(self, web):
        assert "http://h/a.html" in web.urls()



def _mount(kind, files, tmp_path):
    """A VirtualWeb with ``files`` mounted at http://s/ as ``kind``."""
    web = VirtualWeb()
    if kind == "directory":
        for name, body in files.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(body)
        web.add_site("http://s/", tmp_path)
    else:
        web.add_site("http://s/", files)
    return web


def _get(web, url):
    return web.handle(Request("GET", url))


@pytest.mark.parametrize("kind", ["directory", "mapping"])
class TestMountedSite:
    """A mounted site answers like a static web server, either way."""

    def test_content_type_follows_the_extension(self, kind, tmp_path):
        web = _mount(kind, {
            "a.html": "a", "b.HTM": "b", "c.xhtml": "c", "notes.txt": "t",
            "logo.gif": "GIF89a", "blob.unknownext": "?",
        }, tmp_path)
        types = {
            name: _get(web, f"http://s/{name}").headers.get("Content-Type")
            for name in ("a.html", "b.HTM", "c.xhtml", "notes.txt",
                         "logo.gif", "blob.unknownext")
        }
        assert types == {
            "a.html": "text/html", "b.HTM": "text/html",
            "c.xhtml": "text/html", "notes.txt": "text/plain",
            "logo.gif": "image/gif",
            "blob.unknownext": "application/octet-stream",
        }

    def test_directory_serves_its_index(self, kind, tmp_path):
        web = _mount(kind, {"index.html": "root", "sub/index.htm": "sub"},
                     tmp_path)
        root = _get(web, "http://s/")
        sub = _get(web, "http://s/sub/")
        assert (root.status, root.body) == (200, "root")
        assert (sub.status, sub.body) == (200, "sub")
        assert sub.headers.get("Content-Type") == "text/html"

    def test_first_index_file_wins(self, kind, tmp_path):
        web = _mount(kind, {
            "default.htm": "default", "index.shtml": "shtml",
            "sub/default.htm": "default", "sub/index.htm": "htm",
            "sub/index.html": "html",
        }, tmp_path)
        assert _get(web, "http://s/").body == "shtml"
        assert _get(web, "http://s/sub/").body == "html"

    def test_directory_without_slash_redirects(self, kind, tmp_path):
        web = _mount(kind, {"sub/index.html": "sub", "bare/page.html": "p"},
                     tmp_path)
        response = _get(web, "http://s/sub")
        assert response.status == 301
        assert response.headers.get("Location") == "http://s/sub/"
        # No index: no page at bare/, and bare stays unknown.
        assert _get(web, "http://s/bare/").status == 404
        assert _get(web, "http://s/bare").status == 404

class TestUserAgent:
    def test_get(self, web):
        assert UserAgent(web).get("http://h/a.html").body == "page a"

    def test_follows_redirect_chain(self, web):
        web.add_redirect("http://h/one", "/two")
        web.add_redirect("http://h/two", "/a.html")
        response = UserAgent(web).get("http://h/one")
        assert response.body == "page a"
        assert response.url == "http://h/a.html"
        assert len(response.redirects) == 2

    def test_redirect_loop_detected(self, web):
        web.add_redirect("http://h/x", "/y")
        web.add_redirect("http://h/y", "/x")
        with pytest.raises(FetchError, match="loop"):
            UserAgent(web).get("http://h/x")

    def test_too_many_redirects(self, web):
        for index in range(10):
            web.add_redirect(f"http://h/r{index}", f"/r{index + 1}")
        with pytest.raises(FetchError, match="redirect"):
            UserAgent(web, max_redirects=3).get("http://h/r0")

    def test_redirect_chain_of_exactly_max_redirects_succeeds(self, web):
        # 3 redirect hops + the final page = 4 requests at max_redirects=3.
        web.add_redirect("http://h/c0", "/c1")
        web.add_redirect("http://h/c1", "/c2")
        web.add_redirect("http://h/c2", "/a.html")
        response = UserAgent(web, max_redirects=3).get("http://h/c0")
        assert response.ok and response.url == "http://h/a.html"
        assert len(response.redirects) == 3
        # One hop more is one too many.
        web.add_redirect("http://h/d0", "/c0")
        with pytest.raises(FetchError, match="too many redirects"):
            UserAgent(web, max_redirects=3).get("http://h/d0")

    def test_redirect_loop_through_fragment_stripped_url(self, web):
        # The intermediate hop differs only by fragment; normalisation
        # must still detect the loop instead of bouncing forever.
        web.add_redirect("http://h/x", "/y#section")
        web.add_redirect("http://h/y", "/x")
        with pytest.raises(FetchError, match="loop"):
            UserAgent(web).get("http://h/x")

    def test_redirect_loop_through_normalised_url(self, web):
        web.add_redirect("http://h/x", "http://h:80/./x")
        with pytest.raises(FetchError, match="loop"):
            UserAgent(web).get("http://h/x")

    def test_relative_location_resolved(self, web):
        web.add_redirect("http://h/dir/old", "new.html")
        web.add_page("http://h/dir/new.html", "moved")
        assert UserAgent(web).get("http://h/dir/old").body == "moved"

    def test_no_web_raises(self):
        with pytest.raises(NoNetworkError):
            UserAgent().get("http://h/")

    def test_exists(self, web):
        agent = UserAgent(web)
        assert agent.exists("http://h/a.html")
        assert not agent.exists("http://h/nope.html")

    def test_exists_false_when_head_redirects_to_404(self, web):
        web.add_redirect("http://h/moved", "/vanished.html")
        assert not UserAgent(web).exists("http://h/moved")

    def test_exists_true_through_redirect(self, web):
        web.add_redirect("http://h/moved-ok", "/a.html")
        assert UserAgent(web).exists("http://h/moved-ok")

    def test_user_agent_header_sent(self, web):
        UserAgent(web, agent_name="test-bot/1.0").get("http://h/a.html")
        assert web.request_log[-1].headers.get("User-Agent") == "test-bot/1.0"


ROBOTS = """
# example robots file
User-agent: poacher
Disallow: /private/
Allow: /private/public.html

User-agent: *
Disallow: /secret/
"""


class TestRobotsTxt:
    def test_specific_agent_rules(self):
        rules = RobotsTxt(ROBOTS)
        assert not rules.allowed("/private/x.html", "poacher-repro/2.0")
        assert rules.allowed("/private/public.html", "poacher-repro/2.0")
        assert rules.allowed("/secret/x.html", "poacher-repro/2.0")

    def test_wildcard_rules(self):
        rules = RobotsTxt(ROBOTS)
        assert not rules.allowed("/secret/x.html", "otherbot")
        assert rules.allowed("/private/x.html", "otherbot")

    def test_empty_file_allows_all(self):
        assert RobotsTxt("").allowed("/anything")

    def test_disallow_all(self):
        rules = RobotsTxt("User-agent: *\nDisallow: /\n")
        assert not rules.allowed("/x")

    def test_empty_disallow_allows(self):
        rules = RobotsTxt("User-agent: *\nDisallow:\n")
        assert rules.allowed("/x")

    def test_longest_match_wins(self):
        rules = RobotsTxt(
            "User-agent: *\nDisallow: /a/\nAllow: /a/b/\n"
        )
        assert not rules.allowed("/a/x")
        assert rules.allowed("/a/b/x")

    def test_multiple_agents_one_group(self):
        rules = RobotsTxt(
            "User-agent: one\nUser-agent: two\nDisallow: /x/\n"
        )
        assert not rules.allowed("/x/p", "one")
        assert not rules.allowed("/x/p", "two")
