"""URL parsing and resolution tests, including hypothesis properties."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from repro.www.url import (
    DEFAULT_PORTS,
    URL,
    URLError,
    remove_dot_segments,
    resolve,
    urljoin,
    urlparse,
)


def reference_remove_dot_segments(path: str) -> str:
    """RFC 3986 section 5.2.4 dot-segment removal, with no fast path.

    ``remove_dot_segments`` must agree with it on every path.
    """
    if not path:
        return path
    absolute = path.startswith("/")
    output: list[str] = []
    for segment in path.split("/"):
        if segment == ".":
            continue
        if segment == "..":
            if output and output[-1] != "..":
                output.pop()
            elif not absolute:
                output.append("..")
            continue
        output.append(segment)
    # Preserve a trailing slash implied by a final '.' or '..'.
    last = path.rstrip("/").rpartition("/")[2]
    if last in (".", "..") or path.endswith("/"):
        if not output or output[-1] != "":
            output.append("")
    result = re.sub("//+", "/", "/".join(output))
    if absolute and not result.startswith("/"):
        result = "/" + result
    return result


def reference_normalised(url: URL) -> URL:
    """``URL.normalised`` rebuilding every URL, canonical or not."""
    scheme = url.scheme.lower()
    host = url.host.lower()
    port = url.port
    if port is not None and port == DEFAULT_PORTS.get(scheme):
        port = None
    path = url.path
    if host and not path:
        path = "/"
    return URL(
        scheme=scheme,
        host=host,
        port=port,
        path=reference_remove_dot_segments(path),
        query=url.query,
        fragment=url.fragment,
    )


#: Paths, relative and absolute, built from the segments that decide
#: dot removal: dots, trailing dots, empty segments, and the characters
#: that end a path or look like a scheme.
_PATHS = st.builds(
    lambda lead, segments: lead + "/".join(segments),
    st.sampled_from(["", "/"]),
    st.lists(
        st.sampled_from(["a", "b.", ".", "..", "", "?", "#", ":", "a:1"]),
        max_size=7,
    ),
)
_AUTHORITIES = st.builds(
    "{}{}".format,
    st.sampled_from(["h", "H", "Ex.COM"]),
    st.sampled_from(["", ":80", ":443", ":81"]),
)
_ABSOLUTE_URLS = st.builds(
    "{}://{}/{}".format,
    st.sampled_from(["http", "HTTP", "https"]),
    _AUTHORITIES,
    _PATHS,
)
_REFERENCES = st.one_of(
    _PATHS,
    _ABSOLUTE_URLS,
    st.builds("//{}/{}".format, _AUTHORITIES, _PATHS),
)


class TestParse:
    def test_full_url(self):
        url = urlparse("http://user@example.com:8080/a/b?x=1#frag")
        assert url.scheme == "http"
        assert url.host == "example.com"
        assert url.port == 8080
        assert url.path == "/a/b"
        assert url.query == "x=1"
        assert url.fragment == "frag"

    def test_minimal_absolute(self):
        url = urlparse("http://example.com")
        assert url.host == "example.com"
        assert url.path in ("", "/")  # parser may supply the implicit '/'

    def test_relative_path(self):
        url = urlparse("a/b.html")
        assert not url.is_absolute
        assert url.path == "a/b.html"

    def test_fragment_only(self):
        url = urlparse("#top")
        assert url.is_fragment_only

    def test_scheme_lowered(self):
        assert urlparse("HTTP://X.COM/").scheme == "http"

    def test_mailto(self):
        url = urlparse("mailto:bob@example.com")
        assert url.scheme == "mailto"
        assert url.path == "bob@example.com"

    def test_bad_port(self):
        with pytest.raises(URLError):
            urlparse("http://h:notaport/")

    def test_effective_port(self):
        assert urlparse("http://h/").effective_port() == 80
        assert urlparse("https://h/").effective_port() == 443
        assert urlparse("http://h:8080/").effective_port() == 8080

    def test_str_roundtrip(self):
        text = "http://example.com:8080/a/b?x=1#f"
        assert str(urlparse(text)) == text


class TestNormalise:
    def test_default_port_dropped(self):
        assert str(urlparse("http://h:80/x").normalised()) == "http://h/x"

    def test_empty_path_becomes_slash(self):
        assert urlparse("http://h").normalised().path == "/"

    def test_host_lowered(self):
        assert urlparse("http://EXAMPLE.com/").normalised().host == "example.com"

    def test_same_host(self):
        a = urlparse("http://H.com/x")
        b = urlparse("http://h.com:80/y")
        assert a.same_host(b)

    def test_without_fragment(self):
        assert urlparse("http://h/x#f").without_fragment().fragment == ""


class TestDotSegments:
    @pytest.mark.parametrize(
        "path,expected",
        [
            ("/a/b/../c", "/a/c"),
            ("/a/./b", "/a/b"),
            ("/../a", "/a"),
            ("/a/b/..", "/a/"),
            ("a/../b", "b"),
            ("../x", "../x"),
            ("/a//b", "/a/b"),
            ("", ""),
            ("/a/b.", "/a/b."),
            ("/v1.", "/v1."),
        ],
    )
    def test_removal(self, path, expected):
        assert remove_dot_segments(path) == expected


class TestJoin:
    @pytest.mark.parametrize(
        "base,ref,expected",
        [
            ("http://h/a/b.html", "c.html", "http://h/a/c.html"),
            ("http://h/a/b.html", "/c.html", "http://h/c.html"),
            ("http://h/a/b.html", "../c.html", "http://h/c.html"),
            ("http://h/a/b.html", "http://other/x", "http://other/x"),
            ("http://h/a/b.html", "//other/x", "http://other/x"),
            ("http://h/a/", "sub/", "http://h/a/sub/"),
            ("http://h/a/b.html", "?q=1", "http://h/a/b.html?q=1"),
            ("http://h/a/b.html", "#top", "http://h/a/b.html#top"),
            ("http://h", "x.html", "http://h/x.html"),
            ("http://h/x/y.html", "file.", "http://h/x/file."),
        ],
    )
    def test_join_cases(self, base, ref, expected):
        assert str(urljoin(base, ref)) == expected

    def test_join_accepts_url_objects(self):
        base = urlparse("http://h/a/")
        assert str(urljoin(base, urlparse("x"))) == "http://h/a/x"


class TestProperties:
    @given(
        st.text(
            alphabet=st.characters(
                whitelist_categories=("Ll", "Lu", "Nd"),
                whitelist_characters="/.-_~",
            ),
            max_size=40,
        )
    )
    def test_parse_never_crashes_on_paths(self, path):
        url = urlparse(path)
        assert isinstance(url, URL)

    @given(
        st.lists(
            st.sampled_from(["a", "b", "c", ".", ".."]), max_size=8
        ).map(lambda parts: "/" + "/".join(parts))
    )
    def test_dot_removal_idempotent(self, path):
        once = remove_dot_segments(path)
        assert remove_dot_segments(once) == once

    @given(
        st.lists(st.sampled_from(["a", "b", ".."]), max_size=6).map(
            lambda parts: "/".join(parts) or "x"
        )
    )
    def test_join_result_is_absolute(self, ref):
        joined = urljoin("http://host/base/page.html", ref)
        assert joined.scheme == "http"
        assert joined.host == "host"

    @given(st.sampled_from(["http://h/a/b?x=1#f", "http://h:81/", "http://h/"]))
    def test_normalise_idempotent(self, text):
        url = urlparse(text).normalised()
        assert url.normalised() == url

    @given(_PATHS)
    def test_dot_removal_matches_the_reference(self, path):
        assert remove_dot_segments(path) == reference_remove_dot_segments(path)

    @given(_REFERENCES)
    def test_normalised_matches_the_reference(self, text):
        url = urlparse(text)
        assert url.normalised() == reference_normalised(url)

    @given(_ABSOLUTE_URLS, _REFERENCES)
    def test_join_against_a_parsed_base(self, base, ref):
        assert urljoin(urlparse(base), ref) == urljoin(base, ref)

    @given(_ABSOLUTE_URLS, _REFERENCES)
    def test_resolve_is_the_join_without_fragment(self, base, ref):
        expected = str(urljoin(base, ref).without_fragment())
        assert resolve(base, ref) == expected
        assert resolve(urlparse(base), ref) == expected

    @given(_REFERENCES)
    def test_resolve_against_nothing_normalises(self, text):
        expected = str(urlparse(text).normalised().without_fragment())
        assert resolve(text, "") == expected
