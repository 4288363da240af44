"""Tests for form decoding, page weight and the gateway."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.gateway.forms import (
    FormData,
    encode_form,
    parse_form,
    parse_query_string,
    percent_decode,
    percent_encode,
)
from repro.gateway.gateway import Gateway, GatewayReporter
from repro.gateway.htmlreport import estimate_page_weight
from repro.obs.metrics import use_registry
from repro.www.client import UserAgent
from repro.www.virtualweb import VirtualWeb
from tests.conftest import PAPER_EXAMPLE, make_document


class TestPercentCoding:
    def test_decode_basic(self):
        assert percent_decode("a%20b") == "a b"
        assert percent_decode("a+b") == "a b"

    def test_decode_utf8(self):
        assert percent_decode("cr%C3%AApes") == "crêpes"

    def test_decode_bad_escape_left_alone(self):
        assert percent_decode("100%!") == "100%!"
        assert percent_decode("%zz") == "%zz"

    def test_decode_plus_literal(self):
        assert percent_decode("a+b", plus_as_space=False) == "a+b"

    def test_encode_basic(self):
        assert percent_encode("a b&c") == "a+b%26c"

    @given(st.text(max_size=50))
    def test_roundtrip(self, text):
        assert percent_decode(percent_encode(text)) == text


class TestFormParsing:
    def test_parse_query_string(self):
        form = parse_query_string("a=1&b=two+words&b=3&flag")
        assert form.get("a") == "1"
        assert form.get_all("b") == ["two words", "3"]
        assert "flag" in form
        assert form.get("flag") == ""

    def test_leading_question_mark(self):
        assert parse_query_string("?x=1").get("x") == "1"

    def test_parse_form_same_syntax(self):
        assert parse_form("x=%41").get("x") == "A"

    def test_missing_field_default(self):
        assert parse_query_string("").get("nope", "dflt") == "dflt"

    def test_encode_form_roundtrip(self):
        fields = {"url": "http://h/x?a=1", "note": "two words"}
        parsed = parse_query_string(encode_form(fields))
        assert parsed.get("url") == fields["url"]
        assert parsed.get("note") == fields["note"]


class TestPageWeight:
    def test_counts_resources(self):
        page = make_document(
            '<p><img src="a.gif" alt="a" width="1" height="1">'
            '<img src="b.gif" alt="b" width="1" height="1"></p>'
        )
        weight = estimate_page_weight(page)
        assert weight.resource_count == 2
        assert weight.html_bytes == len(page.encode())
        assert weight.estimated_total_bytes > weight.html_bytes

    def test_download_times_ordered(self):
        weight = estimate_page_weight(make_document("<p>x</p>"))
        times = list(weight.download_seconds.values())
        assert times == sorted(times, reverse=True)

    def test_rows_renderable(self):
        rows = estimate_page_weight(make_document("<p>x</p>")).rows()
        assert any("14.4k" in key for key, _value in rows)


def _form(**fields) -> FormData:
    form = FormData()
    for name, value in fields.items():
        if isinstance(value, list):
            for item in value:
                form.add(name, item)
        else:
            form.add(name, value)
    return form


class TestGateway:
    def test_pasted_html_report(self):
        response = Gateway().handle(_form(html=PAPER_EXAMPLE))
        assert response.status == 200
        assert "odd number of quotes" in response.body
        assert "weblint-error" in response.body

    def test_clean_page_reported_clean(self):
        response = Gateway().handle(_form(html=make_document("<p>x</p>")))
        assert "No problems found" in response.body

    def test_url_source(self):
        web = VirtualWeb()
        web.add_page("http://h/x.html", PAPER_EXAMPLE)
        gateway = Gateway(agent=UserAgent(web))
        response = gateway.handle(_form(url="http://h/x.html"))
        assert response.status == 200
        assert "overlap" in response.body

    def test_url_fetch_failure(self):
        gateway = Gateway(agent=UserAgent(VirtualWeb()))
        response = gateway.handle(_form(url="http://h/missing.html"))
        assert response.status == 502

    def test_no_source_is_400(self):
        assert Gateway().handle(_form()).status == 400

    def test_two_sources_is_400(self):
        response = Gateway().handle(_form(html="<p>", url="http://h/"))
        assert response.status == 400

    def test_upload_source(self):
        response = Gateway().handle(
            _form(upload=PAPER_EXAMPLE, filename="test.html")
        )
        assert response.status == 200
        assert "test.html" in response.body

    def test_spec_selection(self):
        page = make_document("<p><blink>x</blink></p>")
        default = Gateway().handle(_form(html=page))
        assert "Netscape specific" in default.body
        navigator = Gateway().handle(_form(html=page, spec="netscape"))
        assert "Netscape specific" not in navigator.body

    def test_pedantic_flag(self):
        page = make_document('<p>Click <a href="x">here</a></p>')
        default = Gateway().handle(_form(html=page))
        assert "content-free" not in default.body
        pedantic = Gateway().handle(_form(html=page, pedantic="1"))
        assert "content-free" in pedantic.body

    def test_enable_disable_fields(self):
        page = make_document("<p><b>x</b></p>")
        response = Gateway().handle(
            _form(html=page, enable=["physical-font"])
        )
        assert "STRONG" in response.body

    @pytest.mark.parametrize(
        "fields, flags",
        [
            ({"preset": "minimal", "pedantic": "1"},
             ["--preset", "minimal", "--pedantic"]),
            ({"spec": "netscape", "enable": ["img-alt", "style"],
              "disable": "img-size"},
             ["-x", "netscape", "-e", "img-alt", "-e", "style",
              "-d", "img-size"]),
        ],
    )
    def test_options_match_the_command_line(self, fields, flags):
        from repro.cli import _build_options, build_parser

        args = build_parser().parse_args(["--no-config", *flags, "x.html"])
        gateway = Gateway()._build_options(_form(**fields))
        assert gateway.fingerprint() == _build_options(args).fingerprint()

    def test_bad_option_is_400(self):
        response = Gateway().handle(
            _form(html="<p>", enable=["no-such-message"])
        )
        assert response.status == 400

    def test_page_weight_in_report(self):
        response = Gateway().handle(_form(html=make_document("<p>x</p>")))
        assert "Page weight" in response.body

    def test_page_weight_counts_the_lint_pass_links(self):
        page = make_document(
            '<p><img src="a.gif" alt="a"><img src="b.gif" alt="b"></p>'
        )
        with use_registry() as registry:
            response = Gateway().handle(_form(html=page))
            # One tokenizer pass lints the page and finds its resources.
            assert registry.value("tokenizer.documents") == 1
        assert "Embedded resources</th><td>2</td>" in response.body

    def test_stats_table_off_by_default(self):
        response = Gateway().handle(_form(html=PAPER_EXAMPLE))
        assert "Checker statistics" not in response.body

    def test_stats_table_when_requested(self):
        response = Gateway().handle(_form(html=PAPER_EXAMPLE, stats="1"))
        assert "Checker statistics" in response.body
        assert "lint.files" in response.body
        assert "tokenizer.tokens" in response.body

    def test_cgi_headers(self):
        response = Gateway().handle(_form(html=make_document("<p>x</p>")))
        cgi = response.as_cgi()
        assert cgi.startswith("Status: 200\r\nContent-Type: text/html\r\n\r\n")

    def test_gateway_reporter_links_message_ids(self):
        response = Gateway().handle(_form(html=PAPER_EXAMPLE))
        assert "#msg-odd-quotes" in response.body

    def test_report_page_is_itself_clean(self):
        """The gateway must practice what it preaches."""
        from repro import Weblint

        response = Gateway().handle(_form(html=make_document("<p>x</p>")))
        diagnostics = Weblint().check_string(response.body)
        assert diagnostics == []

    def test_custom_reporter_subclass(self):
        class QuietReporter(GatewayReporter):
            def format(self, diagnostic):
                return f"<li>{diagnostic.message_id}</li>"

        gateway = Gateway(reporter=QuietReporter())
        response = gateway.handle(_form(html=PAPER_EXAMPLE))
        assert "<li>odd-quotes</li>" in response.body
