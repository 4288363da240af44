"""Tests for the meta tool (paper section 3.6)."""

from __future__ import annotations

import pytest

from repro.core.linter import Weblint
from repro.gateway.htmlreport import estimate_page_weight
from repro.meta import MetaChecker
from repro.obs.metrics import use_registry
from repro.www.client import UserAgent
from repro.www.virtualweb import VirtualWeb
from tests.conftest import PAPER_EXAMPLE, make_document


@pytest.fixture
def web():
    instance = VirtualWeb()
    instance.add_page("http://h/page.html", make_document(
        '<p><a href="ok.html">a good link</a> and '
        '<a href="gone.html">a broken one</a></p>'
    ))
    instance.add_page("http://h/ok.html", make_document("<p>fine</p>"))
    return instance


class TestMetaChecker:
    def test_sections_present(self):
        report = MetaChecker().check_string(PAPER_EXAMPLE, "test.html")
        assert report.section("weblint") is not None
        assert report.section("strict") is not None
        assert report.weight is not None

    def test_weblint_section_matches_weblint(self):
        report = MetaChecker().check_string(PAPER_EXAMPLE, "test.html")
        assert report.section("weblint").count == 7

    def test_strict_section_uses_parser_jargon(self):
        report = MetaChecker().check_string(PAPER_EXAMPLE, "test.html")
        texts = " ".join(d.text for d in report.section("strict").diagnostics)
        assert "document type" in texts or "end tag" in texts

    def test_tools_selectable(self):
        checker = MetaChecker(include_strict=False, include_weight=False)
        report = checker.check_string(PAPER_EXAMPLE)
        assert report.section("strict") is None
        assert report.weight is None

    def test_link_validation_with_agent(self, web):
        checker = MetaChecker(agent=UserAgent(web))
        report = checker.check_url("http://h/page.html")
        assert len(report.broken_links) == 1
        link, status = report.broken_links[0]
        assert link.url == "gone.html" and status.status == 404

    @pytest.mark.parametrize("with_agent", [False, True])
    @pytest.mark.parametrize("include_weblint", [False, True])
    def test_one_lint_pass_feeds_links_and_weight(
        self, web, with_agent, include_weblint
    ):
        source = make_document(
            '<p><a href="ok.html">ok</a> <a href="gone.html">gone</a> '
            '<img src="logo.gif"></p>'
        )
        checker = MetaChecker(
            agent=UserAgent(web) if with_agent else None,
            include_weblint=include_weblint,
        )
        with use_registry() as registry:
            report = checker.check_string(
                source, "page.html", base_url="http://h/page.html"
            )
            # The lint pass (or one link scan) and the strict validator.
            assert registry.value("tokenizer.documents") == 2
        if include_weblint:
            assert report.section("weblint").diagnostics == (
                Weblint(options=checker.options).check_string(
                    source, "page.html"
                )
            )
        assert report.weight == estimate_page_weight(source)
        broken = [(link.url, status.status) for link, status in report.broken_links]
        assert broken == (
            [("gone.html", 404), ("logo.gif", 404)] if with_agent else []
        )

    def test_check_url_requires_agent(self):
        with pytest.raises(ValueError, match="needs a UserAgent"):
            MetaChecker().check_url("http://h/x.html")

    def test_check_url_fetch_failure(self, web):
        checker = MetaChecker(agent=UserAgent(web))
        with pytest.raises(ValueError, match="404"):
            checker.check_url("http://h/missing.html")

    def test_total_problems(self, web):
        checker = MetaChecker(agent=UserAgent(web))
        report = checker.check_url("http://h/page.html")
        assert report.total_problems() == len(report.broken_links) + sum(
            section.count for section in report.sections
        )

    def test_summary_lines(self, web):
        checker = MetaChecker(agent=UserAgent(web))
        report = checker.check_url("http://h/page.html")
        text = "\n".join(report.summary_lines())
        assert "[weblint]" in text
        assert "[strict]" in text
        assert "gone.html" in text
        assert "[weight]" in text

    def test_clean_page_clean_report(self):
        report = MetaChecker(include_strict=False).check_string(
            make_document("<p>x</p>")
        )
        assert report.section("weblint").count == 0
