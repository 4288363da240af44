"""Stack-machine behaviour: the two stacks and the cascade heuristics."""

from __future__ import annotations

import time
import tracemalloc

import pytest

from repro import Options, Weblint
from repro.core.engine import Engine
from repro.core.rules.base import Rule
from tests.conftest import ids, ids_list, make_document


@pytest.fixture
def check(weblint):
    def _check(body, **kwargs):
        return weblint.check_string(make_document(body, **kwargs))
    return _check


class TestUnclosedElements:
    def test_unclosed_strict_container_at_eof(self, weblint):
        diags = weblint.check_string(
            make_document("<p><b>never closed</p>")
        )
        unclosed = [d for d in diags if d.message_id == "unclosed-element"]
        assert len(unclosed) == 1
        assert "<B>" in unclosed[0].text

    def test_open_line_reported(self, weblint):
        source = make_document("<p><a href='x'>text</p>")
        diags = [
            d for d in weblint.check_string(source)
            if d.message_id == "unclosed-element"
        ]
        assert "on line 7" in diags[0].text  # <a> opens on line 7

    def test_optional_end_not_reported(self, check):
        assert "unclosed-element" not in ids(check("<p>one<p>two"))

    def test_title_inside_head_close(self, weblint):
        # The paper's line-4 message: closing the legal parent reports the
        # child as unclosed, not overlapped.
        source = (
            "<html><head><title>x\n</head><body><p>y</p></body></html>"
        )
        diags = weblint.check_string(source)
        assert "unclosed-element" in ids(diags)
        assert "overlapped-element" not in ids(diags)


class TestOverlap:
    def test_overlap_reported(self, check):
        diags = check('<p><b><a href="x.html">text</b></a></p>')
        assert "overlapped-element" in ids(diags)

    def test_overlap_resolved_silently(self, check):
        # The </a> that arrives later must not also be illegal-closing.
        diags = check('<p><b><a href="x.html">text</b></a></p>')
        assert "illegal-closing" not in ids(diags)

    def test_overlap_message_names_both_elements(self, check):
        diags = check('<p><b><a href="x.html">text</b></a></p>')
        overlap = next(d for d in diags if d.message_id == "overlapped-element")
        assert "</B>" in overlap.text and "<A>" in overlap.text

    def test_triple_overlap(self, check):
        diags = check(
            '<p><b><i><a href="x.html">text</b></i></a></p>'
        )
        overlaps = [d for d in diags if d.message_id == "overlapped-element"]
        assert len(overlaps) == 2  # I and A both overlap </B>
        assert "illegal-closing" not in ids(diags)


class TestHeadingMismatch:
    def test_mismatch_detected(self, check):
        assert "heading-mismatch" in ids(check("<h1>x</h2>"))

    def test_mismatch_closes_heading(self, check):
        # After the mismatch the heading must be off the stack: no
        # unclosed-element cascade at EOF.
        diags = check("<h1>x</h2><p>body</p>")
        assert "unclosed-element" not in ids(diags)

    def test_matching_heading_fine(self, check):
        assert "heading-mismatch" not in ids(check("<h2>x</h2>"))


class TestImplicitCloses:
    def test_li_closes_li(self, check):
        diags = check("<ul><li>one<li>two</ul>")
        assert "unclosed-element" not in ids(diags)
        assert "overlapped-element" not in ids(diags)

    def test_block_closes_p(self, check):
        diags = check("<p>text<table summary='s'><tr><td>x</td></tr></table>")
        assert "required-context" not in ids(diags)

    def test_td_closes_td(self, check):
        diags = check(
            "<table summary='s'><tr><td>a<td>b<tr><td>c</table>"
        )
        assert ids(diags) <= {"attribute-delimiter"}

    def test_dt_dd_alternate(self, check):
        diags = check("<dl><dt>term<dd>def<dt>term2<dd>def2</dl>")
        assert "unclosed-element" not in ids(diags)


class TestContext:
    def test_li_outside_list(self, check):
        diags = check("<li>stray</li>")
        assert "required-context" in ids(diags)

    def test_td_outside_tr(self, check):
        assert "required-context" in ids(check("<td>stray</td>"))

    def test_message_names_legal_context(self, check):
        diags = check("<caption>x</caption>")
        msg = next(d for d in diags if d.message_id == "required-context")
        assert "<TABLE>" in msg.text

    def test_excluded_element(self, check):
        diags = check("<pre>text <img src='x.gif' alt='a'> more</pre>")
        msg = [d for d in diags if d.message_id == "required-context"]
        assert msg and "PRE" in msg[0].text

    def test_nested_anchor_is_nested_element(self, check):
        diags = check('<p><a href="a">x <a href="b">y</a></a></p>')
        assert "nested-element" in ids(diags)
        assert "required-context" not in ids(diags)

    def test_nested_form(self, check):
        diags = check(
            '<form action="a"><p>x</p><form action="b"><p>y</p></form></form>'
        )
        assert "nested-element" in ids(diags)


class TestOnceOnly:
    def test_double_body(self, weblint):
        source = (
            '<!DOCTYPE HTML PUBLIC "x//EN">\n<html><head><title>t</title>'
            "</head><body><p>a</p></body><body><p>b</p></body></html>"
        )
        diags = weblint.check_string(source)
        assert "once-only" in ids(diags)

    def test_double_title(self, weblint):
        source = make_document("<p>x</p>", head_extra="<title>again</title>\n")
        assert "once-only" in ids(weblint.check_string(source))

    def test_first_line_referenced(self, weblint):
        source = make_document("<p>x</p>", head_extra="<title>again</title>\n")
        msg = next(
            d for d in weblint.check_string(source)
            if d.message_id == "once-only"
        )
        assert "first seen on line" in msg.text


class TestHeadElements:
    def test_meta_in_body(self, check):
        diags = check('<p>x</p><meta name="a" content="b">')
        assert "head-element" in ids(diags)

    def test_meta_in_head_fine(self, weblint):
        source = make_document(
            "<p>x</p>", head_extra='<meta name="a" content="b">\n'
        )
        assert "head-element" not in ids(weblint.check_string(source))

    def test_script_allowed_in_body(self, check):
        diags = check('<script type="text/javascript">x=1;</script>')
        assert "head-element" not in ids(diags)


class TestEndTagAnomalies:
    def test_unmatched_close(self, check):
        assert "illegal-closing" in ids(check("<p>x</p></em>"))

    def test_close_of_empty_element(self, check):
        diags = check("<p>line<br></br></p>")
        assert "illegal-closing" in ids(diags)

    def test_unknown_end_tag_without_open(self, check):
        diags = check("<p>x</p></blockqoute>")
        assert "unknown-element" in ids(diags)

    def test_unknown_pair_reported_once(self, check):
        diags = check("<blockqoute><p>x</p></blockqoute>")
        unknown = [d for d in diags if d.message_id == "unknown-element"]
        assert len(unknown) == 1

    def test_closing_attribute(self, check):
        diags = check('<div align="left"><p>x</p></div align="left">')
        assert "closing-attribute" in ids(diags)


class TestUnknownElements:
    def test_suggestion_for_typo(self, check):
        diags = check("<blockqoute>x</blockqoute>")
        msg = next(d for d in diags if d.message_id == "unknown-element")
        assert "BLOCKQUOTE" in msg.text

    def test_vendor_markup_not_unknown(self, check):
        diags = check("<p><blink>x</blink></p>")
        assert "netscape-markup" in ids(diags)
        assert "unknown-element" not in ids(diags)

    def test_custom_element_accepted(self):
        options = Options.with_defaults()
        options.add_custom_element("cooltag")
        weblint = Weblint(options=options)
        diags = weblint.check_string(
            make_document("<p><cooltag>x</cooltag></p>")
        )
        assert "unknown-element" not in ids(diags)

    def test_unknown_attributes_not_reported_on_unknown_element(self, check):
        diags = check('<zorptag a="1" b="2">x</zorptag>')
        assert ids(diags) & {"unknown-element"}
        assert "unknown-attribute" not in ids(diags)


class TestEmptyContainer:
    def test_empty_b(self, check):
        assert "empty-container" in ids(check("<p>x <b></b> y</p>"))

    def test_whitespace_only_is_empty(self, check):
        assert "empty-container" in ids(check("<p>x <b>  </b> y</p>"))

    def test_child_element_counts_as_content(self, check):
        diags = check('<p><b><img src="x" alt="a" width="1" height="1"></b></p>')
        assert "empty-container" not in ids(diags)

    def test_td_exempt(self, check):
        diags = check("<table summary='s'><tr><td></td></tr></table>")
        assert "empty-container" not in ids(diags)


class TestCascadeAblation:
    """cascade_heuristics=False is the naive machine for experiment E9."""

    def test_naive_mode_produces_more_messages(self, paper_example):
        smart = Weblint()
        naive = Weblint(cascade_heuristics=False)
        assert len(naive.check_string(paper_example)) >= len(
            smart.check_string(paper_example)
        )

    def test_naive_mode_reports_title_as_overlap(self):
        source = "<html><head><title>x\n</head><body><p>y</p></body></html>"
        naive = Weblint(cascade_heuristics=False)
        assert "overlapped-element" in ids(naive.check_string(source))

    def test_naive_mode_no_typo_suggestions(self):
        naive = Weblint(cascade_heuristics=False)
        diags = naive.check_string(make_document("<blockqoute>x</blockqoute>"))
        unknown = [d for d in diags if d.message_id == "unknown-element"]
        assert unknown and "did you mean" not in unknown[0].text


class TestStopAfter:
    def test_diagnostic_cap(self, paper_example):
        options = Options.with_defaults()
        options.stop_after = 3
        weblint = Weblint(options=options)
        assert len(weblint.check_string(paper_example)) == 3


class TestDiagnosticOrdering:
    def test_sorted_by_line(self, paper_example, weblint):
        diags = weblint.check_string(paper_example)
        assert [d.line for d in diags] == sorted(d.line for d in diags)


def _best_of(runs, check, source):
    best = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        check(source)
        best = min(best, time.perf_counter() - started)
    return best


def _peak_bytes(engine, source):
    tracemalloc.start()
    try:
        engine.check(source)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDepthIndependentCost:
    """Hostile pages: per-token work must not grow with the stack depth."""

    def test_unclosed_divs_scale_linearly(self):
        # 8x the tokens: linear is 8x the time.  Walking the open stack
        # on every start and text token made it 50x.
        engine = Engine()
        engine.check("<div>x")
        small = _best_of(3, engine.check, "<div>x" * 1000)
        large = _best_of(3, engine.check, "<div>x" * 8000)
        assert large <= 16 * small, (small, large)

    def test_nested_anchor_memory_scales_linearly(self):
        # 4x the anchors: linear is 4x the memory.  Copying each text
        # run into every open anchor made the peak grow 12.5x.
        engine = Engine()
        engine.check('<a href="x">t')
        small = _peak_bytes(engine, '<a href="x">t' * 1000)
        large = _peak_bytes(engine, '<a href="x">t' * 4000)
        assert large <= 8 * small, (small, large)

    def test_text_spans_survive_the_shared_buffer(self):
        texts = []

        class AnchorTexts(Rule):
            name = "anchor-texts"
            subscribes = {"handle_element_closed": {"a"}}

            def handle_element_closed(self, context, open_element, end_tag, implicit):
                texts.append(open_element.text)

        engine = Engine(rules=[AnchorTexts()])
        # The outer anchor saw every run while it was open, the inner one
        # only its own.
        engine.check('<a href="x">one<a href="y">two</a> three</a>')
        assert texts == ["two", "onetwo three"]
        # A parked (overlapped) anchor stops collecting when it leaves
        # the main stack.
        texts.clear()
        engine.check('<b><a href="x">one</b>two</a>')
        assert texts == ["one"]
