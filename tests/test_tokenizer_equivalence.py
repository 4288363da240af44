"""Golden token-stream equivalence: batched scanner == naive scanner.

The batched tokenizer (`repro.html.tokenizer`) replaced the seed's
char-by-char scanner for speed; the old scanner survives verbatim as
`repro.html._tokenizer_naive`, the behaviour oracle (the same pattern
as ``compile_table(naive=True)``, which ``tests/test_dispatch.py``
checks the compiled dispatch tables against).  These tests pin full
field-by-field equivalence -- token types, kinds, positions, raw spans,
names, attribute details, entity records and lexical issues -- across
every document the repo's corpora can produce, plus a curated set of
edge strings targeting the fast-path/slow-path seams.

If a test here fails, the batched scanner is wrong, whatever the
benchmarks say: fix the fast path, never the oracle.

Every document here also goes through the engine with links asked for:
the links and anchors the lint pass collects from its own token feed
must be exactly what ``scan_page`` finds.
"""

from __future__ import annotations

import pytest

from repro.core.engine import Engine
from repro.html import _tokenizer_naive as naive
from repro.html import tokenizer as batched
from repro.html.links import scan_page
from repro.html.tokens import Attribute, StartTag
from repro.testing.samples import SAMPLES
from repro.workload.corpus import (
    build_pathological_corpus,
    build_seeded_corpus,
    build_valid_corpus,
)
from repro.workload.generator import GeneratorConfig, PageGenerator


def fingerprint(tokens):
    """Every observable field of every token, as comparable tuples."""
    out = []
    for token in tokens:
        row = (
            type(token).__name__,
            token.kind.value,
            token.line,
            token.column,
            token.raw,
            tuple(issue.value for issue in token.issues),
        )
        if hasattr(token, "name"):
            row += (token.name,)
        if hasattr(token, "text"):
            row += (token.text,)
        if hasattr(token, "self_closing"):
            row += (
                token.self_closing,
                tuple(
                    (a.name, a.value, a.quote, a.has_value, a.line, a.column)
                    for a in token.attributes
                ),
            )
        if hasattr(token, "entities"):
            row += (tuple(token.entities),)
        out.append(row)
    return out


def assert_equivalent(source: str) -> None:
    got = fingerprint(batched.tokenize(source))
    want = fingerprint(naive.tokenize(source))
    assert got == want
    # The streaming path must agree with the eager path too -- it runs
    # the same core loop in chunks, and a chunk-boundary bug would only
    # show up here.
    assert fingerprint(batched.iter_tokens(source)) == want
    context = ENGINE.check(source, links=True)
    assert (context.links, context.anchors) == scan_page(source)


#: The lint pass whose collected links must match ``scan_page``'s.
ENGINE = Engine()


#: Edge strings aimed at the seams between the batched fast paths and
#: the recovery scanners.
EDGE_STRINGS = [
    "",
    "just text, no markup at all",
    "<p>paragraph</p>",
    "<a href=\"x.html\" id=\"y\">link</a>",
    "<input checked disabled>",
    "<br/><br /><br/ >",
    "<a href='single'>",
    "<a href=unquoted>",
    "<a href=\"odd>recovery</b>",
    "<a href=\"runs<b>on</b>",
    "<a href=",
    "<img src=x",
    "< b>leading whitespace</b>",
    "a <> b",
    "a < 3 and 5 > 3",
    "<",
    "</",
    "</>",
    "</123>",
    "<!-- comment --><!-- <b>markup</b> --><!-- <!-- nested -->",
    "<!-- unterminated",
    "<!DOCTYPE html><!>",
    "<?xml version='1.0'?>",
    "&amp; &bogus; &#169; &copy unterminated",
    "&amp",
    "text&",
    "&",
    "<script>if (a < b) x;</script>",
    "<script>no close tag",
    "<SCRIPT>x</ScRiPt>",
    "<style>p { color: red }</style>",
    "<script/>not raw</p>",
    "<p\nmulti=\"line\"\ntag=\"yes\">body</p\n>",
    "one\r\ntwo\rthree\nfour<p>",
    "\r\n\r\n<p>",
    "<p >trailing space</p >",
    "<a b=\"c\"d=\"e\">no separator</a>",
    "<a 1bad=\"x\" good=\"y\">",
    "<em></em>" * 50,
    "x" * 100 + "<b>y</b>" + "z" * 100,
]


class TestGoldenEquivalence:
    @pytest.mark.parametrize(
        "sample", SAMPLES, ids=[sample.name for sample in SAMPLES]
    )
    def test_samples(self, sample):
        assert_equivalent(sample.html)

    @pytest.mark.parametrize("paragraphs", [5, 20, 80])
    def test_generated_pages(self, paragraphs):
        config = GeneratorConfig(paragraphs=paragraphs, images=2, tables=2, lists=2)
        assert_equivalent(PageGenerator(seed=paragraphs, config=config).page())

    def test_valid_corpus(self):
        for source in build_valid_corpus(6):
            assert_equivalent(source)

    def test_seeded_error_corpus(self):
        for page in build_seeded_corpus(10, seed=3):
            assert_equivalent(page.source)

    def test_pathological_corpus(self):
        for source in build_pathological_corpus(6):
            assert_equivalent(source)

    @pytest.mark.parametrize("index", range(len(EDGE_STRINGS)))
    def test_edge_strings(self, index):
        assert_equivalent(EDGE_STRINGS[index])

    def test_unicode_case_folding_quirk(self):
        # U+0130 lowercases to two characters; both scanners build the
        # same lowercased view to find raw-text close tags, so their
        # (slightly off) offsets must stay identical.
        assert_equivalent("<script>İ</script><p>İstanbul</p>")

    def test_a_nameless_tag_still_names_its_anchor(self, monkeypatch):
        # The engine returns early on a start tag without a name; the
        # link filter sits before it on the feed, so the tag's ID is
        # still an anchor, as scan_page finds it.
        nameless = StartTag(1, 1, "<>", [], "", [Attribute("id", "here", '"', True)])
        monkeypatch.setattr(
            "repro.core.engine.iter_tokens", lambda source: iter([nameless])
        )
        context = ENGINE.check("", links=True)
        assert (context.links, context.anchors) == ([], {"here"})

    def test_metrics_equivalence_not_polluted(self):
        # The oracle must not touch the tokenizer.* counters: E21 and
        # the obs tests meter the real scanner only.
        from repro.obs import use_registry

        with use_registry() as registry:
            naive.tokenize("<p>x</p>")
            assert registry.value("tokenizer.documents") == 0
            batched.tokenize("<p>x</p>")
            assert registry.value("tokenizer.documents") == 1
