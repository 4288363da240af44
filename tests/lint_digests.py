"""Per-document lint digests: the engine's committed output oracle.

``tests/golden/lint_digests.json`` holds, for every document of the
corpora below, short hashes of

- its token stream: every field ``fingerprint()`` in
  ``tests/test_tokenizer_equivalence.py`` compares;
- its links and anchors, as ``Engine.check(..., links=True)`` collects
  them;
- its diagnostics in ``sorted_diagnostics()`` order (id, category, line,
  column, text and arguments), under each of :data:`CONFIGS`.

``tests/test_lint_digests.py`` recomputes them all and compares, so an
engine or dispatch change that alters any output fails by naming the
corpus, the document and the configuration.  The suite never writes the
file.  A deliberate change of output regenerates it with::

    PYTHONPATH=src python -m tests.lint_digests
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable

from repro.config.options import Options
from repro.core.engine import Engine
from repro.html.tokenizer import tokenize
from repro.testing.samples import SAMPLES
from repro.workload.corpus import (
    build_pathological_corpus,
    build_seeded_corpus,
    build_valid_corpus,
)
from repro.workload.generator import GeneratorConfig, PageGenerator
from repro.workload.seeder import DEFAULT_DETECTABLE

from tests.conftest import PAPER_EXAMPLE, make_document
from tests.test_tokenizer_equivalence import EDGE_STRINGS, fingerprint

GOLDEN = Path(__file__).parent / "golden" / "lint_digests.json"

#: Depth of the hostile stack shapes.
DEEP_N = 200


def _deep_shapes(n: int) -> list[tuple[str, str]]:
    """Pages whose open-element stack grows with ``n``."""
    return [
        ("divs", "<div>x" * n),
        ("anchors", '<a href="x">t' * n),
        ("forms", "<form><p>t" * n),
        ("pre-excludes", "<pre><b>t<img src='i.gif' alt='i'><big>b</big>" * n),
        ("overlaps", "<b><i>t" * n + "</b>" * n + "</i>" * n),
        ("tables", "<table><tr><td>t" * n),
        ("titles", "<title>t" * n),
        ("lists", "<ul><li>t" * n + "</ul>" * n),
        ("unmatched-ends", "<span>t" * n + "</em>" * n),
        ("labels", "<label>l" * n + '<input name="x">' * 10),
        ("heading-mismatch", "<h1>t</h2>" * n),
        ("anchors-headings", '<a href="#x">' + "<h2>t" * n),
        ("wrapped-divs", make_document("<div>x" * n)),
    ]


def _style_shapes() -> list[tuple[str, str]]:
    """``style=`` on arbitrary elements, and the claimed elements."""
    return [
        ("p-upper", make_document('<P STYLE="colour: red">x</P>')),
        ("p-mixed", make_document("<p Style='margin:0;color:#ff0000'>x</p>")),
        ("td", make_document(
            '<table summary="s"><tr><td style="color: neon">d</td></tr></table>'
        )),
        ("br", make_document('a<br style="clear: both">b')),
        ("bare", make_document("<p style>x</p><p style=\"\">y</p>")),
        ("repeated", make_document('<p style="a" style="colour: x">x</p>')),
        ("unknown-element", make_document('<x-widget style="font-weight: bold">w</x-widget>')),
        ("vendor-element", make_document('<blink style="color: red">b</blink>')),
        ("multiline", make_document('<p\nstyle="color: red;\nfont-wieght: 1;\nfoo">x</p>')),
        ("onclick", make_document('<p onclick="f());" ONCLICK="g(" style="x: y">x</p>')),
        ("style-elements", make_document(
            "<p>x</p>",
            head_extra=(
                '<style type="text/css">\nbody { colour: red }\n</style>\n'
                '<STYLE TYPE="TEXT/CSS">p { color: neon; }</STYLE>\n'
                '<style type="text/x-other">colour: odd</style>\n'
                "<style></style><style/>\n"
            ),
        )),
        ("style-in-body", make_document("<style>p { margin 0 }</style><p>x</p>")),
        ("scripts", make_document(
            '<p onclick="x">x</p>',
            head_extra=(
                '<script type="text/javascript">\nf());\n</script>\n'
                '<SCRIPT SRC="x.js"></SCRIPT>\n'
                "<script>if (a < b) { g(</script>\n"
            ),
        )),
        ("unclosed-style", (
            '<!DOCTYPE HTML PUBLIC "x//EN">\n<html><head><title>t</title>'
            '<style type="text/css">body { colour: red }'
        )),
        ("unclosed-script", "<html><body><script>function f( {"),
        ("nested-claims", make_document(
            '<div style="color: red"><span style="colour: blue">'
            '<b style="margin: 1">t</b></span></div>'
        )),
    ]


def _inline_config_shapes() -> list[tuple[str, str]]:
    """Inline-config comments that toggle messages mid-document."""
    img = '<img src="a.gif">'
    return [
        ("disable-enable", make_document(
            img + "<!-- weblint: disable img-alt -->" + img
            + "<!-- weblint: enable img-alt -->" + img
        )),
        ("push-pop", make_document(
            "<b>x</b><!-- weblint: push; disable all --><b>y</b><font>z</font>"
            "<!-- weblint: pop --><b>w</b>"
        )),
        ("category", make_document(
            "<!-- weblint: disable style -->"
            '<p style="colour: red"><a href="x">here</a></p>'
            "<!-- weblint: enable style -->"
            '<p style="colour: red"><a href="x">here</a></p>'
        )),
        ("inside-anchor", make_document(
            '<a href="x"><!-- weblint: disable here-anchor -->here</a>'
            '<!-- weblint: enable here-anchor --><a href="y">here</a>'
        )),
        ("stale", make_document(
            "<!-- weblint: disable no-such-message; frobnicate x -->"
            "<!-- weblint: pop --><b>x</b>"
        )),
        ("before-unwind", (
            "<html><body><div><p>t"
            "<!-- weblint: disable unclosed-element, html-outer -->"
        )),
        ("enable-off-by-default", make_document(
            "<!-- weblint: enable physical-font, deprecated-attribute -->"
            '<b>x</b><br clear="all"><!-- weblint: disable physical-font --><i>y</i>'
        )),
        ("css-messages", make_document(
            '<p style="colour: red">a</p>'
            "<!-- weblint: disable css-unknown-property -->"
            '<p style="colour: red">b</p>'
            "<!-- weblint: push; enable all -->"
            '<p style="colour: red">c</p><!-- weblint: pop -->'
        )),
    ]


def corpora() -> dict[str, list[tuple[str, str]]]:
    """Corpus name -> ``(document id, source)`` pairs, in a fixed order."""
    pages = GeneratorConfig(paragraphs=20, images=2, tables=2, lists=2)
    return {
        "samples": [(sample.name, sample.html) for sample in SAMPLES],
        "paper": [("paper-example", PAPER_EXAMPLE)],
        "edge": [(f"edge-{index:02d}", text) for index, text in enumerate(EDGE_STRINGS)],
        "valid": [
            (f"valid-{index}", source)
            for index, source in enumerate(build_valid_corpus(6))
        ],
        "seeded": [
            (f"seeded-{index}", page.source)
            for index, page in enumerate(build_seeded_corpus(10, seed=3))
        ] + [
            (f"detectable-{index}", page.source)
            for index, page in enumerate(
                build_seeded_corpus(
                    10, errors_per_page=3, seed=700_021,
                    mutation_names=DEFAULT_DETECTABLE,
                )
            )
        ],
        "pathological": [
            (f"pathological-{index}", source)
            for index, source in enumerate(build_pathological_corpus(6))
        ] + [
            (f"pathological-deep-{index}", source)
            for index, source in enumerate(
                build_pathological_corpus(2, seed=700_021, table_depth=38)
            )
        ],
        "generated": [
            (f"page-{paragraphs}", PageGenerator(
                seed=paragraphs,
                config=GeneratorConfig(
                    paragraphs=paragraphs, images=2, tables=2, lists=2
                ),
            ).page())
            for paragraphs in (5, 20, 80)
        ] + [
            (f"site-{name}", source)
            for name, source in PageGenerator(seed=11, config=pages).site(6).items()
        ],
        "deep": _deep_shapes(DEEP_N),
        "style": _style_shapes(),
        "inline-config": _inline_config_shapes(),
    }


def _all_messages() -> Options:
    options = Options.with_defaults()
    options.enable("all")
    return options


def _all_lower_case() -> Options:
    options = _all_messages()
    options.disable("upper-case")  # selects the lower-case house style
    return options


def _html32() -> Options:
    options = Options.with_defaults()
    options.spec_name = "html32"
    return options


#: Configuration name -> engine factory.  ``all`` enables every message,
#: so a disabled message cannot hide a difference; ``lower-case`` also
#: selects a house case style, which subscribes the style rule to every
#: start and end tag.
CONFIGS: dict[str, Callable[[], Engine]] = {
    "default": lambda: Engine(options=Options.with_defaults()),
    "all": lambda: Engine(options=_all_messages()),
    "lower-case": lambda: Engine(options=_all_lower_case()),
    "html32": lambda: Engine(options=_html32()),
    "no-cascade": lambda: Engine(
        options=Options.with_defaults(), cascade_heuristics=False
    ),
}


def _digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:20]


def _diagnostics(context) -> list[tuple]:
    return [
        (
            d.message_id,
            d.category.value,
            d.line,
            d.column,
            d.text,
            tuple(sorted((key, repr(value)) for key, value in d.arguments.items())),
        )
        for d in context.sorted_diagnostics()
    ]


def digest_document(source: str, engines: dict[str, Engine]) -> dict[str, str]:
    """The record for one document: tokens, links and one lint per config."""
    record = {"tokens": _digest(fingerprint(tokenize(source)))}
    for name, engine in engines.items():
        if name == "default":
            context = engine.check(source, links=True)
            links = [(l.url, l.line, l.element, l.kind) for l in context.links]
            record["links"] = _digest((links, sorted(context.anchors)))
        else:
            context = engine.check(source)
        record[name] = _digest(_diagnostics(context))
    return record


def build_engines() -> dict[str, Engine]:
    return {name: factory() for name, factory in CONFIGS.items()}


def main() -> None:
    engines = build_engines()
    payload = {
        corpus: {
            doc_id: digest_document(source, engines) for doc_id, source in documents
        }
        for corpus, documents in corpora().items()
    }
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    total = sum(len(records) for records in payload.values())
    print(f"wrote {total} document records to {GOLDEN}")


if __name__ == "__main__":
    main()
