"""The compiled dispatch table: fan-out, claims, caching, golden equivalence."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Options, Weblint
from repro.core.dispatch import (
    DispatchTable,
    clear_table_cache,
    compile_table,
    get_table,
)
from repro.core.engine import Engine
from repro.core.rules import default_rules
from repro.core.rules.base import Rule
from repro.html.spec import get_spec
from repro.html.tokenizer import tokenize
from repro.html.tokens import Attribute, StartTag
from repro.obs import use_registry
from repro.testing.samples import SAMPLES
from repro.workload import GeneratorConfig, PageGenerator

from tests.conftest import PAPER_EXAMPLE, make_document


def _default_table(**option_values):
    options = Options.with_defaults()
    for name, value in option_values.items():
        setattr(options, name, value)
    return compile_table(get_spec("html40"), options, default_rules())


def _names(handlers) -> list[str]:
    return [name for name, _method in handlers]


class NaiveEngine(Engine):
    """The seed's dispatch: every rule on every hook, subscriptions ignored.

    The reference the compiled tables are checked against; production
    engines always dispatch through :func:`get_table`.
    """

    def dispatch_table(self) -> DispatchTable:
        return compile_table(self.spec, self.options, self.rules, naive=True)


def _naive_check(source: str, options=None) -> list:
    return NaiveEngine(options=options).check(source).sorted_diagnostics()


class TestCompilation:
    def test_narrow_rule_absent_from_wildcard_bucket(self):
        table = _default_table()
        assert "images" not in _names(table.start_tag_any)
        assert "images" in _names(table.start_tag["img"])
        assert "images" in _names(table.start_tag["input"])

    def test_fan_out_preserves_rule_order(self):
        table = _default_table()
        all_names = [rule.name for rule in default_rules()]
        for handlers in table.start_tag.values():
            positions = [all_names.index(name) for name in _names(handlers)]
            assert positions == sorted(positions)

    def test_unsubscribed_hook_is_empty(self):
        table = _default_table()
        # No built-in rule listens to raw declarations.
        assert table.declaration == ()

    def test_comment_hook_handlers(self):
        table = _default_table()
        assert _names(table.comment) == ["inline-config", "comments"]

    def test_style_rule_narrows_without_case_style(self):
        table = _default_table()
        assert "style" not in _names(table.start_tag_any)
        assert "style" in _names(table.start_tag["b"])  # physical markup

    def test_style_rule_widens_with_case_style(self):
        table = _default_table(case_style="lower")
        assert "style" in _names(table.start_tag_any)

    def test_naive_table_attaches_everything_everywhere(self):
        options = Options.with_defaults()
        rules = default_rules()
        table = compile_table(get_spec("html40"), options, rules, naive=True)
        everyone = [rule.name for rule in rules]
        assert _names(table.start_tag_any) == everyone
        assert _names(table.text) == everyone
        assert _names(table.declaration) == everyone
        assert table.start_tag == {}

    def test_handler_counts_show_the_narrowing(self):
        # No built-in rule takes every start tag: each is scoped by element
        # name or by a claim.  The text rule is the one text handler.
        assert _default_table().handler_counts() == {
            "start_document": 2,
            "handle_start_tag": 0,
            "handle_end_tag": 0,
            "handle_element_closed": 0,
            "handle_text": 1,
            "handle_comment": 2,
            "handle_declaration": 0,
            "end_document": 2,
        }

    def test_handler_counts_shrink_versus_naive(self):
        options = Options.with_defaults()
        rules = default_rules()
        compiled = compile_table(get_spec("html40"), options, rules)
        naive = compile_table(get_spec("html40"), options, rules, naive=True)
        assert sum(compiled.handler_counts().values()) < sum(
            naive.handler_counts().values()
        )


def _tag(name: str, *attributes: str) -> StartTag:
    return StartTag(
        1, 1, f"<{name}>", [], name,
        [Attribute(attribute, "x", '"', True) for attribute in attributes],
    )


def _start_hooks(table: DispatchTable, tag: StartTag, first: bool = False) -> list[str]:
    plan = table.elements.get(tag.name.lower(), table.unknown)
    return _names(table.claimed_start_hooks(plan, tag, first))


class TestClaims:
    """Attribute and first-tag claims, merged at the tags they match."""

    def test_plain_tag_runs_no_start_hooks(self):
        table = _default_table()
        assert table.elements["p"].start_hooks == ()
        assert table.unknown.start_hooks == ()

    def test_any_attribute_claim(self):
        table = _default_table()
        assert _names(table.elements["p"].attributed_hooks) == ["attributes"]
        assert _names(table.unknown.attributed_hooks) == ["attributes"]

    def test_named_attribute_claim_any_case(self):
        table = _default_table()
        assert table.claimed_attributes == frozenset({"style"})
        for spelling in ("style", "STYLE", "Style"):
            assert _start_hooks(table, _tag("p", spelling)) == ["attributes", "plugins"]
        assert _start_hooks(table, _tag("x-widget", "STYLE")) == ["attributes", "plugins"]
        assert _start_hooks(table, _tag("p", "onclick")) == ["attributes"]

    def test_claims_merge_in_rule_order(self):
        table = _default_table()
        assert _start_hooks(table, _tag("img", "style", "src")) == [
            "attributes", "images", "plugins",
        ]
        assert _start_hooks(table, _tag("style")) == ["plugins"]

    def test_first_tag_claim(self):
        table = _default_table()
        assert _start_hooks(table, _tag("b"), first=True) == ["document", "style"]
        assert _start_hooks(table, _tag("b")) == ["style"]
        assert _start_hooks(table, _tag("p", "id"), first=True) == [
            "document", "attributes",
        ]

    def test_first_tag_reports_missing_doctype_whatever_its_name(self):
        diagnostics = Engine().check("\n<b>x</b>").sorted_diagnostics()
        assert ("require-doctype", 2) in [(d.message_id, d.line) for d in diagnostics]

    def test_attribute_only_rule(self):
        class Onclick(Rule):
            name = "onclick"
            subscribes = {"handle_start_tag": {"[onclick]"}}

            def __init__(self):
                self.seen = []

            def handle_start_tag(self, context, tag, elem):
                self.seen.append(tag.name)

        rule = Onclick()
        Engine(rules=[rule]).check(
            '<p onclick="f()">a</p><B ONCLICK=g>b</B><i class=x>c</i><td onClick>'
        )
        assert rule.seen == ["p", "B", "td"]

    def test_e14_page_calls_fewer_hooks(self):
        # E14's page: 1,722 hook calls when document, attributes and
        # plugins ran on every start tag and plugins on every text run.
        config = GeneratorConfig(paragraphs=80, images=2, tables=2, lists=2)
        page = PageGenerator(seed=80, config=config).page()
        assert Engine().check(page).hook_calls < 1722


class TestCache:
    def test_same_configuration_hits_cache(self):
        clear_table_cache()
        engine = Engine()
        with use_registry() as registry:
            first = engine.dispatch_table()
            second = engine.dispatch_table()
            assert first is second
            assert registry.value("engine.dispatch.tables.compiled") == 1
            assert registry.value("engine.dispatch.tables.cached") == 1

    def test_distinct_rule_instances_compile_separately(self):
        clear_table_cache()
        assert Engine().dispatch_table() is not Engine().dispatch_table()

    def test_option_change_recompiles(self):
        clear_table_cache()
        rules = default_rules()
        spec = get_spec("html40")
        plain = Options.with_defaults()
        cased = Options.with_defaults()
        cased.case_style = "lower"
        assert get_table(spec, plain, rules) is not get_table(spec, cased, rules)
        assert get_table(spec, plain, rules) is get_table(spec, plain, rules)


def _diagnostics_key(diagnostics):
    return [
        (d.message_id, d.line, d.column, d.text, d.filename) for d in diagnostics
    ]


class TestGoldenEquivalence:
    """Compiled dispatch must be byte-identical to call-everything."""

    @pytest.mark.parametrize(
        "sample", SAMPLES, ids=[sample.name for sample in SAMPLES]
    )
    def test_sample_output_identical(self, sample):
        options = Options.with_defaults()
        options.spec_name = sample.spec
        if sample.enable:
            options.enable(*sample.enable)
        compiled = Weblint(options=options).check_string(sample.html)
        naive = _naive_check(sample.html, options)
        assert _diagnostics_key(compiled) == _diagnostics_key(naive)

    def test_paper_example_identical(self):
        compiled = Weblint().check_string(PAPER_EXAMPLE)
        naive = _naive_check(PAPER_EXAMPLE)
        assert _diagnostics_key(compiled) == _diagnostics_key(naive)

    def test_generated_page_identical_pedantic(self):
        page = PageGenerator(seed=7, config=GeneratorConfig(paragraphs=30)).page()
        options = Options.with_defaults()
        options.enable("all")
        options.disable("upper-case")
        compiled = Weblint(options=options).check_string(page)
        naive = _naive_check(page, options)
        assert _diagnostics_key(compiled) == _diagnostics_key(naive)


_TAG_NAMES = sorted(get_spec("html40").elements) + [
    "blink", "marquee", "nobr", "x-widget", "foo",
]
_ATTRIBUTES = ["style", "STYLE", "Style", "onclick", "href", "src", "alt", "name", "id",
               "type", "class", "width", "bgcolor", "border"]
_VALUES = ["", "x", "color: red", "colour: neon", "#fff", "fffff", "a.html",
           "mailto:x@y", "f(", "text/css", "here", "1"]
_DIRECTIVES = ["disable all", "enable all", "push; disable style", "pop",
               "disable img-alt, here-anchor", "enable physical-font"]


@st.composite
def _tags(draw) -> str:
    name = draw(st.sampled_from(_TAG_NAMES))
    if draw(st.booleans()):
        name = name.upper()
    kind = draw(st.sampled_from(["start", "start", "start", "end", "end"]))
    if kind == "end":
        return f"</{name}>"
    attributes = draw(
        st.lists(st.tuples(st.sampled_from(_ATTRIBUTES), st.sampled_from(_VALUES)), max_size=3)
    )
    return "<" + name + "".join(f' {a}="{v}"' for a, v in attributes) + ">"


_documents = st.lists(
    st.one_of(
        _tags(),
        st.sampled_from(["text ", "here", "\n", "&amp;", "&zorp;", "<!-- c -->", "a > b"]),
        st.sampled_from(_DIRECTIVES).map(lambda d: f"<!-- weblint: {d} -->"),
    ),
    max_size=30,
).map("".join)


class TestCompiledEqualsNaive:
    """Drawn documents: compiled tables give the naive tables' output."""

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_documents)
    def test_default_and_all_messages(self, document):
        everything = Options.with_defaults()
        everything.enable("all")
        for options in (Options.with_defaults(), everything):
            compiled = Engine(options=options).check(document).sorted_diagnostics()
            assert _diagnostics_key(compiled) == _diagnostics_key(
                _naive_check(document, options)
            )


class TestDispatchMetrics:
    def test_dispatch_calls_beat_rules_times_tokens(self):
        page = PageGenerator(
            seed=10, config=GeneratorConfig(paragraphs=40, images=2, tables=2)
        ).page()
        token_count = len(tokenize(page))
        rule_count = len(default_rules())
        with use_registry() as registry:
            Weblint().check_string(page)
            calls = registry.value("engine.dispatch.calls")
        assert calls > 0
        assert calls < rule_count * token_count

    def test_naive_dispatch_calls_at_least_rules_times_tokens(self):
        page = PageGenerator(seed=10, config=GeneratorConfig(paragraphs=10)).page()
        token_count = len(tokenize(page))
        rule_count = len(default_rules())
        with use_registry() as registry:
            _naive_check(page)
            calls = registry.value("engine.dispatch.calls")
        # start/end_document and element-closed events push it past N*T.
        assert calls >= rule_count * token_count


class TestReentrancy:
    def test_nested_check_on_same_engine(self):
        """A rule hook may re-enter ``check`` on the very same engine."""
        inner_document = make_document("<p>inner</p>")

        class Reentrant(Rule):
            name = "reentrant"

            def __init__(self, engine: Engine) -> None:
                self.engine = engine
                self.inner_results = []
                self.recursing = False

            def handle_start_tag(self, context, tag, elem):
                if tag.lowered == "body" and not self.recursing:
                    self.recursing = True
                    nested = self.engine.check(inner_document, "nested")
                    self.inner_results.append(nested.sorted_diagnostics())

        engine = Engine(rules=default_rules())
        reentrant = Reentrant(engine)
        engine.rules.append(reentrant)

        baseline = Engine().check(PAPER_EXAMPLE).sorted_diagnostics()
        outer = engine.check(PAPER_EXAMPLE).sorted_diagnostics()

        assert reentrant.inner_results and reentrant.inner_results[0] == []
        assert _diagnostics_key(outer) == _diagnostics_key(baseline)

    def test_engine_rules_untouched_by_profiling_check(self):
        from repro.obs import use_profiler

        engine = Engine()
        before = list(engine.rules)
        with use_profiler() as profiler:
            engine.check(PAPER_EXAMPLE)
        assert engine.rules == before
        assert profiler.documents == 1
        assert "document" in profiler.entries


class TestLeadingWhitespaceMessage:
    def test_element_name_upcased(self, weblint_all):
        diagnostics = weblint_all.check_string(make_document("<  b>x</b>"))
        messages = [
            d.text for d in diagnostics if d.message_id == "leading-whitespace"
        ]
        assert messages == ['should not have whitespace between "<" and "B"']
