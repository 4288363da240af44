"""Tests for the plugin framework, CSS lint and script sanity plugins."""

from __future__ import annotations

import pytest

from repro import Options, Weblint
from repro.core.context import CheckContext
from repro.html.spec import get_spec
from repro.plugins import CSSPlugin, PluginRule, ScriptPlugin
from repro.plugins.csslint import (
    parse_declarations,
    parse_stylesheet,
    suggest_property,
)
from repro.plugins.scriptlint import scan_script
from tests.conftest import ids, make_document


class TestParseDeclarations:
    def test_simple(self):
        decls, problems = parse_declarations("color: red; margin: 0")
        assert [(d.property, d.value) for d in decls] == [
            ("color", "red"), ("margin", "0"),
        ]
        assert problems == []

    def test_missing_colon(self):
        _decls, problems = parse_declarations("color red")
        assert problems and 'no ":"' in problems[0][1]

    def test_missing_value(self):
        _decls, problems = parse_declarations("color:")
        assert problems and "no value" in problems[0][1]

    def test_important(self):
        decls, problems = parse_declarations("color: red !important")
        assert decls[0].important and decls[0].value == "red"
        assert problems == []

    def test_bad_important(self):
        _decls, problems = parse_declarations("color: red !importnat")
        assert problems and "!important" in problems[0][1]

    def test_comments_stripped(self):
        decls, problems = parse_declarations("/* note */ color: red")
        assert len(decls) == 1 and problems == []

    def test_line_numbers(self):
        decls, _problems = parse_declarations(
            "color: red;\nmargin: 0", start_line=10
        )
        assert [d.line for d in decls] == [10, 11]

    def test_empty_input(self):
        assert parse_declarations("") == ([], [])


class TestParseStylesheet:
    def test_rule_set(self):
        decls, problems = parse_stylesheet("body { color: red; }")
        assert decls[0].property == "color"
        assert problems == []

    def test_multiple_rules_with_lines(self):
        decls, _problems = parse_stylesheet(
            "h1 { color: red }\np { margin: 0 }", start_line=5
        )
        assert [d.line for d in decls] == [5, 6]

    def test_unmatched_close_brace(self):
        _decls, problems = parse_stylesheet("}")
        assert problems and "unmatched" in problems[0][1]

    def test_unclosed_block(self):
        _decls, problems = parse_stylesheet("body { color: red")
        assert any("unclosed" in text for _line, text in problems)

    def test_at_rules_skipped(self):
        decls, problems = parse_stylesheet(
            '@import "x.css";\n@media print { body { font-size: 10pt } }\n'
            "p { color: red }"
        )
        assert [d.property for d in decls] == ["color"]
        assert problems == []

    def test_comment_with_braces(self):
        decls, problems = parse_stylesheet(
            "/* { not a block } */ p { color: red }"
        )
        assert len(decls) == 1 and problems == []


class TestSuggestions:
    @pytest.mark.parametrize(
        "typo,expected",
        [("colour", "color"), ("font-wieght", "font-weight"),
         ("margn", "margin")],
    )
    def test_suggestions(self, typo, expected):
        assert suggest_property(typo) == expected

    def test_no_suggestion(self):
        assert suggest_property("zzzzzzzz") is None

    def test_ties_do_not_depend_on_the_hash_seed(self):
        """Equally close properties: every process picks the same one,
        so a lint cache filled by one process serves every other's
        answer."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        script = (
            "from repro.plugins.csslint import suggest_property\n"
            "print(suggest_property('wieght'), suggest_property('foo'))\n"
        )
        answers = set()
        for seed in ("1", "2", "3", "4"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=seed,
                PYTHONPATH=str(Path(repro.__file__).parents[1]),
            )
            answers.add(subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True,
            ).stdout)
        assert len(answers) == 1, answers


class TestScanScript:
    def test_balanced_ok(self):
        assert scan_script("function f(a) { return [a]; }") == []

    def test_unmatched_close(self):
        problems = scan_script("f());")
        assert any("unmatched ')'" in text for _l, text in problems)

    def test_never_closed(self):
        problems = scan_script("function f() {")
        assert any("never closed" in text for _l, text in problems)

    def test_brackets_in_strings_ignored(self):
        assert scan_script("var s = '}}}((('") == []

    def test_brackets_in_comments_ignored(self):
        assert scan_script("// }}}\n/* ((( */") == []

    def test_unterminated_string(self):
        problems = scan_script('var s = "abc')
        assert any("unterminated string" in text for _l, text in problems)

    def test_unterminated_block_comment(self):
        problems = scan_script("/* forever")
        assert any("comment" in text for _l, text in problems)

    def test_line_numbers(self):
        problems = scan_script("var a = 1;\nf());\n")
        assert problems[0][0] == 2

    def test_escaped_quote_in_string(self):
        assert scan_script("var s = 'it\\'s fine';") == []


class TestPluginsInChecker:
    def test_style_element_checked(self, weblint):
        source = make_document(
            "<p>x</p>",
            head_extra='<style type="text/css">\nbody { colour: red }\n</style>\n',
        )
        diags = weblint.check_string(source)
        assert "css-unknown-property" in ids(diags)

    def test_style_attribute_checked(self, weblint):
        diags = weblint.check_string(
            make_document('<p style="color: neon">x</p>')
        )
        assert "css-unknown-color" in ids(diags)

    def test_valid_css_quiet(self, weblint):
        source = make_document(
            '<p style="color: #ff0000; margin-top: 1em">x</p>'
        )
        assert not ids(weblint.check_string(source)) & {
            "css-syntax", "css-unknown-property", "css-unknown-color",
        }

    def test_script_checked(self, weblint):
        source = make_document(
            "<p>x</p>",
            head_extra='<script type="text/javascript">\nf());\n</script>\n',
        )
        assert "script-syntax" in ids(weblint.check_string(source))

    def test_external_script_not_checked(self, weblint):
        source = make_document(
            "<p>x</p>",
            head_extra='<script type="text/javascript" src="x.js"></script>\n',
        )
        assert "script-syntax" not in ids(weblint.check_string(source))

    def test_non_css_style_element_not_checked(self, weblint):
        source = make_document(
            "<p>x</p>",
            head_extra='<style type="text/x-other">colour: odd</style>\n',
        )
        assert "css-unknown-property" not in ids(weblint.check_string(source))

    def test_plugin_messages_configurable(self):
        options = Options.with_defaults()
        options.disable("css-unknown-property")
        source = make_document('<p style="colour: red">x</p>')
        diags = Weblint(options=options).check_string(source)
        assert "css-unknown-property" not in ids(diags)

    def test_line_numbers_offset_into_document(self, weblint):
        source = make_document(
            "<p>x</p>",
            head_extra='<style type="text/css">\nbody { colour: red }\n</style>\n',
        )
        diag = next(
            d for d in weblint.check_string(source)
            if d.message_id == "css-unknown-property"
        )
        assert source.splitlines()[diag.line - 1].strip() == "body { colour: red }"

    def test_custom_plugin(self):
        from repro.core.rules import default_rules
        from repro.plugins.base import ContentPlugin

        class NoTabsPlugin(ContentPlugin):
            name = "no-tabs"

            def claims_element(self, element_name, tag):
                return element_name == "pre"

            def check_content(self, context, content, start_line):
                if "\t" in content:
                    context.emit(
                        "css-syntax",  # demo: ride an existing message id
                        line=start_line,
                        problem="tab character in PRE content",
                    )

        rules = default_rules() + [PluginRule([NoTabsPlugin()])]
        weblint = Weblint(rules=rules)
        diags = weblint.check_string(
            make_document("<pre>a\tb</pre>")
        )
        assert any("tab character" in d.text for d in diags)

    def test_unclosed_style_still_checked(self, weblint):
        source = (
            '<!DOCTYPE HTML PUBLIC "x//EN">\n<html><head><title>t</title>'
            '<style type="text/css">body { colour: red }'
        )
        assert "css-unknown-property" in ids(weblint.check_string(source))


class _RecordingPluginRule(PluginRule):
    """PluginRule that notes every start tag dispatch hands it."""

    def __init__(self, plugins=None):
        super().__init__(plugins)
        self.seen: list[str] = []

    def handle_start_tag(self, context, tag, elem):
        self.seen.append(tag.name)
        super().handle_start_tag(context, tag, elem)


def _rules_with(plugin_rule):
    from repro.core.rules import default_rules

    return [rule for rule in default_rules() if rule.name != "plugins"] + [plugin_rule]


class TestPluginClaims:
    """The plugin rule runs only where its plugins can claim something."""

    def test_default_plugins_declare_their_claims(self):
        assert CSSPlugin.attribute_names == ("style",)
        assert ScriptPlugin.attribute_names == ()

    def test_runs_on_claimed_elements_and_attributes_only(self):
        rule = _RecordingPluginRule()
        source = make_document(
            '<P STYLE="color: neon">a</P><p style="colour: red">b</p>'
            '<p Style>c</p><div class="x" onclick="f()">d</div><b>e</b>'
            "<script>f());</script>",
            head_extra='<style type="text/css">p { colour: red }</style>\n',
        )
        diagnostics = Weblint(rules=_rules_with(rule)).check_string(source)
        assert rule.seen == ["style", "P", "p", "p", "script"]
        assert {"css-unknown-color", "css-unknown-property", "script-syntax"} <= ids(
            diagnostics
        )

    def test_subscriptions_narrow_to_declared_claims(self):
        resolved = PluginRule().subscriptions(get_spec("html40"), Options.with_defaults())
        assert resolved["handle_start_tag"] == frozenset({"style", "script", "[style]"})
        assert resolved["handle_element_closed"] == frozenset({"style", "script"})
        assert "handle_text" not in resolved

    def test_undeclared_attribute_claims_keep_the_wildcard(self):
        from repro.plugins.base import ContentPlugin

        class PreTabs(ContentPlugin):
            name = "pre-tabs"
            element_names = ("pre",)

            def claims_element(self, element_name, tag):
                return element_name == "pre"

        rule = _RecordingPluginRule([PreTabs()])
        resolved = rule.subscriptions(get_spec("html40"), Options.with_defaults())
        assert resolved["handle_start_tag"] is None
        assert resolved["handle_element_closed"] == frozenset({"pre"})
        Weblint(rules=_rules_with(rule)).check_string(make_document("<p>a<b>b</b></p>"))
        assert rule.seen == ["html", "head", "title", "body", "p", "b"]

    def test_undeclared_plugin_keeps_every_wildcard(self):
        from repro.plugins.base import ContentPlugin

        resolved = PluginRule([ContentPlugin()]).subscriptions(
            get_spec("html40"), Options.with_defaults()
        )
        assert resolved["handle_start_tag"] is None
        assert resolved["handle_element_closed"] is None

    def test_content_spans_nested_and_unclosed_claims(self):
        # The capture is all text from the claimed start tag to its close.
        source = make_document(
            "<p>x</p>",
            head_extra='<style type="text/css">\nb { colour: red }\n</style>\n'
            '<style type="text/css">\ni { colr: blue }',
        )
        diagnostics = Weblint().check_string(source)
        properties = [
            d.arguments["property"] for d in diagnostics
            if d.message_id == "css-unknown-property"
        ]
        assert properties == ["colour", "colr"]
