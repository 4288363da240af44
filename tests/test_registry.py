"""The named rule registry: ordering, switching, legacy adaptation."""

from __future__ import annotations

import pytest

from repro.core.registry import RegistryError, RuleRegistry, default_registry
from repro.core.rules import default_rules
from repro.core.rules.base import (
    HOOK_NAMES,
    Rule,
    infer_subscriptions,
    normalise_subscriptions,
    split_interest,
)


class _NullRule(Rule):
    name = "null"


def _named(name: str):
    """A factory building a Rule whose ``name`` is ``name``."""

    def factory() -> Rule:
        rule = _NullRule()
        rule.name = name
        return rule

    factory.__doc__ = f"The {name} rule."
    return factory


class TestRegistration:
    def test_register_and_build(self):
        registry = RuleRegistry()
        registry.register("one", _named("one"))
        registry.register("two", _named("two"))
        assert registry.names() == ["one", "two"]
        assert [rule.name for rule in registry.rules()] == ["one", "two"]
        assert "one" in registry and len(registry) == 2

    def test_rules_builds_fresh_instances(self):
        registry = RuleRegistry()
        registry.register("one", _named("one"))
        assert registry.rules()[0] is not registry.rules()[0]

    def test_duplicate_name_rejected(self):
        registry = RuleRegistry()
        registry.register("one", _named("one"))
        with pytest.raises(RegistryError, match="already registered"):
            registry.register("one", _named("one"))

    def test_replace_keeps_position(self):
        registry = RuleRegistry()
        registry.register("one", _named("one"))
        registry.register("two", _named("two"))
        registry.register("one", _named("one"), replace=True)
        assert registry.names() == ["one", "two"]

    def test_empty_name_rejected(self):
        registry = RuleRegistry()
        with pytest.raises(RegistryError, match="non-empty"):
            registry.register("  ", _named("x"))

    def test_description_defaults_to_docstring(self):
        registry = RuleRegistry()
        registry.register("one", _named("one"))
        assert registry.registrations()[0].description == "The one rule."

    def test_non_rule_factory_rejected_at_build(self):
        registry = RuleRegistry()
        registry.register("bad", lambda: object())
        with pytest.raises(RegistryError, match="not a Rule"):
            registry.rules()

    def test_unregister(self):
        registry = RuleRegistry()
        registry.register("one", _named("one"))
        registry.unregister("one")
        assert "one" not in registry
        with pytest.raises(RegistryError, match="unknown rule"):
            registry.unregister("one")


class TestEnableDisable:
    def test_disabled_rule_not_built(self):
        registry = RuleRegistry()
        registry.register("one", _named("one"))
        registry.register("two", _named("two"))
        registry.disable("one")
        assert not registry.is_enabled("one")
        assert [rule.name for rule in registry.rules()] == ["two"]
        registry.enable("one")
        assert [rule.name for rule in registry.rules()] == ["one", "two"]

    def test_unknown_name_raises_with_known_list(self):
        registry = RuleRegistry()
        registry.register("one", _named("one"))
        with pytest.raises(RegistryError, match="registered: one"):
            registry.disable("nope")

    def test_register_disabled(self):
        registry = RuleRegistry()
        registry.register("one", _named("one"), enabled=False)
        assert registry.rules() == []


class TestOrdering:
    def test_baseline_is_registration_order(self):
        registry = RuleRegistry()
        for name in ("c", "a", "b"):
            registry.register(name, _named(name))
        assert registry.names() == ["c", "a", "b"]

    def test_after_constraint(self):
        registry = RuleRegistry()
        registry.register("late", _named("late"), after=("early",))
        registry.register("early", _named("early"))
        assert registry.names() == ["early", "late"]

    def test_before_constraint(self):
        registry = RuleRegistry()
        registry.register("a", _named("a"))
        registry.register("b", _named("b"), before=("a",))
        assert registry.names() == ["b", "a"]

    def test_unknown_constraint_names_ignored(self):
        registry = RuleRegistry()
        registry.register("a", _named("a"), after=("missing",), before=("gone",))
        assert registry.names() == ["a"]

    def test_cycle_raises(self):
        registry = RuleRegistry()
        registry.register("a", _named("a"), after=("b",))
        registry.register("b", _named("b"), after=("a",))
        with pytest.raises(RegistryError, match="cycle"):
            registry.names()

    def test_unconstrained_rules_keep_relative_order(self):
        registry = RuleRegistry()
        for name in ("a", "b", "c", "d"):
            registry.register(name, _named(name))
        registry.register("e", _named("e"), before=("b",))
        order = registry.names()
        assert order.index("e") < order.index("b")
        unconstrained = [name for name in order if name in ("a", "c", "d")]
        assert unconstrained == ["a", "c", "d"]


class TestLegacyAdapter:
    """Rules that never heard of subscriptions still dispatch correctly."""

    def test_overridden_hooks_inferred_as_wildcards(self):
        class Legacy(Rule):
            name = "legacy"

            def handle_start_tag(self, context, tag, elem):
                pass

            def end_document(self, context):
                pass

        inferred = infer_subscriptions(Legacy())
        assert inferred == {"handle_start_tag": None, "end_document": None}

    def test_no_overrides_means_no_subscriptions(self):
        assert infer_subscriptions(_NullRule()) == {}

    def test_declared_subscriptions_merge_overridden_hooks(self):
        class Declared(Rule):
            name = "declared"
            subscribes = {"handle_start_tag": {"img"}}

            def handle_start_tag(self, context, tag, elem):
                pass

            def handle_text(self, context, token):
                pass  # overridden but not declared: must still run

        resolved = Declared().subscriptions()
        assert resolved["handle_start_tag"] == frozenset({"img"})
        assert resolved["handle_text"] is None

    def test_non_tag_hook_interest_is_all_or_nothing(self):
        class Textual(Rule):
            name = "textual"

            def handle_text(self, context, token):
                pass

        resolved = normalise_subscriptions({"handle_text": {"p"}}, Textual())
        assert resolved["handle_text"] is None  # truthy means "every event"
        with pytest.raises(ValueError, match="truthy"):
            normalise_subscriptions({"handle_text": False}, Textual())

    def test_empty_tag_set_rejected(self):
        with pytest.raises(ValueError, match="names no elements"):
            normalise_subscriptions({"handle_start_tag": ()}, _NullRule())

    def test_unknown_hook_rejected(self):
        with pytest.raises(ValueError, match="unknown hook"):
            normalise_subscriptions({"handle_thing": True}, _NullRule())

    def test_attribute_and_first_tag_claims(self):
        class Claims(Rule):
            name = "claims"
            subscribes = {"handle_start_tag": {"IMG", "[STYLE]", "[*]", ":first"}}

            def handle_start_tag(self, context, tag, elem):
                pass

        resolved = Claims().subscriptions()
        assert resolved["handle_start_tag"] == frozenset(
            {"img", "[style]", "[*]", ":first"}
        )
        assert split_interest(resolved["handle_start_tag"]) == (
            frozenset({"img"}), frozenset({"style", "*"}), True,
        )

    def test_text_claims(self):
        class Textual(Rule):
            name = "textual"

            def handle_text(self, context, token):
                pass

        resolved = normalise_subscriptions(
            {"handle_text": {"[entities]", "[ISSUES]"}}, Textual()
        )
        assert resolved["handle_text"] == frozenset({"[entities]", "[issues]"})
        # Anything else among them still means every text run.
        mixed = normalise_subscriptions({"handle_text": {"[entities]", "p"}}, Textual())
        assert mixed["handle_text"] is None

    def test_claims_only_on_start_tags(self):
        for hook in ("handle_end_tag", "handle_element_closed"):
            with pytest.raises(ValueError, match="handle_start_tag"):
                normalise_subscriptions({hook: {"[style]"}}, _NullRule())
            with pytest.raises(ValueError, match="handle_start_tag"):
                normalise_subscriptions({hook: {":first"}}, _NullRule())

    def test_element_names_lowercased(self):
        class Upper(Rule):
            name = "upper"
            subscribes = {"handle_start_tag": {"IMG", "Input"}}

            def handle_start_tag(self, context, tag, elem):
                pass

        resolved = Upper().subscriptions()
        assert resolved["handle_start_tag"] == frozenset({"img", "input"})


class TestDefaultRegistry:
    def test_seed_rule_order_preserved(self):
        assert default_registry().names() == [
            "inline-config",
            "document",
            "attributes",
            "images",
            "anchors",
            "headings",
            "comments",
            "text",
            "tables",
            "forms",
            "style",
            "plugins",
        ]

    def test_default_rules_comes_from_registry(self):
        assert [rule.name for rule in default_rules()] == default_registry().names()

    def test_every_registration_described(self):
        for registration in default_registry().registrations():
            assert registration.description, registration.name

    def test_builtin_rules_declare_subscriptions(self):
        """Every built-in rule declares explicit interest (no adapter)."""
        for rule in default_rules():
            assert type(rule).subscribes is not None, rule.name
            resolved = rule.subscriptions()
            assert resolved, rule.name
            assert set(resolved) <= set(HOOK_NAMES)
