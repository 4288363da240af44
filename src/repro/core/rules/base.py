"""Rule base class, hook protocol and the subscription API.

A rule is a stateless-by-default visitor over the token stream and the
structural events the engine derives from it.  All state a rule needs
across events should live in ``context.scratch`` (keyed by the rule's
``name``), initialised in :meth:`Rule.start_document`, so that one rule
instance can serve interleaved checks.

Hook order for one document (the dispatch contract)::

    start_document               # once, before any token
      (per token, in document order)
      handle_start_tag / handle_end_tag / handle_text /
      handle_comment / handle_declaration
      handle_element_closed      # after the stack pops an element;
                                 # may fire between any two tokens and
                                 # again during the final stack unwind
    end_document                 # once, after the final unwind

Subscriptions
-------------

The engine no longer calls every hook of every rule for every token.  A
rule declares *interest* through the class attribute :attr:`Rule.subscribes`,
mapping hook names to either ``True`` (every event of that hook) or, for
the tag-keyed hooks (``handle_start_tag``, ``handle_end_tag``,
``handle_element_closed``), an iterable of lower-case element names
(``"*"`` for every element)::

    class ImageRule(Rule):
        name = "images"
        subscribes = {"handle_start_tag": {"img", "input"}}

A ``handle_start_tag`` interest may also claim attributes and the first
tag, with two more selector forms beside element names:

- ``"[name]"`` -- every start tag that carries attribute ``name`` (any
  case), whatever the element; ``"[*]"`` -- every tag that carries at
  least one attribute;
- ``":first"`` -- the document's first start tag, whatever its name.

The hook runs when any selector matches, once per tag::

    class InlineStyleRule(Rule):
        name = "inline-style"
        subscribes = {"handle_start_tag": {"style", "[style]"}}

A ``handle_text`` interest may likewise claim only the text runs that
carry entity references (``"[entities]"``) or lexical issues
(``"[issues]"``); any other truthy value means every text run.

The dispatch layer (:mod:`repro.core.dispatch`) compiles these into
per-hook, per-tag-name handler tables, and adds the attribute and
first-tag claims at the tags they match.  Legacy rules that declare
nothing keep working: :func:`infer_subscriptions` detects which hooks a
subclass overrides and subscribes them with a wildcard, which reproduces
the old call-everything behaviour for that rule alone.  A subclass that
overrides a hook its parent did not declare also gets that hook inferred,
so third-party subclasses of the built-ins stay safe.
"""

from __future__ import annotations

from typing import ClassVar, Iterable, Mapping, Optional, Union

from repro.core.context import CheckContext, OpenElement
from repro.html.spec import ElementDef
from repro.html.tokens import Comment, Declaration, EndTag, StartTag, Text

#: Every hook a rule may implement, in invocation order.
HOOK_NAMES: tuple[str, ...] = (
    "start_document",
    "handle_start_tag",
    "handle_end_tag",
    "handle_element_closed",
    "handle_text",
    "handle_comment",
    "handle_declaration",
    "end_document",
)

#: Hooks whose events carry an element name the dispatch table fans out on.
TAG_KEYED_HOOKS: frozenset[str] = frozenset(
    {"handle_start_tag", "handle_end_tag", "handle_element_closed"}
)

#: Wildcard marker usable inside a ``subscribes`` value.
ANY_TAG = "*"

#: Start-tag selector for the document's first start tag.
FIRST_TAG = ":first"

#: ``handle_text`` claims: text runs that carry entity references, or
#: lexical issues.
TEXT_CLAIMS = frozenset({"[entities]", "[issues]"})

#: Resolved subscription map: hook name -> None (every event) or a
#: frozenset of selectors: element names for the tag-keyed hooks, plus
#: ``"[attr]"`` and ``":first"`` for ``handle_start_tag``; text claims
#: for ``handle_text``.
SubscriptionMap = dict[str, Optional[frozenset[str]]]


def is_claim(selector: str) -> bool:
    """Is ``selector`` an attribute or first-tag claim, not an element name?"""
    return selector == FIRST_TAG or (
        len(selector) > 2 and selector[0] == "[" and selector[-1] == "]"
    )


def split_interest(
    interest: frozenset[str],
) -> tuple[frozenset[str], frozenset[str], bool]:
    """A start-tag interest -> ``(element names, attribute names, first)``.

    Attribute names come without their brackets; ``"*"`` among them
    stands for "any attribute".
    """
    elements = frozenset(name for name in interest if not is_claim(name))
    attributes = frozenset(
        name[1:-1] for name in interest if name != FIRST_TAG and is_claim(name)
    )
    return elements, attributes, FIRST_TAG in interest


def _normalise_interest(
    hook: str, value: Union[bool, str, Iterable[str]]
) -> Optional[frozenset[str]]:
    """One declared interest -> ``None`` (wildcard) or a tag-name set."""
    if value is True or value == ANY_TAG:
        return None
    if value is False or value is None:
        raise ValueError(f"subscription for {hook!r} must be truthy; omit the key instead")
    if hook == "handle_text" and isinstance(value, (set, frozenset, list, tuple)):
        claims = frozenset(str(name).lower() for name in value)
        if claims and claims <= TEXT_CLAIMS:
            return claims
    if hook not in TAG_KEYED_HOOKS:
        # Non-tag hooks have no fan-out key; any other truthy value
        # means "all".
        return None
    names = frozenset(str(name).lower() for name in value)
    if ANY_TAG in names:
        return None
    if not names:
        raise ValueError(f"subscription for {hook!r} names no elements")
    if hook != "handle_start_tag" and any(is_claim(name) for name in names):
        raise ValueError(
            f"attribute and first-tag claims apply to 'handle_start_tag' only, "
            f"not {hook!r}"
        )
    return names


def hook_is_overridden(rule: "Rule", hook: str) -> bool:
    """Does ``rule``'s class provide its own implementation of ``hook``?"""
    return getattr(type(rule), hook, None) is not getattr(Rule, hook)


def infer_subscriptions(rule: "Rule") -> SubscriptionMap:
    """Compatibility adapter: subscribe every overridden hook, wildcard.

    This is what keeps pre-subscription third-party ``Rule`` subclasses
    working under the compiled dispatch table -- they are called exactly
    as often as the old call-everything engine called them.
    """
    return {
        hook: None for hook in HOOK_NAMES if hook_is_overridden(rule, hook)
    }


def normalise_subscriptions(
    declared: Mapping[str, object], rule: "Rule"
) -> SubscriptionMap:
    """Validate and normalise a ``subscribes`` declaration.

    Hooks the rule overrides but did not declare are merged in with a
    wildcard (see the module docstring: subclass safety).
    """
    resolved: SubscriptionMap = {}
    for hook, value in declared.items():
        if hook not in HOOK_NAMES:
            raise ValueError(
                f"unknown hook {hook!r} in {type(rule).__name__}.subscribes "
                f"(known: {', '.join(HOOK_NAMES)})"
            )
        resolved[hook] = _normalise_interest(hook, value)
    for hook, interest in infer_subscriptions(rule).items():
        resolved.setdefault(hook, interest)
    return resolved


class Rule:
    """Base class: all hooks are no-ops; override what you need."""

    #: Stable identifier used in scratch keys and debugging output.
    name = "rule"

    #: Declared interest (see module docstring).  ``None`` means "infer
    #: from overridden hooks" -- the legacy-compatibility path.
    subscribes: ClassVar[Optional[Mapping[str, object]]] = None

    def subscriptions(self, spec=None, options=None) -> SubscriptionMap:
        """Resolved interest map for this rule under ``spec``/``options``.

        The default implementation normalises :attr:`subscribes` (or
        infers interest from overridden hooks when nothing is declared).
        Rules whose interest depends on the active spec or options --
        e.g. :class:`~repro.core.rules.style.StyleRule`, which needs
        every tag only when a house case style is configured -- override
        this; the dispatch table is compiled once per
        ``(spec, options, ruleset)`` so the computation is off the hot
        path.
        """
        if self.subscribes is None:
            return infer_subscriptions(self)
        return normalise_subscriptions(self.subscribes, self)

    def start_document(self, context: CheckContext) -> None:
        """Called once before any token."""

    def handle_start_tag(
        self,
        context: CheckContext,
        tag: StartTag,
        elem: Optional[ElementDef],
    ) -> None:
        """Called for every start tag.

        ``elem`` is the element definition in the active spec, or ``None``
        for unknown/custom elements (the engine has already reported
        unknown elements by the time rules run).
        """

    def handle_end_tag(self, context: CheckContext, tag: EndTag) -> None:
        """Called for every end tag, before the stack is adjusted."""

    def handle_element_closed(
        self,
        context: CheckContext,
        open_element: OpenElement,
        end_tag: Optional[EndTag],
        implicit: bool,
    ) -> None:
        """Called when an element leaves the stack.

        ``end_tag`` is the tag that caused the close (``None`` at end of
        document); ``implicit`` is True when the element was closed by
        something other than its own end tag.
        """

    def handle_text(self, context: CheckContext, token: Text) -> None:
        """Called for every text run."""

    def handle_comment(self, context: CheckContext, token: Comment) -> None:
        """Called for every comment."""

    def handle_declaration(self, context: CheckContext, token: Declaration) -> None:
        """Called for every ``<!...>`` declaration."""

    def end_document(self, context: CheckContext) -> None:
        """Called once after the last token and final stack unwind."""
