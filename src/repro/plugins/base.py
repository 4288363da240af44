"""Plugin protocol and the rule that drives plugins from the checker."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.core.context import CheckContext, OpenElement
from repro.core.rules.base import Rule
from repro.html.spec import ElementDef
from repro.html.tokens import EndTag, StartTag


class ContentPlugin:
    """Base class for non-HTML content validators.

    A plugin can claim whole-element content (``claims_element``) and/or
    single attribute values (``claims_attribute``); the corresponding
    ``check_*`` method emits diagnostics through ``context.emit`` so the
    user's enable/disable configuration applies to plugin messages
    exactly like core ones.

    Two static hints let the dispatch table run the plugin only where it
    can claim something: ``element_names`` and ``attribute_names``.  A
    plugin that declares both is consulted only on start tags of those
    elements and on tags carrying one of those attributes (in any case),
    and only its elements' closes are routed to it.  A hint left at
    ``None`` means "unknown" and keeps the wildcard, so existing
    third-party plugins stay correct without changes::

        class InlineStylePlugin(ContentPlugin):
            element_names = ("style",)
            attribute_names = ("style",)   # () claims no attribute
    """

    name = "plugin"

    #: Static hint: the element names ``claims_element`` may ever return
    #: True for.  ``None`` means "unknown" and keeps the wildcard.
    element_names: Optional[tuple[str, ...]] = None

    #: Static hint: the lower-case attribute names ``claims_attribute``
    #: may ever return True for, on any element.  ``None`` means
    #: "unknown" and keeps the wildcard start-tag subscription.
    attribute_names: Optional[tuple[str, ...]] = None

    def claims_element(self, element_name: str, tag: StartTag) -> bool:
        return False

    def claims_attribute(self, element_name: str, attribute_name: str) -> bool:
        return False

    def check_content(
        self, context: CheckContext, content: str, start_line: int
    ) -> None:
        """Validate the text content of a claimed element."""

    def check_attribute_value(
        self, context: CheckContext, value: str, line: int
    ) -> None:
        """Validate a claimed attribute's value."""


class PluginRule(Rule):
    """Feeds claimed content to plugins as the token stream passes.

    Capture state lives in ``context.scratch`` (one list per check), so
    a single PluginRule instance safely serves interleaved checks.  A
    capture records where the document's text stood when the claimed
    element started (``context.text_mark()``); its content is all text
    since then when the element closes, so no hook runs per text token.
    """

    name = "plugins"
    # Static fallback for plugins that do not declare their claims:
    # every start tag and every element close.  subscriptions() narrows
    # both to the plugins' declared elements and attributes.
    subscribes = {
        "start_document": True,
        "handle_start_tag": "*",
        "handle_element_closed": "*",
        "end_document": True,
    }

    def __init__(self, plugins: Optional[Sequence[ContentPlugin]] = None) -> None:
        self.plugins: list[ContentPlugin] = (
            list(plugins) if plugins is not None else default_plugins()
        )

    def subscriptions(self, spec=None, options=None):
        resolved = super().subscriptions(spec, options)
        elements = _declared(plugin.element_names for plugin in self.plugins)
        if elements is None:
            return resolved  # unknown claims: keep the wildcards
        if elements:
            resolved["handle_element_closed"] = elements
        else:
            resolved.pop("handle_element_closed", None)
        attributes = _declared(plugin.attribute_names for plugin in self.plugins)
        if attributes is None:
            return resolved
        selectors = elements | {f"[{name}]" for name in attributes}
        if selectors:
            resolved["handle_start_tag"] = selectors
        else:
            resolved.pop("handle_start_tag", None)
        return resolved

    # -- capture state -----------------------------------------------------

    #: scratch entries: (plugin, element name, start line, text mark)
    def _capturing(
        self, context: CheckContext
    ) -> list[tuple[ContentPlugin, str, int, int]]:
        captures = context.scratch.get(self.name)
        if captures is None:
            captures = context.scratch[self.name] = []
        return captures

    def start_document(self, context: CheckContext) -> None:
        context.scratch[self.name] = []

    def handle_start_tag(
        self,
        context: CheckContext,
        tag: StartTag,
        elem: Optional[ElementDef],
    ) -> None:
        name = tag.lowered
        captures = self._capturing(context)
        for plugin in self.plugins:
            for attr in tag.attributes:
                if attr.has_value and plugin.claims_attribute(name, attr.lowered):
                    plugin.check_attribute_value(
                        context, attr.value, attr.line or tag.line
                    )
            if plugin.claims_element(name, tag) and not tag.self_closing:
                captures.append((plugin, name, tag.line, context.text_mark()))

    def handle_element_closed(
        self,
        context: CheckContext,
        open_element: OpenElement,
        end_tag: Optional[EndTag],
        implicit: bool,
    ) -> None:
        captures = self._capturing(context)
        remaining: list[tuple[ContentPlugin, str, int, int]] = []
        for plugin, name, line, mark in captures:
            if name == open_element.name:
                plugin.check_content(context, context.text_since(mark), line)
            else:
                remaining.append((plugin, name, line, mark))
        context.scratch[self.name] = remaining

    def end_document(self, context: CheckContext) -> None:
        # Elements never closed still get their content checked.
        for plugin, _name, line, mark in self._capturing(context):
            plugin.check_content(context, context.text_since(mark), line)
        context.scratch[self.name] = []


def _declared(hints: Iterable[Optional[tuple[str, ...]]]) -> Optional[frozenset[str]]:
    """The union of the plugins' static hints; None if any is unknown."""
    names: set[str] = set()
    for hint in hints:
        if hint is None:
            return None
        names.update(name.lower() for name in hint)
    return frozenset(names)


def default_plugins() -> list[ContentPlugin]:
    from repro.plugins.csslint import CSSPlugin
    from repro.plugins.scriptlint import ScriptPlugin

    return [CSSPlugin(), ScriptPlugin()]
