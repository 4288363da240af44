"""Attribute checks.

Everything the paper says about attributes:

- unknown attributes for an element (section 4.3, errors);
- illegal attribute values, "expressed as regular expressions" in the
  HTML modules (section 5.5) -- the BGCOLOR="fffff" example;
- values that should be quoted -- the TEXT=#00ff00 example;
- single-quote delimiters, which "many clients and HTML processors
  can't handle" (section 4.3, warnings);
- repeated attributes;
- deprecated attributes (off by default);
- duplicate IDs (weblint 2 addition).

SGML allows unquoted values made purely of name characters
(letters, digits, ``.-_:``), so ``COLSPAN=2`` is not flagged; only values
with other characters (like ``#00ff00``) get the quoting warning --
matching weblint's behaviour in the paper's example.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.core.context import CheckContext
from repro.core.rules.base import Rule
from repro.html.spec import ElementDef
from repro.html.tokens import StartTag

_UNQUOTED_SAFE = re.compile(r"^[A-Za-z0-9._:-]*$")


class AttributeRule(Rule):
    # Inspects the attributes of every tag, so it claims every start
    # tag that carries at least one attribute.
    name = "attributes"
    subscribes = {"handle_start_tag": {"[*]"}}

    def handle_start_tag(
        self,
        context: CheckContext,
        tag: StartTag,
        elem: Optional[ElementDef],
    ) -> None:
        element = tag.lowered
        element_upper = tag.name.upper()

        for attr_name in tag.duplicated_attributes():
            context.emit(
                "repeated-attribute",
                line=tag.line,
                attribute=attr_name.upper(),
                element=element_upper,
            )

        seen: set[str] = set()
        for attr in tag.attributes:
            lowered = attr.lowered
            first_occurrence = lowered not in seen
            seen.add(lowered)

            # Lexical style of the value.
            if attr.has_value:
                if attr.quote is None and not _UNQUOTED_SAFE.match(attr.value):
                    context.emit(
                        "quote-attribute-value",
                        line=attr.line or tag.line,
                        attribute=attr.name.upper(),
                        value=attr.value,
                        element=element_upper,
                    )
                elif attr.quote == "'":
                    context.emit(
                        "attribute-delimiter",
                        line=attr.line or tag.line,
                        attribute=attr.name.upper(),
                        element=element_upper,
                    )

            if lowered == "id" and attr.has_value and attr.value:
                self._check_duplicate_id(context, tag, attr.value)

            # Semantic checks need the element definition; for unknown
            # elements we stay quiet (reporting attributes of an element
            # we already flagged would be a cascade).
            if elem is None or not first_occurrence:
                continue

            definition = context.spec.attribute_def(element, lowered)
            if definition is None:
                if context.options.is_custom_attribute(element, lowered):
                    continue
                context.emit(
                    "unknown-attribute",
                    line=attr.line or tag.line,
                    attribute=attr.name.upper(),
                    element=element_upper,
                )
                continue
            if definition.deprecated:
                context.emit(
                    "deprecated-attribute",
                    line=attr.line or tag.line,
                    attribute=attr.name.upper(),
                    element=element_upper,
                )
            if attr.has_value and not definition.value_ok(attr.value):
                context.emit(
                    "attribute-format",
                    line=attr.line or tag.line,
                    attribute=attr.name.upper(),
                    element=element_upper,
                    value=attr.value,
                )

    def _check_duplicate_id(
        self, context: CheckContext, tag: StartTag, value: str
    ) -> None:
        first_line = context.ids_seen.get(value)
        if first_line is not None:
            context.emit(
                "duplicate-id",
                line=tag.line,
                id=value,
                first_line=first_line,
            )
        else:
            context.ids_seen[value] = tag.line
