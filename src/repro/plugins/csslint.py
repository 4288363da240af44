"""CSS lint plugin: validate stylesheets and style attributes.

A CSS1 (plus common CSS2) checker in the weblint spirit: helpful
messages, no strict grammar.  It handles:

- ``<style>`` content: rule sets ``selector { declarations }``,
  ``/* comments */``, ``@import``/``@media`` at-rules (skipped),
  unbalanced braces;
- ``style="..."`` attribute values: bare declaration lists;
- declarations: unknown properties (with typo suggestions), missing
  colons, unknown colour keywords, malformed ``!important``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.core.context import CheckContext
from repro.html.spec import _edit_distance
from repro.html.tokens import StartTag
from repro.plugins.base import ContentPlugin

#: CSS1 properties plus the common CSS2 additions (visual media).
CSS_PROPERTIES = frozenset(
    {
        # fonts and text
        "font", "font-family", "font-size", "font-size-adjust",
        "font-stretch", "font-style", "font-variant", "font-weight",
        "color", "word-spacing", "letter-spacing", "text-decoration",
        "vertical-align", "text-transform", "text-align", "text-indent",
        "line-height", "white-space", "text-shadow", "direction",
        "unicode-bidi",
        # background
        "background", "background-color", "background-image",
        "background-repeat", "background-attachment", "background-position",
        # box model
        "margin", "margin-top", "margin-right", "margin-bottom",
        "margin-left", "padding", "padding-top", "padding-right",
        "padding-bottom", "padding-left",
        "border", "border-top", "border-right", "border-bottom",
        "border-left", "border-color", "border-style", "border-width",
        "border-top-width", "border-right-width", "border-bottom-width",
        "border-left-width", "border-top-color", "border-right-color",
        "border-bottom-color", "border-left-color", "border-top-style",
        "border-right-style", "border-bottom-style", "border-left-style",
        "width", "height", "min-width", "max-width", "min-height",
        "max-height", "float", "clear",
        # display and positioning
        "display", "position", "top", "right", "bottom", "left",
        "z-index", "overflow", "clip", "visibility", "cursor",
        # lists
        "list-style", "list-style-type", "list-style-image",
        "list-style-position", "marker-offset",
        # tables
        "table-layout", "border-collapse", "border-spacing",
        "caption-side", "empty-cells",
        # generated content, paging, outlines
        "content", "quotes", "counter-reset", "counter-increment",
        "outline", "outline-color", "outline-style", "outline-width",
        "page-break-before", "page-break-after", "page-break-inside",
        "orphans", "widows",
    }
)

#: Properties whose value names a colour.
COLOR_PROPERTIES = frozenset(
    {
        "color", "background-color", "border-color", "outline-color",
        "border-top-color", "border-right-color", "border-bottom-color",
        "border-left-color",
    }
)

CSS_COLOR_KEYWORDS = frozenset(
    {
        "aqua", "black", "blue", "fuchsia", "gray", "green", "lime",
        "maroon", "navy", "olive", "purple", "red", "silver", "teal",
        "white", "yellow", "orange", "transparent", "inherit",
    }
)

_HEX_COLOR = re.compile(r"^#(?:[0-9a-fA-F]{3}|[0-9a-fA-F]{6})$")
_FUNC_COLOR = re.compile(r"^rgb\(", re.IGNORECASE)
_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
_PROPERTY_NAME = re.compile(r"^-?[A-Za-z][A-Za-z0-9-]*$")


@dataclass(frozen=True)
class Declaration:
    """One ``property: value`` pair with its source line."""

    property: str
    value: str
    line: int
    important: bool = False


def _strip_comments(text: str) -> str:
    """Replace comments with spaces, preserving line structure."""
    def _blank(match: re.Match[str]) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))
    return _COMMENT.sub(_blank, text)


def parse_declarations(
    text: str, start_line: int = 1
) -> tuple[list[Declaration], list[tuple[int, str]]]:
    """Parse a declaration list (the content of ``style="..."`` or a block).

    Returns ``(declarations, problems)`` where each problem is a
    ``(line, description)`` pair.
    """
    declarations: list[Declaration] = []
    problems: list[tuple[int, str]] = []
    text = _strip_comments(text)
    offset_line = start_line
    for chunk in text.split(";"):
        chunk_line = offset_line + _leading_newlines(chunk)
        offset_line += chunk.count("\n")
        body = chunk.strip()
        if not body:
            continue
        if ":" not in body:
            problems.append(
                (chunk_line, f'declaration "{_excerpt(body)}" has no ":"')
            )
            continue
        prop, _, value = body.partition(":")
        prop = prop.strip().lower()
        value = value.strip()
        important = False
        bang = value.rfind("!")
        if bang != -1:
            suffix = value[bang + 1 :].strip().lower()
            if suffix == "important":
                important = True
                value = value[:bang].strip()
            else:
                problems.append(
                    (chunk_line, f'bad "!{suffix}" (did you mean !important?)')
                )
                value = value[:bang].strip()
        if not _PROPERTY_NAME.match(prop):
            problems.append(
                (chunk_line, f'malformed property name "{_excerpt(prop)}"')
            )
            continue
        if not value:
            problems.append((chunk_line, f'property "{prop}" has no value'))
            continue
        declarations.append(
            Declaration(property=prop, value=value, line=chunk_line,
                        important=important)
        )
    return declarations, problems


def parse_stylesheet(
    text: str, start_line: int = 1
) -> tuple[list[Declaration], list[tuple[int, str]]]:
    """Parse full stylesheet text into declarations + problems."""
    declarations: list[Declaration] = []
    problems: list[tuple[int, str]] = []
    text = _strip_comments(text)

    depth = 0
    block_start = 0
    line = start_line
    selector_line = start_line
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char == "\n":
            line += 1
        elif char == "@":
            # Skip at-rules up to ';' or matching block.
            end = _skip_at_rule(text, index)
            line += text[index:end].count("\n")
            index = end
            continue
        elif char == "{":
            depth += 1
            if depth == 1:
                block_start = index + 1
                selector_line = line
            elif depth == 2:
                problems.append((line, "nested '{' in rule set"))
        elif char == "}":
            if depth == 0:
                problems.append((line, "unmatched '}'"))
            else:
                depth -= 1
                if depth == 0:
                    body = text[block_start:index]
                    decls, probs = parse_declarations(body, selector_line)
                    declarations.extend(decls)
                    problems.extend(probs)
        index += 1
    if depth > 0:
        problems.append((line, "unclosed '{' in stylesheet"))
    return declarations, problems


def _skip_at_rule(text: str, index: int) -> int:
    depth = 0
    for position in range(index, len(text)):
        char = text[position]
        if char == ";" and depth == 0:
            return position + 1
        if char == "{":
            depth += 1
        elif char == "}":
            depth -= 1
            if depth == 0:
                return position + 1
    return len(text)


def _leading_newlines(chunk: str) -> int:
    stripped = chunk.lstrip()
    return chunk[: len(chunk) - len(stripped)].count("\n")


def _excerpt(text: str, limit: int = 30) -> str:
    text = " ".join(text.split())
    return text if len(text) <= limit else text[: limit - 3] + "..."


def suggest_property(name: str) -> str | None:
    """Closest known property for a probable typo."""
    best, best_distance = None, 3
    for candidate in CSS_PROPERTIES:
        if abs(len(candidate) - len(name)) >= best_distance:
            continue
        distance = _edit_distance(name, candidate, best_distance)
        if distance < best_distance:
            best, best_distance = candidate, distance
    return best


class CSSPlugin(ContentPlugin):
    """The stylesheet validator plugin."""

    name = "css"
    element_names = ("style",)
    attribute_names = ("style",)

    def claims_element(self, element_name: str, tag: StartTag) -> bool:
        if element_name != "style":
            return False
        type_attr = tag.get("type")
        return type_attr is None or type_attr.value.lower() in (
            "", "text/css"
        )

    def claims_attribute(self, element_name: str, attribute_name: str) -> bool:
        return attribute_name == "style"

    # -- checks -----------------------------------------------------------------

    def check_content(
        self, context: CheckContext, content: str, start_line: int
    ) -> None:
        declarations, problems = parse_stylesheet(content, start_line)
        self._report(context, declarations, problems)

    def check_attribute_value(
        self, context: CheckContext, value: str, line: int
    ) -> None:
        declarations, problems = parse_declarations(value, line)
        self._report(context, declarations, problems)

    def _report(
        self,
        context: CheckContext,
        declarations: list[Declaration],
        problems: list[tuple[int, str]],
    ) -> None:
        for line, problem in problems:
            context.emit("css-syntax", line=line, problem=problem)
        for declaration in declarations:
            if declaration.property not in CSS_PROPERTIES:
                candidate = suggest_property(declaration.property)
                suggestion = (
                    f' - did you mean "{candidate}"?' if candidate else ""
                )
                context.emit(
                    "css-unknown-property",
                    line=declaration.line,
                    property=declaration.property,
                    suggestion=suggestion,
                )
            elif declaration.property in COLOR_PROPERTIES:
                value = declaration.value.lower()
                if not (
                    value in CSS_COLOR_KEYWORDS
                    or _HEX_COLOR.match(value)
                    or _FUNC_COLOR.match(value)
                ):
                    context.emit(
                        "css-unknown-color",
                        line=declaration.line,
                        property=declaration.property,
                        value=_excerpt(declaration.value),
                    )
