"""Script sanity plugin: catch mangled SCRIPT content.

Not a JavaScript parser -- in the weblint spirit it looks for the
mistakes copy-paste actually produces inside ``<script>`` elements:
unbalanced brackets and unterminated string literals.  String and comment
syntax is understood well enough that brackets inside them do not count.
"""

from __future__ import annotations

from repro.core.context import CheckContext
from repro.html.tokens import StartTag
from repro.plugins.base import ContentPlugin

_OPENERS = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = {")": "(", "]": "[", "}": "{"}


def scan_script(text: str) -> list[tuple[int, str]]:
    """Return ``(line, problem)`` pairs for one script body."""
    problems: list[tuple[int, str]] = []
    stack: list[tuple[str, int]] = []
    line = 1
    index = 0
    length = len(text)
    in_string: str | None = None
    string_line = 1

    while index < length:
        char = text[index]
        if char == "\n":
            if in_string is not None and in_string != "`":
                problems.append(
                    (string_line, f"unterminated string ({in_string}...)")
                )
                in_string = None
            line += 1
            index += 1
            continue
        if in_string is not None:
            if char == "\\":
                index += 2
                continue
            if char == in_string:
                in_string = None
            index += 1
            continue
        if char in ("'", '"', "`"):
            in_string = char
            string_line = line
            index += 1
            continue
        if char == "/" and index + 1 < length:
            nxt = text[index + 1]
            if nxt == "/":
                newline = text.find("\n", index)
                index = length if newline == -1 else newline
                continue
            if nxt == "*":
                end = text.find("*/", index + 2)
                if end == -1:
                    problems.append((line, "unterminated /* comment"))
                    break
                line += text[index:end].count("\n")
                index = end + 2
                continue
        if char in _OPENERS:
            stack.append((char, line))
        elif char in _CLOSERS:
            if stack and stack[-1][0] == _CLOSERS[char]:
                stack.pop()
            else:
                problems.append((line, f"unmatched '{char}'"))
        index += 1

    if in_string is not None:
        problems.append((string_line, f"unterminated string ({in_string}...)"))
    for opener, opener_line in stack:
        problems.append((opener_line, f"'{opener}' never closed"))
    return problems


class ScriptPlugin(ContentPlugin):
    """The script sanity plugin."""

    name = "script"
    element_names = ("script",)
    attribute_names = ()

    def claims_element(self, element_name: str, tag: StartTag) -> bool:
        return element_name == "script" and tag.get("src") is None

    def check_content(
        self, context: CheckContext, content: str, start_line: int
    ) -> None:
        if not content.strip():
            return
        for line_offset, problem in scan_script(content):
            context.emit(
                "script-syntax",
                line=start_line + line_offset - 1,
                problem=problem,
            )
