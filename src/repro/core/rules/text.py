"""Text-content checks: literal metacharacters and entity references.

- ``literal-metacharacter``: a bare ``<`` or ``>`` in text should be
  written ``&lt;`` / ``&gt;`` -- lenient browsers render it, strict
  parsers and robots trip over it.
- ``unknown-entity``: ``&foo;`` where the active HTML version defines no
  such entity.  Known-ness is judged against the *spec's* entity table,
  so ``&euro;`` is fine under HTML 4.0 but flagged under HTML 3.2.
- ``unterminated-entity`` (off by default): ``&copy`` without the
  semicolon.
"""

from __future__ import annotations

from repro.core.context import CheckContext
from repro.core.rules.base import Rule
from repro.html.entities import decode_numeric
from repro.html.tokens import LexicalIssue, Text


class TextRule(Rule):
    name = "text"
    # Both checks read the lexical issues and entity references the
    # tokenizer attached to the run; a run with neither is clean.
    subscribes = {"handle_text": {"[entities]", "[issues]"}}

    def handle_text(self, context: CheckContext, token: Text) -> None:
        if token.has_issue(LexicalIssue.BARE_LT_IN_TEXT):
            context.emit(
                "literal-metacharacter",
                line=token.line,
                char="<",
                entity="&lt;",
            )
        if token.has_issue(LexicalIssue.BARE_GT_IN_TEXT):
            # One message per source line containing a bare '>'.
            for offset, line_text in enumerate(token.text.split("\n")):
                if ">" in line_text:
                    context.emit(
                        "literal-metacharacter",
                        line=token.line + offset,
                        char=">",
                        entity="&gt;",
                    )

        for name, line, column, _known, terminated in token.entities:
            if name.startswith("#"):
                try:
                    decode_numeric(name)
                    known = True
                except ValueError:
                    known = False
            else:
                known = name in context.spec.entities
            if not known:
                context.emit(
                    "unknown-entity", line=line, column=column, entity=name
                )
            elif not terminated:
                context.emit(
                    "unterminated-entity", line=line, column=column, entity=name
                )
