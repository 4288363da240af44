"""Document-level checks.

Covers the paper's whole-document messages: the DOCTYPE check that leads
the section 4.2 example output, the outer ``<HTML>`` wrapper, the required
``<TITLE>``, title length, and the weblint-2 additions for search-engine
meta information, authorship LINK and NOFRAMES content.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.context import CheckContext, OpenElement
from repro.core.rules.base import FIRST_TAG, Rule
from repro.html.spec import ElementDef
from repro.html.tokens import EndTag, StartTag


@dataclass
class _DocState:
    """Per-document tracking, kept in ``context.scratch`` so one rule
    instance can serve interleaved checks."""

    doctype_checked: bool = False
    seen_meta_description: bool = False
    seen_link_rev_made: bool = False
    frameset_line: Optional[int] = None
    seen_noframes: bool = False


class DocumentRule(Rule):
    name = "document"
    # The require-doctype check fires on the *first* start tag whatever
    # its name; the rest of the tracking below needs four elements.
    subscribes = {
        "start_document": True,
        "handle_start_tag": {FIRST_TAG, "meta", "link", "frameset", "noframes"},
        "handle_element_closed": {"title"},
        "end_document": True,
    }

    def start_document(self, context: CheckContext) -> None:
        context.scratch[self.name] = _DocState()

    def _state(self, context: CheckContext) -> _DocState:
        state = context.scratch.get(self.name)
        if state is None:
            state = context.scratch[self.name] = _DocState()
        return state

    # -- per-tag tracking ---------------------------------------------------

    def handle_start_tag(
        self,
        context: CheckContext,
        tag: StartTag,
        elem: Optional[ElementDef],
    ) -> None:
        state = self._state(context)
        if not state.doctype_checked:
            state.doctype_checked = True
            if not context.seen_doctype:
                context.emit("require-doctype", line=tag.line)

        name = tag.lowered
        if name == "meta":
            meta_name = tag.get("name")
            if meta_name is not None and meta_name.value.lower() in (
                "description",
                "keywords",
            ):
                state.seen_meta_description = True
        elif name == "link":
            rev = tag.get("rev")
            if rev is not None and rev.value.lower() == "made":
                state.seen_link_rev_made = True
        elif name == "frameset" and state.frameset_line is None:
            state.frameset_line = tag.line
        elif name == "noframes":
            state.seen_noframes = True

    def handle_element_closed(
        self,
        context: CheckContext,
        open_element: OpenElement,
        end_tag: Optional[EndTag],
        implicit: bool,
    ) -> None:
        if open_element.name != "title":
            return
        title = open_element.text.strip()
        if title and len(title) > context.options.max_title_length:
            line = end_tag.line if end_tag is not None else open_element.line
            context.emit(
                "title-length",
                line=line,
                length=len(title),
                limit=context.options.max_title_length,
            )
        if context.title_text is None:
            context.title_text = title

    # -- end of document -----------------------------------------------------

    def end_document(self, context: CheckContext) -> None:
        if not context.seen_any_element:
            return
        state = self._state(context)
        if (
            context.first_element_name != "html"
            or context.last_end_tag_name != "html"
        ):
            context.emit("html-outer", line=1)
        if not context.seen_title:
            context.emit(
                "require-title", line=context.history.get("head", 1)
            )
        if state.frameset_line is not None and not state.seen_noframes:
            context.emit("frame-noframes", line=state.frameset_line)
        if not state.seen_meta_description:
            context.emit("meta-description", line=1)
        if not state.seen_link_rev_made:
            context.emit("link-rev-made", line=1)
