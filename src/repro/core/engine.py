"""The stack machine at the heart of weblint.

Paper section 5.1, almost line for line:

    "The file being processed is tokenised into start tags (possibly with
    attributes), text content, and end tags.  When an opening tag is seen,
    it is pushed onto the main stack.  Closing tags result in the stack
    being popped.  Certain elements require special processing, such as
    comments, SCRIPT and STYLE.

    A secondary stack comes into play when unexpected things happen, like
    overlapping elements ...  The second stack holds unresolved tags, and
    where they appeared."

The engine owns the two stacks and the structural messages that depend on
them (unclosed / overlapped / mismatched / out-of-context elements);
everything else is delegated to the pluggable rules, reached through a
compiled :class:`~repro.core.dispatch.DispatchTable`: rules declare which
hooks -- and, for tag hooks, which element names -- they care about, and
the engine performs one dict lookup per tag instead of invoking every
rule for every token.  Tokens are consumed from the tokenizer's streaming
:func:`~repro.html.tokenizer.iter_tokens` feed, so a document is never
materialised as a full token list.

``Engine.check`` is reentrancy-safe: no engine-level state is mutated
during a check (the dispatch table is immutable and cached, vendor spec
tables are built at construction, profiling state lives on the
per-invocation :class:`~repro.core.context.CheckContext`), so a rule
hook may itself call ``check`` on the same engine, and interleaved
checks do not corrupt one another.

Cascade suppression heuristics (the "ad-hoc aspects ... provided in an
effort to minimise the number of warning cascades"):

- When an end tag matches an element deeper in the stack, the elements
  skipped over are *not* all reported as errors blindly.  Optional-end
  elements close silently; elements whose legal context is the element
  being closed (TITLE inside </HEAD>) are reported once as unclosed;
  everything else is reported as an overlap and parked on the secondary
  stack so its own end tag, when it arrives, is resolved silently.
- Unknown elements are pushed as lenient containers, so their end tags
  match quietly instead of producing a second message.
- A mismatched heading close (<H1>...</H2>) closes the open heading, so
  the document does not appear nested inside a heading forever after.

The heuristics can be disabled wholesale (``cascade_heuristics=False``)
for the E9 ablation benchmark, which measures how many extra messages a
naive stack machine produces on the same input.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config.options import Options
from repro.core.context import CheckContext, OpenElement
from repro.core.dispatch import DispatchTable, get_table
from repro.core.rules import default_rules
from repro.core.rules.base import Rule
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.html.links import LinkFilter
from repro.html.spec import ElementDef, HTMLSpec, get_spec
from repro.html.tokenizer import iter_tokens
from repro.html.tokens import (
    Comment,
    Declaration,
    EndTag,
    LexicalIssue,
    ProcessingInstruction,
    StartTag,
    Text,
)

_HEADINGS = frozenset({"h1", "h2", "h3", "h4", "h5", "h6"})

#: How much of a mangled tag to quote back at the user.
_TAG_QUOTE_LIMIT = 40


def _tag_excerpt(tag: StartTag) -> str:
    """A short, single-line rendering of a tag for message text."""
    raw = " ".join(tag.raw.split())
    if raw.startswith("<"):
        raw = raw[1:]
    raw = raw.rstrip(">")
    if len(raw) > _TAG_QUOTE_LIMIT:
        raw = raw[: _TAG_QUOTE_LIMIT - 3] + "..."
    return raw


class Engine:
    """Checks one document at a time against one spec + option set."""

    def __init__(
        self,
        spec: Optional[HTMLSpec] = None,
        options: Optional[Options] = None,
        rules: Optional[Sequence[Rule]] = None,
        cascade_heuristics: bool = True,
    ) -> None:
        self.options = options if options is not None else Options.with_defaults()
        self.spec = spec if spec is not None else get_spec(self.options.spec_name)
        self.rules: list[Rule] = list(rules) if rules is not None else default_rules()
        self.cascade_heuristics = cascade_heuristics
        # Vendor specs for "X is Netscape/Microsoft specific" -- built
        # eagerly so no engine state mutates during a check, and not
        # consulted when already checking a vendor spec.
        self._vendor_specs: list[tuple[str, frozenset[str]]] = []
        standard = set(get_spec("html40").elements)
        for vendor in ("netscape", "microsoft"):
            if self.spec.name != vendor:
                vendor_only = frozenset(set(get_spec(vendor).elements) - standard)
                self._vendor_specs.append((vendor, vendor_only))

    # -- public API ------------------------------------------------------------

    def dispatch_table(self) -> DispatchTable:
        """The compiled (cached) table for this engine's configuration."""
        return get_table(self.spec, self.options, tuple(self.rules))

    def check(
        self, source: str, filename: str = "-", links: bool = False
    ) -> CheckContext:
        """Run the stack machine over ``source``; returns the context.

        With ``links`` the same token feed also yields the page's links
        and anchors (``context.links`` / ``context.anchors``), so a page
        that is linted and link-checked is tokenized once.
        """
        tracer = get_tracer()
        with tracer.span("engine.tokenize", file=filename):
            # The streaming feed does its scanning lazily, interleaved
            # with dispatch; this span records stream + table setup (the
            # scan itself lands inside engine.dispatch).
            tokens = iter_tokens(source)
            if links:
                # Wrapped only when asked: the plain feed stays bare.
                tokens = page = LinkFilter(tokens)
            table = self.dispatch_table()
        context = CheckContext(self.spec, self.options, filename)
        if context.profiler is not None:
            context.profiler.note_document()
        run_hooks = table.run_hooks

        with tracer.span("engine.dispatch", file=filename) as span:
            run_hooks(table.start_document, context)
            token_count = 0
            for token in tokens:
                token_count += 1
                context.last_line = token.line
                self._dispatch(context, token, table)
            span.annotate(tokens=token_count)
        with tracer.span("engine.finish", file=filename):
            self._finish(context, table)
            run_hooks(table.end_document, context)
        if links:
            context.links, context.anchors = page.links, page.anchors

        registry = get_registry()
        registry.inc("engine.documents")
        registry.inc("engine.dispatch.calls", context.hook_calls)
        registry.gauge_max("engine.stack.high_water", context.stack_high_water)
        return context

    # -- dispatch ----------------------------------------------------------------

    def _dispatch(
        self, context: CheckContext, token, table: DispatchTable
    ) -> None:
        if isinstance(token, StartTag):
            self._start_tag(context, token, table)
        elif isinstance(token, EndTag):
            self._end_tag(context, token, table)
        elif isinstance(token, Text):
            self._text(context, token, table)
        elif isinstance(token, Comment):
            table.run_hooks(table.comment, context, token)
        elif isinstance(token, Declaration):
            if token.is_doctype and not context.seen_any_element:
                context.seen_doctype = True
            table.run_hooks(table.declaration, context, token)
        elif isinstance(token, ProcessingInstruction):
            pass  # tolerated, never checked

    # -- start tags ---------------------------------------------------------------

    def _start_tag(
        self, context: CheckContext, tag: StartTag, table: DispatchTable
    ) -> None:
        name = tag.lowered
        if not name:
            return
        line = tag.line

        # Lexical anomalies attached to the tag by the tokenizer.
        if tag.has_issue(LexicalIssue.WHITESPACE_AFTER_LT):
            context.emit("leading-whitespace", line=line, element=tag.name.upper())
        if tag.has_issue(LexicalIssue.ODD_QUOTES):
            context.emit("odd-quotes", line=line, tag=_tag_excerpt(tag))
        if tag.has_issue(LexicalIssue.UNCLOSED_TAG):
            context.emit("unterminated-tag", line=line, element=tag.name)

        elem = self._resolve_element(context, tag)

        if not context.seen_any_element:
            context.seen_any_element = True
            context.first_element_name = name

        # Implicit closes (LI closes LI, block elements close P, ...).
        if elem is not None and elem.closes:
            while context.stack and context.stack[-1].name in elem.closes:
                closed = context.stack.pop()
                self._element_closed(context, closed, None, True, table)

        # This tag is content for whatever is now open.
        context.note_child()

        # Structural checks that need the stack.
        self._check_context(context, tag, elem)
        self._check_excludes(context, tag, elem)
        self._check_once_only(context, tag, elem)
        self._check_head_element(context, tag, elem)
        self._check_required_attributes(context, tag, elem)

        if name == "body":
            context.seen_body_open = True
        if name == "title":
            context.seen_title = True
        context.history.setdefault(name, line)

        if tag.self_closing:
            context.emit("self-closing-tag", line=line, element=tag.name)

        open_element: Optional[OpenElement] = None
        pushed = (
            (elem is None or elem.container)
            and not tag.self_closing
        )
        if pushed:
            open_element = OpenElement(
                name=name, tag=tag, line=line, elem=elem
            )
            context.push(open_element)

        handlers = table.start_tag.get(name)
        if handlers is None:
            handlers = table.start_tag_any
        table.run_hooks(handlers, context, tag, elem)

    def _resolve_element(
        self, context: CheckContext, tag: StartTag
    ) -> Optional[ElementDef]:
        """Look the element up, reporting unknown / vendor markup."""
        name = tag.lowered
        elem = self.spec.element(name)
        if elem is not None:
            return elem
        if context.options.is_custom_element(name):
            return None
        vendor = self._vendor_of(name)
        if vendor == "netscape":
            context.emit("netscape-markup", line=tag.line, element=tag.name.upper())
            return None
        if vendor == "microsoft":
            context.emit("microsoft-markup", line=tag.line, element=tag.name.upper())
            return None
        suggestion = ""
        if self.cascade_heuristics:
            candidate = self.spec.suggest_element(name)
            if candidate is not None:
                suggestion = f' - did you mean <{candidate.upper()}>?'
        context.emit(
            "unknown-element",
            line=tag.line,
            element=tag.name.upper(),
            suggestion=suggestion,
        )
        return None

    def _vendor_of(self, name: str) -> Optional[str]:
        """Which vendor, if any, owns this element *exclusively*.

        An element counts as vendor markup only when it exists in the
        vendor spec but not in standard HTML 4.0 -- SPAN under an HTML
        3.2 check is "too new", not "Netscape specific".
        """
        for vendor, vendor_only in self._vendor_specs:
            if name in vendor_only:
                return vendor
        return None

    def _check_context(
        self, context: CheckContext, tag: StartTag, elem: Optional[ElementDef]
    ) -> None:
        if elem is None or elem.allowed_in is None:
            return
        parent = context.top
        if parent is None:
            # No open parent at all: html-outer / require-head style
            # messages cover this; repeating it per element is a cascade.
            return
        if parent.name in elem.allowed_in:
            return
        if parent.elem is None:
            return  # unknown parent: don't guess
        legal = " or ".join(f"<{name.upper()}>" for name in sorted(elem.allowed_in))
        context.emit(
            "required-context",
            line=tag.line,
            element=tag.name.upper(),
            requirement=f"must appear in {legal} element",
        )

    def _check_excludes(
        self, context: CheckContext, tag: StartTag, elem: Optional[ElementDef]
    ) -> None:
        name = tag.lowered
        for ancestor in reversed(context.stack):
            if ancestor.elem is None:
                continue
            if name in ancestor.elem.excludes:
                if ancestor.name == name:
                    context.emit(
                        "nested-element",
                        line=tag.line,
                        element=tag.name.upper(),
                        open_line=ancestor.line,
                    )
                else:
                    context.emit(
                        "required-context",
                        line=tag.line,
                        element=tag.name.upper(),
                        requirement=f"not allowed inside <{ancestor.name.upper()}>",
                    )
                return

    def _check_once_only(
        self, context: CheckContext, tag: StartTag, elem: Optional[ElementDef]
    ) -> None:
        if elem is None or not elem.once_per_document:
            return
        name = tag.lowered
        if name in context.history:
            context.emit(
                "once-only",
                line=tag.line,
                element=tag.name.upper(),
                first_line=context.history[name],
            )

    def _check_head_element(
        self, context: CheckContext, tag: StartTag, elem: Optional[ElementDef]
    ) -> None:
        if elem is None or not elem.is_head:
            return
        if tag.lowered in ("head", "script"):
            return
        if context.seen_body_open or context.seen_head_close:
            context.emit("head-element", line=tag.line, element=tag.name.upper())

    def _check_required_attributes(
        self, context: CheckContext, tag: StartTag, elem: Optional[ElementDef]
    ) -> None:
        if elem is None:
            return
        for attr_name in elem.required_attributes():
            if tag.lowered == "img" and attr_name == "alt":
                continue  # ImageRule owns img-alt wording
            if not tag.has_attribute(attr_name):
                context.emit(
                    "required-attribute",
                    line=tag.line,
                    attribute=attr_name.upper(),
                    element=tag.name.upper(),
                )

    # -- end tags --------------------------------------------------------------------

    def _end_tag(
        self, context: CheckContext, tag: EndTag, table: DispatchTable
    ) -> None:
        name = tag.lowered
        if not name:
            return
        line = tag.line

        if tag.has_issue(LexicalIssue.ATTRIBUTES_IN_END_TAG):
            context.emit("closing-attribute", line=line, element=tag.name.upper())
        if tag.has_issue(LexicalIssue.UNCLOSED_TAG):
            context.emit("unterminated-tag", line=line, element="/" + tag.name)

        handlers = table.end_tag.get(name)
        if handlers is None:
            handlers = table.end_tag_any
        table.run_hooks(handlers, context, tag)

        if name == "head":
            context.seen_head_close = True
        context.last_end_tag_name = name

        elem = self.spec.element(name)

        # Heading mismatch heuristic: </H2> closing an open <H1>.
        if self.cascade_heuristics and name in _HEADINGS:
            top = context.top
            if top is not None and top.name in _HEADINGS and top.name != name:
                context.emit(
                    "heading-mismatch",
                    line=line,
                    open_heading=top.name.upper(),
                    close_heading=tag.name.upper(),
                )
                closed = context.stack.pop()
                self._element_closed(context, closed, tag, False, table)
                return

        if elem is not None and elem.empty:
            context.emit("illegal-closing", line=line, element=tag.name.upper())
            return

        index = context.find_open(name)
        if index == -1:
            self._unmatched_end_tag(context, tag, elem, table)
            return

        # Unwind everything above the match, then close the match itself.
        matched = context.stack[index]
        skipped = context.stack[index + 1 :]
        del context.stack[index:]
        for entry in reversed(skipped):
            self._skipped_element(context, tag, elem, entry, table)
        self._element_closed(context, matched, tag, False, table)

    def _unmatched_end_tag(
        self,
        context: CheckContext,
        tag: EndTag,
        elem: Optional[ElementDef],
        table: DispatchTable,
    ) -> None:
        name = tag.lowered
        unresolved_index = context.find_unresolved(name)
        if unresolved_index != -1:
            entry = context.unresolved.pop(unresolved_index)
            self._element_closed(context, entry, tag, False, table)
            return
        if elem is None and not context.options.is_custom_element(name):
            suggestion = ""
            if self.cascade_heuristics:
                candidate = self.spec.suggest_element(name)
                if candidate is not None:
                    suggestion = f' - did you mean </{candidate.upper()}>?'
            context.emit(
                "unknown-element",
                line=tag.line,
                element="/" + tag.name.upper(),
                suggestion=suggestion,
            )
            return
        context.emit("illegal-closing", line=tag.line, element=tag.name.upper())

    def _skipped_element(
        self,
        context: CheckContext,
        tag: EndTag,
        closing_elem: Optional[ElementDef],
        entry: OpenElement,
        table: DispatchTable,
    ) -> None:
        """Handle one element skipped over by an end tag deeper in the stack."""
        name = tag.lowered
        if entry.elem is None or entry.elem.optional_end:
            self._element_closed(context, entry, tag, True, table)
            return
        parental = (
            entry.elem.allowed_in is not None and name in entry.elem.allowed_in
        )
        structural = closing_elem is not None and (
            closing_elem.is_block
            or closing_elem.is_head
            or closing_elem.once_per_document
        )
        if not self.cascade_heuristics:
            # Naive mode: every skipped strict container is an overlap.
            parental = structural = False
        if parental or structural:
            context.emit(
                "unclosed-element",
                line=tag.line,
                element=entry.name.upper(),
                open_line=entry.line,
            )
            self._element_closed(context, entry, tag, True, table)
        else:
            context.emit(
                "overlapped-element",
                line=tag.line,
                closed=tag.name.upper(),
                close_line=tag.line,
                open_element=entry.name.upper(),
                open_line=entry.line,
            )
            if self.cascade_heuristics:
                context.unresolved.append(entry)
            else:
                self._element_closed(context, entry, tag, True, table)

    # -- shared close path ------------------------------------------------------------

    def _element_closed(
        self,
        context: CheckContext,
        entry: OpenElement,
        end_tag: Optional[EndTag],
        implicit: bool,
        table: DispatchTable,
    ) -> None:
        if (
            not implicit
            and entry.elem is not None
            and entry.elem.container
            and not entry.had_content
            and entry.name not in ("script", "style", "textarea", "td", "th")
        ):
            line = end_tag.line if end_tag is not None else entry.line
            context.emit("empty-container", line=line, element=entry.name.upper())
        handlers = table.element_closed.get(entry.name)
        if handlers is None:
            handlers = table.element_closed_any
        table.run_hooks(handlers, context, entry, end_tag, implicit)

    # -- text -----------------------------------------------------------------------------

    def _text(
        self, context: CheckContext, token: Text, table: DispatchTable
    ) -> None:
        if token.has_issue(LexicalIssue.EMPTY_TAG):
            context.emit("empty-tag", line=token.line)
        context.note_text(token.text)
        table.run_hooks(table.text, context, token)

    # -- end of document ---------------------------------------------------------------------

    def _finish(self, context: CheckContext, table: DispatchTable) -> None:
        while context.stack:
            entry = context.stack.pop()
            if entry.elem is not None and entry.elem.strict_container:
                context.emit(
                    "unclosed-element",
                    line=context.last_line,
                    element=entry.name.upper(),
                    open_line=entry.line,
                )
            self._element_closed(context, entry, None, True, table)
        while context.unresolved:
            entry = context.unresolved.pop()
            self._element_closed(context, entry, None, True, table)
