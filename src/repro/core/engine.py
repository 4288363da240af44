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
hooks -- and, for tag hooks, which element names or attributes -- they
care about.  Each token costs one lookup by its kind, and each tag one
lookup of its element's compiled plan, instead of invoking every rule
for every token; an event no rule claims costs no hook call at all.
Tokens are consumed from the tokenizer's streaming
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
    TokenKind,
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
        # The per-kind handlers: one lookup by token class per token.
        self._by_kind = {
            TokenKind.START_TAG: self._start_tag,
            TokenKind.END_TAG: self._end_tag,
            TokenKind.TEXT: self._text,
            TokenKind.COMMENT: self._comment,
            TokenKind.DECLARATION: self._declaration,
            TokenKind.PI: self._processing_instruction,
        }
        self._by_type = {
            cls: self._by_kind[cls.kind]
            for cls in (StartTag, EndTag, Text, Comment, Declaration, ProcessingInstruction)
        }

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

        with tracer.span("engine.dispatch", file=filename) as span:
            if table.start_document:
                table.run_hooks(table.start_document, context)
            by_type = self._by_type
            token_count = 0
            for token in tokens:
                token_count += 1
                context.last_line = token.line
                handle = by_type.get(token.__class__)
                if handle is None:  # a token subclass: go by its kind
                    handle = self._by_kind[token.kind]
                handle(context, token, table)
            span.annotate(tokens=token_count)
        with tracer.span("engine.finish", file=filename):
            self._finish(context, table)
            if table.end_document:
                table.run_hooks(table.end_document, context)
        if links:
            context.links, context.anchors = page.links, page.anchors

        registry = get_registry()
        registry.inc("engine.documents")
        registry.inc("engine.dispatch.calls", context.hook_calls)
        registry.gauge_max("engine.stack.high_water", context.stack_high_water)
        return context

    # -- start tags ---------------------------------------------------------------

    def _start_tag(
        self, context: CheckContext, tag: StartTag, table: DispatchTable
    ) -> None:
        name = tag.name.lower()
        if not name:
            return
        line = tag.line

        # Lexical anomalies attached to the tag by the tokenizer.
        if tag.issues:
            self._tag_issues(context, tag)

        plan = table.elements.get(name)
        if plan is None:
            plan = table.unknown
        elem = plan.elem
        if elem is None:
            self._unknown_element(context, tag, name)

        first = not context.seen_any_element
        if first:
            context.seen_any_element = True
            context.first_element_name = name

        # Implicit closes (LI closes LI, block elements close P, ...).
        stack = context.stack
        closes = plan.closes
        if closes:
            while stack and stack[-1].name in closes:
                self._element_closed(context, context.pop(), None, True, table)

        # This tag is content for whatever is now open.
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.had_content = True

        # Structural checks that need the stack.
        if (
            plan.legal_parents is not None
            and parent is not None
            and parent.name not in plan.legal_parents
            # An unknown parent: don't guess.  No parent at all:
            # html-outer / require-head cover it; repeating it per
            # element is a cascade.
            and parent.elem is not None
        ):
            context.emit(
                "required-context",
                line=line,
                element=tag.name.upper(),
                requirement=plan.requirement,
            )
        ancestor = context.excluder_of(name)
        if ancestor is not None:
            if ancestor.name == name:
                context.emit(
                    "nested-element",
                    line=line,
                    element=tag.name.upper(),
                    open_line=ancestor.line,
                )
            else:
                context.emit(
                    "required-context",
                    line=line,
                    element=tag.name.upper(),
                    requirement=f"not allowed inside <{ancestor.name.upper()}>",
                )
        history = context.history
        if plan.once_only and name in history:
            context.emit(
                "once-only",
                line=line,
                element=tag.name.upper(),
                first_line=history[name],
            )
        if plan.head_check and (context.seen_body_open or context.seen_head_close):
            context.emit("head-element", line=line, element=tag.name.upper())
        for attr_name in plan.required:
            if not tag.has_attribute(attr_name):
                context.emit(
                    "required-attribute",
                    line=line,
                    attribute=attr_name.upper(),
                    element=tag.name.upper(),
                )

        if name == "body":
            context.seen_body_open = True
        elif name == "title":
            context.seen_title = True
        if name not in history:
            history[name] = line

        if tag.self_closing:
            context.emit("self-closing-tag", line=line, element=tag.name)
        elif elem is None or not elem.empty:
            context.push(OpenElement(name=name, tag=tag, line=line, elem=elem))

        attributes = tag.attributes
        hooks = plan.attributed_hooks if attributes else plan.start_hooks
        if first:
            hooks = table.claimed_start_hooks(plan, tag, True)
        elif attributes and table.claimed_attributes:
            claimed = table.claimed_attributes
            for attr in attributes:
                if attr.name.lower() in claimed:
                    hooks = table.claimed_start_hooks(plan, tag, False)
                    break
        if hooks:
            table.run_hooks(hooks, context, tag, elem)

    def _tag_issues(self, context: CheckContext, tag: StartTag) -> None:
        line = tag.line
        if tag.has_issue(LexicalIssue.WHITESPACE_AFTER_LT):
            context.emit("leading-whitespace", line=line, element=tag.name.upper())
        if tag.has_issue(LexicalIssue.ODD_QUOTES):
            context.emit("odd-quotes", line=line, tag=_tag_excerpt(tag))
        if tag.has_issue(LexicalIssue.UNCLOSED_TAG):
            context.emit("unterminated-tag", line=line, element=tag.name)

    def _unknown_element(
        self, context: CheckContext, tag: StartTag, name: str
    ) -> None:
        """Report a name the spec does not define (unknown / vendor markup)."""
        if context.options.is_custom_element(name):
            return
        vendor = self._vendor_of(name)
        if vendor == "netscape":
            context.emit("netscape-markup", line=tag.line, element=tag.name.upper())
            return
        if vendor == "microsoft":
            context.emit("microsoft-markup", line=tag.line, element=tag.name.upper())
            return
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

    # -- end tags --------------------------------------------------------------------

    def _end_tag(
        self, context: CheckContext, tag: EndTag, table: DispatchTable
    ) -> None:
        name = tag.name.lower()
        if not name:
            return
        line = tag.line

        if tag.issues:
            if tag.has_issue(LexicalIssue.ATTRIBUTES_IN_END_TAG):
                context.emit("closing-attribute", line=line, element=tag.name.upper())
            if tag.has_issue(LexicalIssue.UNCLOSED_TAG):
                context.emit("unterminated-tag", line=line, element="/" + tag.name)

        plan = table.elements.get(name)
        if plan is None:
            plan = table.unknown
        if plan.end_hooks:
            table.run_hooks(plan.end_hooks, context, tag)

        if name == "head":
            context.seen_head_close = True
        context.last_end_tag_name = name

        elem = plan.elem

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
                self._element_closed(context, context.pop(), tag, False, table)
                return

        if elem is not None and elem.empty:
            context.emit("illegal-closing", line=line, element=tag.name.upper())
            return

        index = context.find_open(name)
        if index == -1:
            self._unmatched_end_tag(context, tag, elem, table)
            return

        # Unwind everything above the match, then close the match itself.
        removed = context.pop_to(index)
        for entry in reversed(removed[1:]):
            self._skipped_element(context, tag, elem, entry, table)
        self._element_closed(context, removed[0], tag, False, table)

    def _unmatched_end_tag(
        self,
        context: CheckContext,
        tag: EndTag,
        elem: Optional[ElementDef],
        table: DispatchTable,
    ) -> None:
        name = tag.lowered
        entry = context.unpark(name)
        if entry is not None:
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
                context.park(entry)
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
        plan = table.elements.get(entry.name)
        if plan is None:
            plan = table.unknown
        if not implicit and not entry.had_content and plan.empty_check:
            line = end_tag.line if end_tag is not None else entry.line
            context.emit("empty-container", line=line, element=entry.name.upper())
        if plan.closed_hooks:
            table.run_hooks(plan.closed_hooks, context, entry, end_tag, implicit)

    # -- text, comments, declarations -------------------------------------------------

    def _text(
        self, context: CheckContext, token: Text, table: DispatchTable
    ) -> None:
        if token.issues:
            if token.has_issue(LexicalIssue.EMPTY_TAG):
                context.emit("empty-tag", line=token.line)
            hooks = table.text
        else:
            hooks = table.text if token.entities else table.plain_text
        context.note_text(token.text)
        if hooks:
            table.run_hooks(hooks, context, token)

    def _comment(
        self, context: CheckContext, token: Comment, table: DispatchTable
    ) -> None:
        if table.comment:
            table.run_hooks(table.comment, context, token)

    def _declaration(
        self, context: CheckContext, token: Declaration, table: DispatchTable
    ) -> None:
        if token.is_doctype and not context.seen_any_element:
            context.seen_doctype = True
        if table.declaration:
            table.run_hooks(table.declaration, context, token)

    def _processing_instruction(
        self, context: CheckContext, token: ProcessingInstruction, table: DispatchTable
    ) -> None:
        """Tolerated, never checked."""

    # -- end of document ---------------------------------------------------------------------

    def _finish(self, context: CheckContext, table: DispatchTable) -> None:
        while context.stack:
            entry = context.pop()
            if entry.elem is not None and entry.elem.strict_container:
                context.emit(
                    "unclosed-element",
                    line=context.last_line,
                    element=entry.name.upper(),
                    open_line=entry.line,
                )
            self._element_closed(context, entry, None, True, table)
        while context.unresolved:
            self._element_closed(context, context.unpark(), None, True, table)
