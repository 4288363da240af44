"""Check context -- the state the stack machine and rules share.

Paper section 5.1: "For each token type, a number of checks are made.
These may involve just the token itself, or its context, which can include
the current state of the stack, the secondary stack, and the history of
elements seen."

:class:`CheckContext` is exactly that context: the main stack of open
elements, the secondary (unresolved) stack, element history, plus the
document-level flags rules need (seen DOCTYPE, head/body phase ...) and
the :meth:`emit` gateway through which every diagnostic flows so that
configuration is enforced in one place.

Every stack mutation goes through the context (:meth:`push`, :meth:`pop`,
:meth:`pop_to`, :meth:`park`, :meth:`unpark`), which keeps three indexes
beside the stacks: the open elements by name, the open elements by each
name their content model excludes, and the parked elements by name.  So
"is an A open?", "which open element forbids this tag?" and "which
parked element does this end tag resolve?" cost one dict lookup however
deep the stack is.  Text is appended once to a shared buffer, and a
text-tracked element records where its text starts and ends in it, so
no token is copied into each open ancestor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config.options import Options
from repro.core.diagnostics import Diagnostic
from repro.obs.profile import get_profiler
from repro.html.links import Link
from repro.html.spec import ElementDef, HTMLSpec
from repro.html.tokens import StartTag

#: Elements whose text content the context accumulates, because some rule
#: needs to look at it (anchor text, title text, heading text).
TEXT_TRACKED_ELEMENTS = frozenset(
    {"a", "title", "h1", "h2", "h3", "h4", "h5", "h6", "option", "textarea"}
)


@dataclass(eq=False, slots=True)
class OpenElement:
    """One entry on the main (or secondary) stack."""

    name: str                     # lower-cased element name
    tag: StartTag                 # the start tag as written
    line: int
    elem: Optional[ElementDef]    # None for unknown/custom elements
    had_content: bool = False
    #: Index on the main stack while the element is on it.
    depth: int = -1
    #: The check's text buffer and this element's span in it (text-tracked
    #: elements only; ``text_end`` is -1 while the element is open).
    texts: Optional[list[str]] = None
    text_start: int = 0
    text_end: int = -1

    @property
    def text(self) -> str:
        """The text that arrived while the element was on the main stack."""
        texts = self.texts
        if texts is None:
            return ""
        end = self.text_end if self.text_end >= 0 else len(texts)
        return "".join(texts[self.text_start:end])


class CheckContext:
    """Mutable state for checking one document."""

    def __init__(
        self,
        spec: HTMLSpec,
        options: Options,
        filename: str = "-",
    ) -> None:
        self.spec = spec
        self.options = options
        self.filename = filename
        self.diagnostics: list[Diagnostic] = []
        self.suppressed_count = 0
        #: The page's links and anchors, when the check collected them.
        self.links: Optional[list[Link]] = None
        self.anchors: Optional[set[str]] = None

        # Effective enabled set.  Starts as the configured set; inline
        # configuration comments (<!-- weblint: disable x -->) adjust it
        # mid-document, with a push/pop stack for scoped overrides --
        # the paper's section 6.1 "page-specific configuration" plan.
        self.enabled_now: set[str] = set(options.enabled)
        self._enabled_stack: list[set[str]] = []

        # The two stacks of section 5.1.  The secondary stack is a dict
        # used as an ordered set, so a resolved entry leaves it in O(1).
        self.stack: list[OpenElement] = []
        self.unresolved: dict[OpenElement, None] = {}
        # Indexes kept by push/pop/park/unpark (see the module docstring).
        self._open: dict[str, list[OpenElement]] = {}
        self._excluding: dict[str, list[OpenElement]] = {}
        self._parked: dict[str, list[OpenElement]] = {}
        # Every text run of the document, in order.
        self._texts: list[str] = []

        # History: first line each element name was seen on.
        self.history: dict[str, int] = {}

        # Document phase flags.
        self.seen_doctype = False
        self.seen_any_element = False
        self.first_element_name: Optional[str] = None
        self.last_end_tag_name: Optional[str] = None
        self.seen_head_close = False
        self.seen_body_open = False
        self.seen_title = False
        self.title_text: Optional[str] = None
        self.last_heading_level: Optional[int] = None
        self.ids_seen: dict[str, int] = {}
        self.last_line = 1

        # Scratch space rules may use to coordinate (keyed by rule name).
        self.scratch: dict[str, object] = {}

        # Deepest the main stack got; the engine reports it to the
        # metrics registry (engine.stack.high_water) after the check.
        self.stack_high_water = 0

        # Dispatch bookkeeping: the profiler active for this check
        # (resolved once at construction, so profiling state is
        # per-invocation) and the rule-hook invocation count that feeds
        # the engine.dispatch.calls metric.
        self.profiler = get_profiler()
        self.hook_calls = 0

    # -- emission ----------------------------------------------------------------

    def emit(self, message_id: str, *, line: int, column: int = 0, **arguments: object) -> bool:
        """Emit a diagnostic if the message is enabled.

        Returns True when the diagnostic was recorded; rules can use the
        result to avoid follow-on work.
        """
        if message_id not in self.enabled_now:
            self.suppressed_count += 1
            return False
        limit = self.options.stop_after
        if limit is not None and len(self.diagnostics) >= limit:
            self.suppressed_count += 1
            return False
        self.diagnostics.append(
            Diagnostic.build(
                message_id,
                line=line,
                column=column,
                filename=self.filename,
                **arguments,
            )
        )
        if self.profiler is not None:
            self.profiler.note_message(message_id)
        return True

    # -- inline configuration ------------------------------------------------------

    def enable_inline(self, identifiers: list[str]) -> None:
        """Apply an inline ``enable`` directive from this point on."""
        from repro.config.options import expand_identifier

        for identifier in identifiers:
            self.enabled_now.update(expand_identifier(identifier))

    def disable_inline(self, identifiers: list[str]) -> None:
        from repro.config.options import expand_identifier

        for identifier in identifiers:
            self.enabled_now.difference_update(expand_identifier(identifier))

    def push_enabled(self) -> None:
        self._enabled_stack.append(set(self.enabled_now))

    def pop_enabled(self) -> bool:
        """Restore the last pushed enabled set; False if none was pushed."""
        if not self._enabled_stack:
            return False
        self.enabled_now = self._enabled_stack.pop()
        return True

    # -- stack helpers -----------------------------------------------------------

    @property
    def top(self) -> Optional[OpenElement]:
        return self.stack[-1] if self.stack else None

    def push(self, open_element: OpenElement) -> None:
        stack = self.stack
        open_element.depth = len(stack)
        stack.append(open_element)
        if len(stack) > self.stack_high_water:
            self.stack_high_water = len(stack)
        name = open_element.name
        same = self._open.get(name)
        if same is None:
            self._open[name] = [open_element]
        else:
            same.append(open_element)
        elem = open_element.elem
        if elem is not None and elem.excludes:
            excluding = self._excluding
            for excluded in elem.excludes:
                excluding.setdefault(excluded, []).append(open_element)
        if name in TEXT_TRACKED_ELEMENTS:
            open_element.texts = self._texts
            open_element.text_start = len(self._texts)

    def pop(self) -> OpenElement:
        """Remove and return the top of the main stack."""
        open_element = self.stack.pop()
        self._leave(open_element)
        return open_element

    def pop_to(self, index: int) -> list[OpenElement]:
        """Remove ``stack[index:]``; returns it, bottom first."""
        removed = self.stack[index:]
        del self.stack[index:]
        for open_element in reversed(removed):
            self._leave(open_element)
        return removed

    def _leave(self, open_element: OpenElement) -> None:
        # Called top first, so each entry is the last of its index lists.
        self._open[open_element.name].pop()
        elem = open_element.elem
        if elem is not None and elem.excludes:
            excluding = self._excluding
            for excluded in elem.excludes:
                excluding[excluded].pop()
        if open_element.texts is not None:
            open_element.text_end = len(self._texts)

    def find_open(self, name: str) -> int:
        """Index of the topmost open element with this name, or -1."""
        same = self._open.get(name)
        return same[-1].depth if same else -1

    def in_element(self, name: str) -> bool:
        return bool(self._open.get(name))

    def excluder_of(self, name: str) -> Optional[OpenElement]:
        """The topmost open element whose content model excludes ``name``."""
        excluding = self._excluding.get(name)
        return excluding[-1] if excluding else None

    def park(self, open_element: OpenElement) -> None:
        """Put an element skipped by an overlap on the secondary stack."""
        self.unresolved[open_element] = None
        self._parked.setdefault(open_element.name, []).append(open_element)

    def unpark(self, name: Optional[str] = None) -> Optional[OpenElement]:
        """Take the last parked element named ``name`` (any name if None)."""
        if name is None:
            if not self.unresolved:
                return None
            open_element = next(reversed(self.unresolved))
            name = open_element.name
        else:
            parked = self._parked.get(name)
            if not parked:
                return None
            open_element = parked[-1]
        self._parked[name].pop()
        del self.unresolved[open_element]
        return open_element

    # -- content tracking ------------------------------------------------------------

    def note_text(self, text: str) -> None:
        """Record text content.

        Whitespace-only runs do not count as content (an element holding
        only a newline is still "empty" for the empty-container check) but
        are still part of text-tracked elements' text, because rules like
        container-whitespace care about it.
        """
        self._texts.append(text)
        stack = self.stack
        if stack and not stack[-1].had_content and text.strip():
            stack[-1].had_content = True

    def text_mark(self) -> int:
        """A position in the document's text, for :meth:`text_since`."""
        return len(self._texts)

    def text_since(self, mark: int) -> str:
        """All text that arrived after ``mark`` was taken."""
        return "".join(self._texts[mark:])

    # -- results ------------------------------------------------------------------------

    def sorted_diagnostics(self) -> list[Diagnostic]:
        """Diagnostics in document order (stable within a line)."""
        return sorted(
            self.diagnostics, key=lambda d: (d.filename, d.line)
        )
