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
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class OpenElement:
    """One entry on the main (or secondary) stack."""

    name: str                     # lower-cased element name
    tag: StartTag                 # the start tag as written
    line: int
    elem: Optional[ElementDef]    # None for unknown/custom elements
    had_content: bool = False
    text_parts: list[str] = field(default_factory=list)

    @property
    def text(self) -> str:
        return "".join(self.text_parts)


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

        # The two stacks of section 5.1.
        self.stack: list[OpenElement] = []
        self.unresolved: list[OpenElement] = []

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
        self.stack.append(open_element)
        if len(self.stack) > self.stack_high_water:
            self.stack_high_water = len(self.stack)

    def find_open(self, name: str) -> int:
        """Index of the topmost open element with this name, or -1."""
        for index in range(len(self.stack) - 1, -1, -1):
            if self.stack[index].name == name:
                return index
        return -1

    def in_element(self, name: str) -> bool:
        return self.find_open(name) != -1

    def find_unresolved(self, name: str) -> int:
        for index in range(len(self.unresolved) - 1, -1, -1):
            if self.unresolved[index].name == name:
                return index
        return -1

    # -- content tracking ------------------------------------------------------------

    def note_child(self) -> None:
        """Record that the current open element received a child element."""
        if self.top is not None:
            self.top.had_content = True

    def note_text(self, text: str) -> None:
        """Record text content.

        Whitespace-only runs do not count as content (an element holding
        only a newline is still "empty" for the empty-container check) but
        are still accumulated for text-tracked elements, because rules
        like container-whitespace care about it.
        """
        if self.top is not None and text.strip():
            self.top.had_content = True
        for entry in self.stack:
            if entry.name in TEXT_TRACKED_ELEMENTS:
                entry.text_parts.append(text)

    # -- results ------------------------------------------------------------------------

    def sorted_diagnostics(self) -> list[Diagnostic]:
        """Diagnostics in document order (stable within a line)."""
        return sorted(
            self.diagnostics, key=lambda d: (d.filename, d.line)
        )
