"""Compiled event-dispatch tables.

The seed engine invoked all 12 rules' hooks for *every* token -- the
"one big loop" shape the paper's weblint 2 rewrite exists to escape.
This module compiles a rule set's subscriptions (see
:mod:`repro.core.rules.base`) into an immutable :class:`DispatchTable`:
one handler tuple per hook, with per-element-name fan-out maps (plus a
wildcard bucket) for the tag-keyed hooks, folded with the spec's
structural flags into one :class:`ElementPlan` per element name.  Rules
that claim attributes (``"[style]"``, ``"[*]"``) or the first tag
(``":first"``) join a tag's handlers only when the tag matches, and
text claims leave plain text runs alone.  The engine then walks a token
stream doing one dict lookup per tag instead of ``O(rules)`` no-op
calls, and no call at all for an event nothing claims.

Tables are cached per ``(spec, options-fingerprint, ruleset)`` so the
``Weblint`` facade, ``sitecheck``, the gateway and ``poacher`` compile
once and reuse the same table across thousands of documents.  The cache
key includes the rule *instances* (tables hold bound methods), so a
long-lived checker hits the cache on every document.

Profiling happens here, per hook invocation
(:meth:`DispatchTable.run_hooks`) -- the one profiling path: no rule is
wrapped and the engine's shared rule list is never swapped mid-check.
All per-check state lives in the :class:`~repro.core.context.CheckContext`,
so one engine can serve interleaved or nested checks.

Metrics (see docs/observability.md):

- ``engine.dispatch.calls`` -- rule-hook invocations, incremented once
  per document with the count accumulated in ``context.hook_calls``.
  The acceptance bar for the compiled pipeline is that this stays
  strictly below ``rules x tokens``.
- ``engine.dispatch.tables.compiled`` / ``...tables.cached`` -- table
  compilations vs cache hits.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple, Optional, Sequence

from repro.config.options import Options
from repro.core.context import CheckContext
from repro.core.rules.base import ANY_TAG, HOOK_NAMES, Rule, split_interest
from repro.html.spec import ElementDef, HTMLSpec
from repro.html.tokens import StartTag
from repro.obs.metrics import get_registry

#: One compiled handler: ``(rule_name, bound_hook_method)``.  The name
#: rides along so per-hook profiling can attribute time without a wrapper.
Handler = tuple[str, Callable]

#: Containers that may legitimately close with no content.
_MAY_BE_EMPTY = frozenset({"script", "style", "textarea", "td", "th"})

#: Bound on memoised claimed-start-tag tuples per table (distinct
#: element x matched-claims combinations).
_CLAIMED_HOOKS_MAX = 4096


class ElementPlan:
    """Everything the engine does for one element name, resolved once.

    The compiled table holds one plan per element the spec defines or a
    rule names, and one for every other (unknown) name: the element's
    definition, the structural checks it needs, and its handler tuples.
    So a start tag costs the engine one dict lookup, not a spec lookup
    plus one test per check.
    """

    __slots__ = (
        "name",
        "elem",
        "start_hooks",
        "attributed_hooks",
        "end_hooks",
        "closed_hooks",
        "closes",
        "legal_parents",
        "requirement",
        "once_only",
        "head_check",
        "required",
        "empty_check",
    )

    def __init__(
        self,
        name: Optional[str],
        elem: Optional[ElementDef],
        start_hooks: tuple[Handler, ...],
        attributed_hooks: tuple[Handler, ...],
        end_hooks: tuple[Handler, ...],
        closed_hooks: tuple[Handler, ...],
    ) -> None:
        self.name = name
        self.elem = elem
        #: Start-tag handlers for a tag without attributes / with some
        #: (the latter adds rules claiming ``"[*]"``).
        self.start_hooks = start_hooks
        self.attributed_hooks = attributed_hooks
        self.end_hooks = end_hooks
        self.closed_hooks = closed_hooks
        if elem is None:
            self.closes: frozenset[str] = frozenset()
            self.legal_parents: Optional[frozenset[str]] = None
            self.requirement = ""
            self.once_only = self.head_check = self.empty_check = False
            self.required: tuple[str, ...] = ()
            return
        self.closes = elem.closes
        self.legal_parents = elem.allowed_in
        self.requirement = ""
        if elem.allowed_in is not None:
            legal = " or ".join(f"<{parent.upper()}>" for parent in sorted(elem.allowed_in))
            self.requirement = f"must appear in {legal} element"
        self.once_only = elem.once_per_document
        self.head_check = elem.is_head and name not in ("head", "script")
        # ImageRule owns the img-alt wording.
        self.required = tuple(
            attr for attr in elem.required_attributes()
            if not (name == "img" and attr == "alt")
        )
        self.empty_check = elem.container and name not in _MAY_BE_EMPTY


class _StartEntry(NamedTuple):
    """One rule's start-tag subscription, split into its selectors."""

    handler: Handler
    elements: Optional[frozenset[str]]  # None: every element
    attributes: frozenset[str]          # claimed attributes; "*": any
    first: bool                         # claims the first start tag


class DispatchTable:
    """Immutable per-``(spec, options, ruleset)`` handler tables.

    For the tag-keyed hooks the table holds a dict mapping element name
    to the merged handler tuple (wildcard-subscribed rules and rules
    naming that element, in rule order); names absent from the dict fall
    back to the wildcard bucket.  Non-tag hooks are plain tuples.
    ``elements`` folds those per-name tuples and the spec's structural
    flags into one :class:`ElementPlan` per name (``unknown`` serves the
    rest).  Rules that claim attributes or the first tag are added at
    the tags they match by :meth:`claimed_start_hooks`.
    """

    __slots__ = (
        "rule_names",
        "start_document",
        "end_document",
        "text",
        "plain_text",
        "comment",
        "declaration",
        "start_tag",
        "start_tag_any",
        "end_tag",
        "end_tag_any",
        "element_closed",
        "element_closed_any",
        "elements",
        "unknown",
        "claimed_attributes",
        "_start_entries",
        "_claimed_hooks",
    )

    def __init__(
        self,
        spec: HTMLSpec,
        rule_names: tuple[str, ...],
        start_document: tuple[Handler, ...],
        end_document: tuple[Handler, ...],
        text: tuple[Handler, ...],
        plain_text: tuple[Handler, ...],
        comment: tuple[Handler, ...],
        declaration: tuple[Handler, ...],
        start_entries: tuple[_StartEntry, ...],
        end_tag: dict[str, tuple[Handler, ...]],
        end_tag_any: tuple[Handler, ...],
        element_closed: dict[str, tuple[Handler, ...]],
        element_closed_any: tuple[Handler, ...],
    ) -> None:
        self.rule_names = rule_names
        self.start_document = start_document
        self.end_document = end_document
        #: Text handlers for a run with entity references or issues /
        #: without (the latter leaves out rules that claim only those).
        self.text = text
        self.plain_text = plain_text
        self.comment = comment
        self.declaration = declaration
        self.start_tag, self.start_tag_any = _fan_out(
            [(entry.handler, entry.elements) for entry in start_entries]
        )
        self.end_tag = end_tag
        self.end_tag_any = end_tag_any
        self.element_closed = element_closed
        self.element_closed_any = element_closed_any
        self._start_entries = start_entries
        self._claimed_hooks: dict[tuple, tuple[Handler, ...]] = {}
        #: Attribute names some rule claims by name (``"[*]"`` excluded).
        self.claimed_attributes = frozenset(
            name for entry in start_entries for name in entry.attributes
        ) - {ANY_TAG}
        names = set(spec.elements) | set(self.start_tag) | set(end_tag)
        names.update(element_closed)
        self.elements = {name: self._plan(name, spec.elements.get(name)) for name in names}
        self.unknown = self._plan(None, None)

    def _plan(self, name: Optional[str], elem: Optional[ElementDef]) -> ElementPlan:
        return ElementPlan(
            name,
            elem,
            self.start_tag.get(name, self.start_tag_any),
            tuple(
                entry.handler
                for entry in self._start_entries
                if entry.elements is None
                or name in entry.elements
                or ANY_TAG in entry.attributes
            ),
            self.end_tag.get(name, self.end_tag_any),
            self.element_closed.get(name, self.element_closed_any),
        )

    def claimed_start_hooks(
        self, plan: ElementPlan, tag: StartTag, first: bool
    ) -> tuple[Handler, ...]:
        """Start-tag handlers for ``tag``, attribute and first-tag claims
        included, in rule order.

        The engine calls this only for the document's first start tag
        and for tags that carry a claimed attribute; results are
        memoised per element, matched claims and first-ness.
        """
        matched = set()
        if tag.attributes:
            matched.add(ANY_TAG)
            claimed = self.claimed_attributes
            for attr in tag.attributes:
                lowered = attr.name.lower()
                if lowered in claimed:
                    matched.add(lowered)
        key = (plan.name, frozenset(matched), first)
        hooks = self._claimed_hooks.get(key)
        if hooks is None:
            hooks = tuple(
                entry.handler
                for entry in self._start_entries
                if entry.elements is None
                or plan.name in entry.elements
                or (first and entry.first)
                or not entry.attributes.isdisjoint(matched)
            )
            # Concurrent checks may race here; each stores the same tuple.
            if len(self._claimed_hooks) < _CLAIMED_HOOKS_MAX:
                self._claimed_hooks[key] = hooks
        return hooks

    # -- invocation --------------------------------------------------------

    @staticmethod
    def run_hooks(
        handlers: tuple[Handler, ...], context: CheckContext, *args
    ) -> None:
        """Invoke ``handlers`` in order; time each one when profiling.

        ``context.profiler`` is resolved once per check by the engine;
        ``context.hook_calls`` accumulates the per-document invocation
        count that feeds the ``engine.dispatch.calls`` metric.  The
        engine never passes an empty tuple.
        """
        if not handlers:
            return
        context.hook_calls += len(handlers)
        profiler = context.profiler
        if profiler is None:
            for handler in handlers:
                handler[1](context, *args)
        else:
            add = profiler.add
            clock = time.perf_counter
            for rule_name, hook in handlers:
                started = clock()
                hook(context, *args)
                add(rule_name, clock() - started)

    # -- introspection -----------------------------------------------------

    def handler_counts(self) -> dict[str, int]:
        """Handlers per hook (wildcard bucket for tag-keyed hooks)."""
        return {
            "start_document": len(self.start_document),
            "handle_start_tag": len(self.start_tag_any),
            "handle_end_tag": len(self.end_tag_any),
            "handle_element_closed": len(self.element_closed_any),
            "handle_text": len(self.text),
            "handle_comment": len(self.comment),
            "handle_declaration": len(self.declaration),
            "end_document": len(self.end_document),
        }


def _fan_out(
    entries: list[tuple[Handler, Optional[frozenset[str]]]],
) -> tuple[dict[str, tuple[Handler, ...]], tuple[Handler, ...]]:
    """Per-element handler tuples plus the wildcard bucket, in rule order."""
    wildcard = tuple(handler for handler, names in entries if names is None)
    named: set[str] = set()
    for _, names in entries:
        if names is not None:
            named.update(names)
    table = {
        element: tuple(
            handler for handler, names in entries if names is None or element in names
        )
        for element in named
    }
    return table, wildcard


def compile_table(
    spec: HTMLSpec,
    options: Options,
    rules: Sequence[Rule],
    *,
    naive: bool = False,
) -> DispatchTable:
    """Compile ``rules``' subscriptions into a :class:`DispatchTable`.

    With ``naive=True`` every rule is attached to every hook with a
    wildcard -- the seed engine's call-everything behaviour.  The naive
    table exists for the golden equivalence test and the before/after
    benchmark, not for production use.
    """
    per_hook: dict[str, list[tuple[Handler, Optional[frozenset[str]]]]] = {
        hook: [] for hook in HOOK_NAMES
    }
    for rule in rules:
        if naive:
            interests = {hook: None for hook in HOOK_NAMES}
        else:
            interests = rule.subscriptions(spec, options)
        for hook, interest in interests.items():
            per_hook[hook].append(((rule.name, getattr(rule, hook)), interest))

    def flat(hook: str) -> tuple[Handler, ...]:
        return tuple(handler for handler, _ in per_hook[hook])

    start_entries = []
    for handler, interest in per_hook["handle_start_tag"]:
        if interest is None:
            start_entries.append(_StartEntry(handler, None, frozenset(), False))
        else:
            start_entries.append(_StartEntry(handler, *split_interest(interest)))
    end_tag, end_tag_any = _fan_out(per_hook["handle_end_tag"])
    element_closed, element_closed_any = _fan_out(per_hook["handle_element_closed"])
    return DispatchTable(
        spec,
        rule_names=tuple(rule.name for rule in rules),
        start_document=flat("start_document"),
        end_document=flat("end_document"),
        text=flat("handle_text"),
        plain_text=tuple(
            handler for handler, interest in per_hook["handle_text"] if interest is None
        ),
        comment=flat("handle_comment"),
        declaration=flat("handle_declaration"),
        start_entries=tuple(start_entries),
        end_tag=end_tag,
        end_tag_any=end_tag_any,
        element_closed=element_closed,
        element_closed_any=element_closed_any,
    )


# -- the table cache --------------------------------------------------------

#: Compiled tables keyed by (spec id, options fingerprint, rule ids).
#: Values hold strong references to the rule instances (through
#: their bound methods), which pins the ids in the key while the entry
#: lives.  Bounded FIFO keeps pathological churn (a new Weblint per
#: document) from growing without limit.
_TABLE_CACHE: dict[tuple, DispatchTable] = {}
_TABLE_CACHE_MAX = 64


def get_table(
    spec: HTMLSpec, options: Options, rules: Sequence[Rule]
) -> DispatchTable:
    """Cached :func:`compile_table`; the per-document entry point."""
    key = (id(spec), options.fingerprint(), tuple(id(rule) for rule in rules))
    table = _TABLE_CACHE.get(key)
    registry = get_registry()
    if table is not None:
        registry.inc("engine.dispatch.tables.cached")
        return table
    table = compile_table(spec, options, rules)
    registry.inc("engine.dispatch.tables.compiled")
    if len(_TABLE_CACHE) >= _TABLE_CACHE_MAX:
        _TABLE_CACHE.pop(next(iter(_TABLE_CACHE)))
    _TABLE_CACHE[key] = table
    return table


def clear_table_cache() -> None:
    """Drop every cached table (tests; reconfiguration at runtime)."""
    _TABLE_CACHE.clear()
