"""Bounded site rollups: the streaming replacement for ``SiteReport``.

Paper section 3.5's Spot-style site summary was computed from a report
object holding every page's diagnostics.  At audit scale that object
*is* the memory wall, so the summary is split in two:

- :class:`SiteRollup` -- everything the renderers need, in O(1) memory
  per page: counters per category and message id, page totals, a
  bounded top-N "worst pages" selection (the same bounded-heap idea as
  the crawl stats' slowest-N fetches), link-graph aggregates and the
  navigation summary lines.  Rollups are mergeable, so shards of a
  partitioned audit fold into one report, and serialisable with sorted
  keys so a merged report is byte-stable.
- :class:`PageSpill` -- the full per-page diagnostics, appended to
  ``pages.jsonl`` as each page resolves.  The rollup keeps reports
  bounded; the spill keeps them complete.  Anything that needs
  per-page detail (drill-downs, diffing two audits) reads the spill;
  everything render-side works from the rollup alone.

``repro.tools.merge_shards`` combines per-shard rollups and spills into
one canonical report directory.
"""

from __future__ import annotations

import json
from bisect import insort
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.core.diagnostics import Diagnostic
from repro.core.messages import Category
from repro.store import JsonLog, write_atomic

#: How many worst pages a rollup keeps (mirrors SLOWEST_FETCHES_KEPT).
WORST_PAGES_KEPT = 10

#: Site-level message ids surfaced in the summary counts.
SITE_MESSAGES = ("bad-link", "bad-fragment", "orphan-page", "directory-index")

ROLLUP_VERSION = 1
ROLLUP_FILENAME = "rollup.json"
PAGES_FILENAME = "pages.jsonl"


def diagnostic_record(diagnostic: Diagnostic) -> dict[str, object]:
    """The spill-file shape of one diagnostic (filename lives on the
    enclosing page record, so it is not repeated per item)."""
    return {
        "id": diagnostic.message_id,
        "category": diagnostic.category.value,
        "line": diagnostic.line,
        "column": diagnostic.column,
        "message": diagnostic.text,
    }


class _WorstPages:
    """Bounded top-N ``(count, page)`` selection, largest counts first.

    Equal counts rank by *ascending* page path, so the listing is
    stable and readable.  The ordering also makes shard merges exact:
    pages partition across shards and each shard keeps its own top-N,
    so every page in the global top-N survives its shard's selection.
    """

    def __init__(self, keep: int = WORST_PAGES_KEPT) -> None:
        self.keep = keep
        self._items: list[tuple[int, str]] = []  # (-count, page), best first

    def push(self, page: str, count: int) -> None:
        if count <= 0:
            return
        insort(self._items, (-count, page))
        if len(self._items) > self.keep:
            self._items.pop()

    def ranked(self) -> list[tuple[int, str]]:
        """``(count, page)`` pairs, worst page first."""
        return [(-negative, page) for negative, page in self._items]


class SiteRollup:
    """A bounded, mergeable aggregate of one site audit."""

    def __init__(self, root: str, keep_worst: int = WORST_PAGES_KEPT) -> None:
        self.root = str(root)
        self.keep_worst = keep_worst
        self.pages = 0
        self.pages_with_problems = 0
        self.page_errors = 0
        self.total_messages = 0
        self.category_counts: dict[str, int] = {c.value: 0 for c in Category}
        self.message_counts: dict[str, int] = {}
        self.link_edges = 0
        self._worst = _WorstPages(keep_worst)
        #: Whole-graph navigation summary; only a checker that saw the
        #: complete site sets it (a shard's partial view would mislead).
        self.navigation_lines: Optional[list[str]] = None

    # -- incremental feeding -----------------------------------------

    def count_diagnostics(self, diagnostics: Iterable[Diagnostic]) -> int:
        """Tally diagnostics into the counters; returns how many."""
        n = 0
        for diagnostic in diagnostics:
            n += 1
            category = diagnostic.category.value
            self.category_counts[category] = (
                self.category_counts.get(category, 0) + 1
            )
            self.message_counts[diagnostic.message_id] = (
                self.message_counts.get(diagnostic.message_id, 0) + 1
            )
        self.total_messages += n
        return n

    def note_page(self, page: str, problem_count: int) -> None:
        """Record one checked page and its final message count."""
        self.pages += 1
        if problem_count:
            self.pages_with_problems += 1
            self._worst.push(page, problem_count)

    def add_page(self, page: str, diagnostics: Iterable[Diagnostic]) -> None:
        """The one-shot feed: tally and attribute in a single call."""
        self.note_page(page, self.count_diagnostics(diagnostics))

    def note_page_error(self, count: int = 1) -> None:
        self.page_errors += count

    def note_links(self, count: int = 1) -> None:
        self.link_edges += count

    # -- views ---------------------------------------------------------

    def count(self, message_id: str) -> int:
        return self.message_counts.get(message_id, 0)

    def worst_pages(self) -> list[tuple[int, str]]:
        """``(count, page)`` for the kept worst pages, worst first."""
        return self._worst.ranked()

    def counts(self) -> dict[str, int]:
        """The summary table, in the classic ``_counts`` key order."""
        table = {
            "pages": self.pages,
            "pages with problems": self.pages_with_problems,
            "total messages": self.total_messages,
        }
        for category in Category:
            table[f"{category.value}s"] = self.category_counts.get(
                category.value, 0
            )
        for message_id in SITE_MESSAGES:
            table[message_id] = self.count(message_id)
        return table

    @classmethod
    def from_report(
        cls,
        report,
        keep_worst: int = WORST_PAGES_KEPT,
        navigation: bool = True,
    ) -> "SiteRollup":
        """Roll up a fully materialised ``SiteReport`` -- single pass."""
        rollup = cls(root=str(report.root), keep_worst=keep_worst)
        for page in report.pages:
            rollup.add_page(page, report.page_diagnostics.get(page, []))
        rollup.count_diagnostics(report.site_diagnostics)
        rollup.page_errors = len(report.page_errors)
        rollup.link_edges = len(report.link_graph)
        if navigation and report.pages:
            rollup.navigation_lines = report.navigation().summary_lines()
        return rollup

    # -- merging -------------------------------------------------------

    def merge(self, other: "SiteRollup") -> "SiteRollup":
        """Fold another shard's rollup into this one, in place."""
        self.pages += other.pages
        self.pages_with_problems += other.pages_with_problems
        self.page_errors += other.page_errors
        self.total_messages += other.total_messages
        for category, count in other.category_counts.items():
            self.category_counts[category] = (
                self.category_counts.get(category, 0) + count
            )
        for message_id, count in other.message_counts.items():
            self.message_counts[message_id] = (
                self.message_counts.get(message_id, 0) + count
            )
        self.link_edges += other.link_edges
        for count, page in other.worst_pages():
            self._worst.push(page, count)
        # Navigation is a whole-graph analysis: keep whichever side has
        # one, and drop both when they disagree (two partial views
        # cannot be combined).
        if self.navigation_lines is None:
            self.navigation_lines = other.navigation_lines
        elif (
            other.navigation_lines is not None
            and other.navigation_lines != self.navigation_lines
        ):
            self.navigation_lines = None
        return self

    # -- serialisation -------------------------------------------------

    def to_payload(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "version": ROLLUP_VERSION,
            "root": self.root,
            "keep_worst": self.keep_worst,
            "pages": self.pages,
            "pages_with_problems": self.pages_with_problems,
            "page_errors": self.page_errors,
            "total_messages": self.total_messages,
            "categories": dict(sorted(self.category_counts.items())),
            "messages": dict(sorted(self.message_counts.items())),
            "link_edges": self.link_edges,
            "worst_pages": [
                [count, page] for count, page in self.worst_pages()
            ],
        }
        if self.navigation_lines is not None:
            payload["navigation"] = list(self.navigation_lines)
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_payload(cls, payload: dict) -> "SiteRollup":
        rollup = cls(
            root=payload.get("root", ""),
            keep_worst=int(payload.get("keep_worst", WORST_PAGES_KEPT)),
        )
        rollup.pages = int(payload.get("pages", 0))
        rollup.pages_with_problems = int(payload.get("pages_with_problems", 0))
        rollup.page_errors = int(payload.get("page_errors", 0))
        rollup.total_messages = int(payload.get("total_messages", 0))
        for category, count in payload.get("categories", {}).items():
            rollup.category_counts[category] = int(count)
        for message_id, count in payload.get("messages", {}).items():
            rollup.message_counts[message_id] = int(count)
        rollup.link_edges = int(payload.get("link_edges", 0))
        for count, page in payload.get("worst_pages", []):
            rollup._worst.push(str(page), int(count))
        navigation = payload.get("navigation")
        if navigation is not None:
            rollup.navigation_lines = [str(line) for line in navigation]
        return rollup

    def save(self, path: Union[str, Path]) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, self.to_json().encode("utf-8"))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SiteRollup":
        return cls.from_payload(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SiteRollup):
            return NotImplemented
        return self.to_payload() == other.to_payload()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SiteRollup(root={self.root!r}, pages={self.pages}, "
            f"messages={self.total_messages})"
        )


class PageSpill:
    """Append-only ``pages.jsonl``: full per-page diagnostics on disk.

    One JSON line per resolved page, written in completion order (sort
    by the ``page`` key for a canonical view -- ``merge_shards`` does
    exactly that when it rewrites merged spills).  Records:

    - ``{"page", "phase", "count", "diagnostics"}`` for a checked page
      (``phase`` is ``"lint"`` for the per-document pass, ``"site"``
      for cross-page findings attached afterwards);
    - ``{"page", "error"}`` for a page that could not be read/fetched.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._log: Optional[JsonLog] = None

    def _write(self, record: dict[str, object]) -> None:
        if self._log is None:
            self._log = JsonLog(self.path, fresh=True)
        self._log.append(record)

    def write_page(
        self,
        page: str,
        diagnostics: Iterable[Diagnostic],
        error: Optional[str] = None,
        phase: str = "lint",
    ) -> None:
        if error is not None:
            self._write({"page": page, "error": error})
            return
        items = [diagnostic_record(d) for d in diagnostics]
        self._write({
            "page": page,
            "phase": phase,
            "count": len(items),
            "diagnostics": items,
        })

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "PageSpill":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
