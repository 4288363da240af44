"""Navigational analysis of a site's link graph.

Paper section 3.5 notes that smarter robots "generate navigational
analysis of your site", and section 2 asks "How easy is your site to
navigate?  It is important to remember that users may jump to arbitrary
pages on your site".  This module answers those questions over the link
graph the site checker (or poacher) has already built:

- click depth of every page from the entry point (BFS);
- pages unreachable by browsing at all;
- dead ends (pages with no outgoing links -- the user must use Back);
- the most-linked pages (navigation hubs);
- depth distribution and the deepest pages.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional


@dataclass
class NavigationReport:
    """Everything the analysis computed."""

    root: str
    depths: dict[str, int] = field(default_factory=dict)
    unreachable: list[str] = field(default_factory=list)
    dead_ends: list[str] = field(default_factory=list)
    incoming: dict[str, int] = field(default_factory=dict)

    @property
    def max_depth(self) -> int:
        return max(self.depths.values(), default=0)

    @property
    def average_depth(self) -> float:
        if not self.depths:
            return 0.0
        return sum(self.depths.values()) / len(self.depths)

    def depth_histogram(self) -> dict[int, int]:
        histogram: dict[int, int] = {}
        for depth in self.depths.values():
            histogram[depth] = histogram.get(depth, 0) + 1
        return dict(sorted(histogram.items()))

    def hubs(self, count: int = 5) -> list[tuple[str, int]]:
        """The most-linked pages, best first."""
        ranked = sorted(
            self.incoming.items(), key=lambda item: (-item[1], item[0])
        )
        return ranked[:count]

    def summary_lines(self) -> list[str]:
        lines = [
            f"navigation analysis from {self.root}:",
            f"  reachable pages: {len(self.depths)} "
            f"(max depth {self.max_depth}, "
            f"average {self.average_depth:.1f} clicks)",
        ]
        for depth, count in self.depth_histogram().items():
            lines.append(f"    depth {depth}: {count} page(s)")
        if self.unreachable:
            lines.append(
                f"  unreachable by browsing: {', '.join(self.unreachable)}"
            )
        if self.dead_ends:
            lines.append(f"  dead ends: {', '.join(self.dead_ends)}")
        hubs = [f"{page} ({count})" for page, count in self.hubs(3) if count]
        if hubs:
            lines.append(f"  most linked: {', '.join(hubs)}")
        return lines


def analyse_navigation(
    pages: Iterable[str],
    edges: Iterable[tuple[str, str]],
    root: Optional[str] = None,
) -> NavigationReport:
    """BFS the link graph from ``root`` (default: first page).

    ``edges`` are (source, target) pairs between page identifiers; pages
    not present in ``pages`` are ignored.
    """
    page_list = list(pages)
    page_set = set(page_list)
    adjacency: dict[str, list[str]] = {page: [] for page in page_list}
    incoming: dict[str, int] = {page: 0 for page in page_list}
    for source, target in edges:
        if source in page_set and target in page_set:
            adjacency[source].append(target)
            if source != target:
                incoming[target] += 1

    if root is None:
        root = page_list[0] if page_list else ""
    report = NavigationReport(root=root, incoming=incoming)
    if root not in page_set:
        report.unreachable = sorted(page_set)
        return report

    depths: dict[str, int] = {root: 0}
    frontier: deque[str] = deque([root])
    while frontier:
        page = frontier.popleft()
        for target in adjacency[page]:
            if target not in depths:
                depths[target] = depths[page] + 1
                frontier.append(target)
    report.depths = depths
    report.unreachable = sorted(page_set - set(depths))
    report.dead_ends = sorted(
        page
        for page in depths
        if not any(target != page for target in adjacency[page])
    )
    return report
