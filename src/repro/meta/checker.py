"""The combined checking service."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.baselines.strict import StrictValidator
from repro.config.options import Options
from repro.core.diagnostics import Diagnostic
from repro.core.linter import Weblint
from repro.core.service import LintRequest, StringSource
from repro.gateway.htmlreport import PageWeight, estimate_page_weight
from repro.robot.linkcheck import LinkChecker, LinkStatus
from repro.site.links import Link, extract_links
from repro.www.client import UserAgent
from repro.www.url import urlparse


@dataclass
class ToolSection:
    """One tool's contribution to the merged report."""

    tool: str
    title: str
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.diagnostics)


@dataclass
class MetaReport:
    """The merged report of all enabled tools."""

    source_name: str
    sections: list[ToolSection] = field(default_factory=list)
    weight: Optional[PageWeight] = None
    broken_links: list[tuple[Link, LinkStatus]] = field(default_factory=list)

    def section(self, tool: str) -> Optional[ToolSection]:
        for candidate in self.sections:
            if candidate.tool == tool:
                return candidate
        return None

    def total_problems(self) -> int:
        return (
            sum(section.count for section in self.sections)
            + len(self.broken_links)
        )

    def summary_lines(self) -> list[str]:
        lines = [f"meta report for {self.source_name}"]
        for section in self.sections:
            lines.append(f"  [{section.tool}] {section.title}: "
                         f"{section.count} message(s)")
            for diagnostic in section.diagnostics:
                lines.append(f"    line {diagnostic.line}: {diagnostic.text}")
        if self.broken_links:
            lines.append(f"  [links] {len(self.broken_links)} broken link(s)")
            for link, status in self.broken_links:
                lines.append(
                    f"    line {link.line}: {link.url} ({status.describe()})"
                )
        if self.weight is not None:
            lines.append(
                f"  [weight] {self.weight.estimated_total_bytes} bytes "
                f"estimated with {self.weight.resource_count} resource(s)"
            )
        return lines


class MetaChecker:
    """Run several checking services over one document and merge."""

    def __init__(
        self,
        options: Optional[Options] = None,
        agent: Optional[UserAgent] = None,
        include_weblint: bool = True,
        include_strict: bool = True,
        include_weight: bool = True,
        include_links: bool = True,
    ) -> None:
        self.options = options if options is not None else Options.with_defaults()
        self.agent = agent
        self.include_weblint = include_weblint
        self.include_strict = include_strict
        self.include_weight = include_weight
        self.include_links = include_links and agent is not None
        self._weblint = Weblint(options=self.options)
        self._strict = StrictValidator(self._weblint.spec)

    def check_string(
        self, source: str, source_name: str = "-", base_url: str = ""
    ) -> MetaReport:
        """Meta-check one page.

        The weblint pass also collects the page's links for the link
        and weight sections (one link scan does when weblint is off),
        so only the strict validator tokenizes the page again.
        """
        report = MetaReport(source_name=source_name)
        check_links = self.include_links and bool(base_url)
        links: Optional[list[Link]] = None
        if self.include_weblint:
            lint = self._weblint.service.check(
                LintRequest(StringSource(source, name=source_name), links=True)
            )
            links = lint.links
            report.sections.append(
                ToolSection(
                    tool="weblint",
                    title="syntax and style (weblint)",
                    diagnostics=lint.diagnostics,
                )
            )
        elif check_links or self.include_weight:
            links = extract_links(source)
        if self.include_strict:
            report.sections.append(
                ToolSection(
                    tool="strict",
                    title="strict validation (SGML parser style)",
                    diagnostics=self._strict.check_string(source, source_name),
                )
            )
        if check_links:
            checker = LinkChecker(self.agent)
            base = urlparse(base_url)
            for link in links:
                if not link.checkable:
                    continue
                status = checker.check(base, link.url)
                if status.broken:
                    report.broken_links.append((link, status))
        if self.include_weight:
            report.weight = estimate_page_weight(source, links=links)
        return report

    def check_url(self, url: str) -> MetaReport:
        """Fetch and meta-check one page (requires an agent)."""
        if self.agent is None:
            raise ValueError("MetaChecker.check_url needs a UserAgent")
        response = self.agent.get(url)
        if not response.ok:
            raise ValueError(
                f"cannot fetch {url}: {response.status} {response.reason}"
            )
        return self.check_string(
            response.body, source_name=response.url, base_url=response.url
        )
