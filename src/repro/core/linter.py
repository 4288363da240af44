"""The ``Weblint`` class -- the paper's embeddable module.

Paper section 5.4:

    use Weblint;
    $weblint = Weblint->new();
    $weblint->check_file($filename);

    "In addition to the check_file method above, it provides check_string
    and check_url methods.  The latter requires the LWP modules ..."

The Python equivalent::

    from repro import Weblint
    weblint = Weblint()
    diagnostics = weblint.check_file("test.html")

``Weblint`` keeps the paper's one-document-at-a-time, raise-on-failure
shape; internally it is a thin facade over
:class:`repro.core.service.LintService`, which owns the batch pipeline
that every front end (CLI, site checker, gateway, robot, harness) now
shares.  ``check_url`` talks to a :class:`repro.www.client.UserAgent`;
by default that agent has no live network (this reproduction substitutes
LWP with an in-memory virtual web -- see DESIGN.md section 4), so
callers pass an agent bound to a :class:`repro.www.virtualweb.VirtualWeb`
or any object with a compatible ``get`` method.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union

from repro.config.options import Options
from repro.core.diagnostics import Diagnostic, count_by_category
from repro.core.messages import Category
from repro.core.registry import RuleRegistry
from repro.core.reporter import LintReporter, Reporter, ShortReporter
from repro.core.rules.base import Rule
from repro.core.service import (
    LintService,
    PathSource,
    StringSource,
    URLSource,
)
from repro.html.spec import HTMLSpec


class WeblintError(Exception):
    """A document could not be checked (missing file, bad URL...)."""


class Weblint:
    """HTML checker facade: configuration + engine + reporting."""

    def __init__(
        self,
        options: Optional[Options] = None,
        spec: Optional[Union[str, HTMLSpec]] = None,
        rules: Optional[Sequence[Rule]] = None,
        reporter: Optional[Reporter] = None,
        cascade_heuristics: bool = True,
        registry: Optional[RuleRegistry] = None,
    ) -> None:
        self.service = LintService(
            options=options,
            spec=spec,
            rules=rules,
            registry=registry,
            cascade_heuristics=cascade_heuristics,
        )
        self.options = self.service.options
        self.spec = self.service.spec
        self.registry = registry
        self._engine = self.service.engine
        if reporter is None:
            reporter = ShortReporter() if self.options.short_format else LintReporter()
        self.reporter = reporter

    # -- checking -----------------------------------------------------------------

    def check_string(self, source: str, filename: str = "-") -> list[Diagnostic]:
        """Check HTML given as a string."""
        return self.service.check(StringSource(source, name=filename)).diagnostics

    def check_file(self, path: Union[str, Path]) -> list[Diagnostic]:
        """Check one HTML file on disk."""
        result = self.service.check(PathSource(path))
        if result.error is not None:
            raise WeblintError(result.error)
        return result.diagnostics

    def check_url(self, url: str, agent=None) -> list[Diagnostic]:
        """Fetch a URL with ``agent`` and check the response body.

        ``agent`` is any object with ``get(url) -> response`` where the
        response has ``status``, ``body`` and ``url`` attributes --
        normally a :class:`repro.www.client.UserAgent`.
        """
        result = self.service.check(URLSource(url, agent=agent))
        if result.error is not None:
            raise WeblintError(result.error)
        return result.diagnostics

    # -- reporting ---------------------------------------------------------------------

    def report(self, diagnostics: Sequence[Diagnostic], stream=None) -> str:
        """Format diagnostics with the configured reporter."""
        return self.reporter.report(diagnostics, stream=stream)

    def run_file(self, path: Union[str, Path], stream=None) -> list[Diagnostic]:
        """check_file + report in one call (what the script does)."""
        diagnostics = self.check_file(path)
        self.report(diagnostics, stream=stream)
        return diagnostics

    # -- small conveniences --------------------------------------------------------------

    @staticmethod
    def counts(diagnostics: Sequence[Diagnostic]) -> dict[str, int]:
        """Count diagnostics per category name."""
        return count_by_category(diagnostics)

    @staticmethod
    def worst_category(diagnostics: Sequence[Diagnostic]) -> Optional[Category]:
        for category in (Category.ERROR, Category.WARNING, Category.STYLE):
            if any(d.category is category for d in diagnostics):
                return category
        return None
