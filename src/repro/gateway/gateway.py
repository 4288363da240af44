"""The gateway proper: one form submission in, one HTML report out.

Form fields (mirroring the classic weblint gateways):

``url``
    Fetch this URL (through the gateway's :class:`UserAgent`) and check it.
``html``
    Pasted HTML to check directly.
``upload``
    Uploaded file content (treated like ``html`` but named).
``spec``
    HTML version to check against (``html40``, ``html32``, ``netscape``...).
``pedantic``
    Any non-empty value enables every message.
``enable`` / ``disable``
    Repeatable message ids or categories.

Exactly one of ``url``/``html``/``upload`` must be supplied.  The
response embeds the weblint warnings into a generated page -- via an
:class:`~repro.core.reporter.HTMLReporter` subclass, the customisation
hook the paper calls out in section 5.6 -- along with the WebTechs-style
page-weight table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.config import options_from_dict
from repro.config.options import Options, UnknownMessageError
from repro.core.diagnostics import Diagnostic
from repro.core.reporter import HTMLReporter
from repro.core.service import LintRequest, LintService, StringSource, URLSource
from repro.gateway.forms import FormData
from repro.gateway.htmlreport import (
    escape,
    estimate_page_weight,
    render_page,
    render_stats_table,
    render_table,
)
from repro.obs.metrics import get_registry
from repro.site.links import Link
from repro.www.client import UserAgent


class GatewayReporter(HTMLReporter):
    """The gateway's warnings subclass (paper section 5.6).

    Adds a category legend suited to the web page context and links each
    message id to an explanation anchor.
    """

    name = "gateway"

    def format(self, diagnostic: Diagnostic) -> str:
        text = escape(diagnostic.text)
        category = diagnostic.category.value
        return (
            f'  <li class="weblint-{category}">'
            f"[{category}] <b>line {diagnostic.line}</b>: {text} "
            f'<a href="#msg-{diagnostic.message_id}">({diagnostic.message_id})</a>'
            f"</li>"
        )


@dataclass
class GatewayResponse:
    """What the gateway hands back to its web server."""

    status: int
    body: str
    content_type: str = "text/html"

    def as_cgi(self) -> str:
        """Render with the CGI header block."""
        return (
            f"Status: {self.status}\r\n"
            f"Content-Type: {self.content_type}\r\n"
            f"\r\n{self.body}"
        )


class Gateway:
    """Handle weblint gateway form submissions."""

    def __init__(
        self,
        agent: Optional[UserAgent] = None,
        reporter: Optional[HTMLReporter] = None,
        service_provider: Optional[Callable[[Options], LintService]] = None,
    ) -> None:
        self.agent = agent
        self.reporter = reporter if reporter is not None else GatewayReporter()
        #: Where this gateway's services come from.  The CGI mode builds
        #: one per request (the paper's one-process-per-request shape);
        #: a daemon passes ``daemon.service_for`` so repeat options hit
        #: an already-warm service with compiled dispatch tables.
        self.service_provider = service_provider

    # -- request handling -----------------------------------------------------------

    def handle(self, form: FormData) -> GatewayResponse:
        """Process one submission."""
        sources = [name for name in ("url", "html", "upload") if name in form]
        if len(sources) != 1:
            return self._error(
                400,
                "Provide exactly one of: a URL, pasted HTML, or an uploaded file.",
            )

        try:
            options = self._build_options(form)
        except (UnknownMessageError, ValueError, KeyError) as exc:
            return self._error(400, f"Bad options: {exc}")

        if self.service_provider is not None:
            service = self.service_provider(options)
        else:
            service = LintService(options=options)
        source_kind = sources[0]
        label = "pasted HTML"
        # The page-weight table needs the page's size and resource links:
        # the lint pass collects the links, and the source caches its one
        # fetch or read -- the page is never fetched or tokenized twice.
        if source_kind == "url":
            url = form.get("url")
            label = url
            source = URLSource(url, agent=self.agent)
        else:
            if source_kind == "upload":
                label = form.get("filename", "uploaded file")
            source = StringSource(form.get(source_kind), name=label)
        result = service.check(LintRequest(source, links=True))
        if result.error is not None:
            return self._error(502, f"Could not fetch the page: {result.error}")

        return GatewayResponse(
            status=200,
            body=self._render_report(
                label,
                source.text(),
                result.links,
                result.diagnostics,
                options,
                include_stats=bool(form.get("stats")),
            ),
        )

    # -- helpers -----------------------------------------------------------------------

    def _build_options(self, form: FormData) -> Options:
        overrides: dict[str, object] = {
            name: form.get(name) for name in ("spec", "pedantic", "preset")
        }
        for name in ("enable", "disable"):
            overrides[name] = form.get_all(name)
        return options_from_dict(Options.with_defaults(), overrides)

    def _render_report(
        self,
        label: str,
        body: str,
        links: list[Link],
        diagnostics: list[Diagnostic],
        options: Options,
        include_stats: bool = False,
    ) -> str:
        fragments = [
            f"<p>Report for <code>{escape(label)}</code> "
            f"(checked against {escape(options.spec_name)}).</p>",
            self.reporter.report(diagnostics),
        ]
        if body:
            weight = estimate_page_weight(body, links)
            fragments.append("<h2>Page weight</h2>")
            fragments.append(render_table(weight.rows(), summary="page weight"))
        if include_stats:
            # The form's stats=1 field: lint/fetch metrics for this
            # gateway process (docs/observability.md).
            fragments.append("<h2>Checker statistics</h2>")
            fragments.append(render_stats_table(get_registry().snapshot()))
        return render_page("Weblint gateway report", fragments)

    def _error(self, status: int, message: str) -> GatewayResponse:
        return GatewayResponse(
            status=status,
            body=render_page("Weblint gateway error", [f"<p>{escape(message)}</p>"]),
        )
