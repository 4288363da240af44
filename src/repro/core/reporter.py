"""Reporters -- the pluggable output side of ``Weblint::Warnings``.

Paper section 5.6: "The warnings module can be sub-classed, and the new
warnings class installed in Weblint.  This might change the wording of
warnings (e.g. verbose warnings), or change the way warnings are emitted.
The gateway script uses a subclass to provide warnings more appropriate
to the web page context."

Formats:

- :class:`LintReporter` -- "the default traditional lint style of
  messages: ``test.html(1): blah blah blah``" (section 4.2).
- :class:`ShortReporter` -- the ``-s`` switch: ``line 1: ...``.
- :class:`VerboseReporter` -- message id, category and help text.
- :class:`HTMLReporter` -- the gateway subclass: warnings as an HTML list.
- :class:`JSONReporter` -- machine-readable, for robots and CI.
- :class:`JsonlReporter` -- one JSON object per document, written the
  moment the document resolves (the streaming pipeline's native format).

Beyond the classic "render a list" contract, every reporter speaks an
incremental one -- ``begin(stream)`` / ``emit(result)`` / ``end()`` --
fed by ``LintService.iter_check``'s completion-order stream, so output
starts the moment the first document is linted and no reporter needs
the whole batch in memory (batch formats like JSON still buffer, by
design: their output is one document per run).
"""

from __future__ import annotations

import html as _html
import json
from typing import IO, Iterable, Optional

from repro.core.diagnostics import (
    Diagnostic,
    EncodedDiagnostics,
    count_by_category,
    encode_diagnostics,
)
from repro.core.messages import message
from repro.obs.metrics import get_registry


class Reporter:
    """Base reporter: format one diagnostic, or report a whole list.

    Output contract (every subclass, and every caller, can rely on it):

    - With diagnostics: header (if any), one ``format`` line per
      diagnostic, footer (if any), joined by newlines.
    - Without diagnostics: :meth:`empty` is rendered instead -- the
      header/footer frame is *never* emitted around nothing, so a
      header-only reporter still produces either its empty text or a
      complete frame, not a dangling header.
    - Whenever the rendered text is non-empty and a stream was given, it
      is written with exactly one trailing newline.

    Reporters also tally what they have reported: :attr:`count` holds
    per-category totals (plus ``"total"``) accumulated across calls,
    which ``weblint --stats`` reuses for its summary.
    """

    name = "base"

    #: True for reporters whose output is one machine-readable document
    #: per *run* (JSON, stats): the CLI collects every path's diagnostics
    #: and calls :meth:`report` once, instead of once per path -- so a
    #: multi-path run emits a single parseable document.
    batch_output = False

    #: True for reporters that write one self-contained record per
    #: document as :meth:`emit` is called.  The CLI feeds these from
    #: ``LintService.iter_check`` in completion order instead of
    #: buffering the whole batch.
    streams_incrementally = False

    def __init__(self) -> None:
        self._counts: dict[str, int] = {"total": 0}
        self._stream: Optional[IO[str]] = None
        self._pending: list[Diagnostic] = []

    def format(self, diagnostic: Diagnostic) -> str:
        raise NotImplementedError

    def header(self) -> str:
        return ""

    def footer(self, diagnostics: list[Diagnostic]) -> str:
        return ""

    def empty(self) -> str:
        """Rendered when there is nothing to report (default: nothing)."""
        return ""

    @property
    def count(self) -> dict[str, int]:
        """Diagnostics reported so far, by category, plus ``"total"``."""
        return dict(self._counts)

    def _record(self, by_category: dict[str, int]) -> None:
        """Add diagnostics counted by category (as
        ``count_by_category(..., include_zero=False)`` counts them)."""
        self._counts["total"] = self._counts.get("total", 0) + sum(by_category.values())
        for key, value in by_category.items():
            self._counts[key] = self._counts.get(key, 0) + value

    def report(
        self,
        diagnostics: Iterable[Diagnostic],
        stream: Optional[IO[str]] = None,
    ) -> str:
        """Render all diagnostics; write to ``stream`` if given."""
        items = list(diagnostics)
        self._record(count_by_category(items, include_zero=False))
        if not items:
            text = self.empty()
        else:
            parts: list[str] = []
            head = self.header()
            if head:
                parts.append(head)
            parts.extend(self.format(d) for d in items)
            foot = self.footer(items)
            if foot:
                parts.append(foot)
            text = "\n".join(parts)
        if stream is not None and text:
            stream.write(text + "\n")
        return text

    # -- the incremental contract -------------------------------------

    def begin(self, stream: Optional[IO[str]] = None) -> "Reporter":
        """Start an incremental report writing to ``stream``."""
        self._stream = stream
        self._pending = []
        return self

    def emit(self, result) -> None:
        """Fold one resolved document into the report.

        ``result`` is anything shaped like a ``LintResult`` (``name``,
        ``diagnostics`` and optionally ``error`` attributes).  The
        default keeps each format's framing: per-document reporters
        render the document's diagnostics immediately (exactly what the
        buffered CLI produced per path); ``batch_output`` reporters
        accumulate and render once at :meth:`end`.  Unreadable
        documents are skipped -- the caller owns error reporting.
        """
        if getattr(result, "error", None) is not None:
            return
        diagnostics = list(result.diagnostics)
        if self.batch_output:
            self._pending.extend(diagnostics)
        else:
            self.report(diagnostics, stream=self._stream)

    def end(self) -> str:
        """Finish an incremental report; returns any final rendering."""
        if self.batch_output:
            pending, self._pending = self._pending, []
            return self.report(pending, stream=self._stream)
        return ""


class LintReporter(Reporter):
    """Traditional lint format: ``file(line): message``."""

    name = "lint"

    def format(self, diagnostic: Diagnostic) -> str:
        return f"{diagnostic.filename}({diagnostic.line}): {diagnostic.text}"


class ShortReporter(Reporter):
    """The ``-s`` format shown in the paper: ``line N: message``."""

    name = "short"

    def format(self, diagnostic: Diagnostic) -> str:
        return f"line {diagnostic.line}: {diagnostic.text}"


class VerboseReporter(Reporter):
    """Message id + category + description, for learning HTML."""

    name = "verbose"

    def format(self, diagnostic: Diagnostic) -> str:
        lines = [
            f"{diagnostic.filename}({diagnostic.line}): "
            f"[{diagnostic.category.value}/{diagnostic.message_id}] "
            f"{diagnostic.text}"
        ]
        description = message(diagnostic.message_id).description
        if description:
            lines.append(f"    {description}")
        return "\n".join(lines)

    def footer(self, diagnostics: list[Diagnostic]) -> str:
        if not diagnostics:
            return ""
        by_category = count_by_category(diagnostics, include_zero=False)
        summary = ", ".join(
            f"{count} {name}{'s' if count != 1 else ''}"
            for name, count in sorted(by_category.items())
        )
        return f"{len(diagnostics)} message(s): {summary}"


class HTMLReporter(Reporter):
    """Warnings as an HTML fragment, for embedding by the gateway.

    Produces a ``<ul class="weblint-report">`` with one ``<li>`` per
    diagnostic, classed by category so gateways can style them.
    """

    name = "html"

    def empty(self) -> str:
        # No empty <ul>: the report page must itself lint clean.
        return "<p>No problems found - nice page!</p>"

    def header(self) -> str:
        return '<ul class="weblint-report">'

    def format(self, diagnostic: Diagnostic) -> str:
        text = _html.escape(diagnostic.text)
        return (
            f'  <li class="weblint-{diagnostic.category.value}">'
            f"<b>line {diagnostic.line}</b>: {text}</li>"
        )

    def footer(self, diagnostics: list[Diagnostic]) -> str:
        return f"</ul>\n<p>{len(diagnostics)} problem(s) found.</p>"


class JSONReporter(Reporter):
    """One JSON object per run: machine-readable output."""

    name = "json"
    batch_output = True

    def format(self, diagnostic: Diagnostic) -> str:  # pragma: no cover
        return json.dumps(self._as_dict(diagnostic))

    @staticmethod
    def _as_dict(diagnostic: Diagnostic) -> dict[str, object]:
        return {
            "id": diagnostic.message_id,
            "category": diagnostic.category.value,
            "file": diagnostic.filename,
            "line": diagnostic.line,
            "column": diagnostic.column,
            "message": diagnostic.text,
        }

    def report(
        self,
        diagnostics: Iterable[Diagnostic],
        stream: Optional[IO[str]] = None,
    ) -> str:
        items = list(diagnostics)
        self._record(count_by_category(items, include_zero=False))
        payload = json.dumps([self._as_dict(d) for d in items], indent=2)
        if stream is not None:
            stream.write(payload + "\n")
        return payload


class JsonlReporter(Reporter):
    """One JSON object per *document*, written the moment it resolves.

    The streaming face of :class:`JSONReporter`: ``weblint -f jsonl``
    and ``poacher --format jsonl`` write one line per page as the
    pipeline completes it, so a site-scale audit can be tailed and
    filtered while it runs, and the run never holds more than one
    document's diagnostics.  Lines arrive in *completion* order; sort
    by ``file`` for a canonical view.  Unreadable documents become
    ``{"file": ..., "error": ...}`` records so the stream stays an
    exact account of the batch.  :meth:`emit` writes a result's
    ``encoded`` rows as they are, so a pooled result, encoded by its
    worker, is never decoded here.
    """

    name = "jsonl"
    streams_incrementally = True

    def format(self, diagnostic: Diagnostic) -> str:  # pragma: no cover
        return encode_diagnostics([diagnostic]).records[1:-1]

    def _document(self, filename: str, encoded: EncodedDiagnostics) -> str:
        """One document's line: ``json.dumps`` of ``{"file", "count",
        "diagnostics"}`` with sorted keys, the rows spliced in."""
        return (
            f'{{"count": {encoded.count}, "diagnostics": {encoded.records}, '
            f'"file": {json.dumps(filename)}}}'
        )

    def _write(self, line: str) -> None:
        if self._stream is None:
            return
        self._stream.write(line + "\n")
        flush = getattr(self._stream, "flush", None)
        if flush is not None:  # a tail -f consumer must see it now
            try:
                flush()
            except OSError:  # pragma: no cover - closed pipe
                pass

    def emit(self, result) -> None:
        error = getattr(result, "error", None)
        if error is not None:
            self._write(json.dumps(
                {"file": result.name, "error": str(error)}, sort_keys=True
            ))
            return
        encoded = result.encoded
        self._record(encoded.counts)
        self._write(self._document(result.name, encoded))

    def report(
        self,
        diagnostics: Iterable[Diagnostic],
        stream: Optional[IO[str]] = None,
    ) -> str:
        """The buffered contract: one line per distinct filename."""
        by_file: dict[str, list[Diagnostic]] = {}
        for diagnostic in diagnostics:
            by_file.setdefault(diagnostic.filename, []).append(diagnostic)
        lines = []
        for filename, group in by_file.items():
            encoded = encode_diagnostics(group)
            self._record(encoded.counts)
            lines.append(self._document(filename, encoded))
        text = "\n".join(lines)
        if stream is not None and text:
            stream.write(text + "\n")
        return text


class StatsReporter(Reporter):
    """Diagnostics summary plus the metrics-registry snapshot, as JSON.

    The machine-readable face of the observability layer: CI jobs and
    benchmark harnesses run ``weblint -f stats`` and get category totals
    *and* every ``lint.*`` / ``tokenizer.*`` / ``engine.*`` metric the
    run recorded, in one parseable object.
    """

    name = "stats"
    batch_output = True

    def report(
        self,
        diagnostics: Iterable[Diagnostic],
        stream: Optional[IO[str]] = None,
    ) -> str:
        items = list(diagnostics)
        self._record(count_by_category(items, include_zero=False))
        payload = json.dumps(
            {
                "diagnostics": self.count,
                "metrics": get_registry().snapshot(),
            },
            indent=2,
        )
        if stream is not None:
            stream.write(payload + "\n")
        return payload


_REPORTERS = {
    cls.name: cls
    for cls in (
        LintReporter,
        ShortReporter,
        VerboseReporter,
        HTMLReporter,
        JSONReporter,
        JsonlReporter,
        StatsReporter,
    )
}


def get_reporter(name: str) -> Reporter:
    """Instantiate a reporter by name ('lint', 'short', 'verbose', ...)."""
    try:
        return _REPORTERS[name.lower()]()
    except KeyError:
        raise KeyError(
            f"unknown reporter {name!r}; available: {', '.join(sorted(_REPORTERS))}"
        ) from None


def available_reporters() -> list[str]:
    return sorted(_REPORTERS)
