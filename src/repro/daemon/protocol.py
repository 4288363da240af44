"""The daemon's JSON wire format.

One request shape, one response shape, both plain JSON so any HTTP
client can speak them (the paper's "easy to run from ... an
application" requirement, section 4.1, applied to the service):

Request (``POST /lint``)::

    {"documents": [{"name": "a.html", "text": "<html>..."}, ...],
     "options": {"spec": "html40", "pedantic": false,
                 "enable": ["id", ...], "disable": ["id,id", ...],
                 "preset": "minimal"}}

The options are ``weblint``'s switches, applied on top of the daemon's
own by :func:`repro.config.options_from_dict` (``enable``/``disable``
entries are ids or comma-separated lists of them, like ``-e``/``-d``).

Response::

    {"results": [{"name": "a.html", "error": null,
                  "diagnostics": [{"id": ..., "category": ...,
                                   "text": ..., "line": ...,
                                   "column": ..., "arguments": {...}},
                                  ...]}, ...]}

A result's ``diagnostics`` are the very text a lint-cache record holds
(``EncodedDiagnostics.rows`` from
:func:`repro.core.diagnostics.encode_diagnostics`), so the wire format
and the on-disk cache format cannot drift apart; a pooled result's rows,
encoded by its worker, are spliced in as they arrived.  Decoding is
strict: anything malformed raises :class:`ProtocolError`, which the
server turns into a 400 instead of a traceback.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.core.diagnostics import diagnostic_from_row
from repro.core.service import LintRequest, LintResult, StringSource

#: Cap on documents per request, so one client cannot park an
#: arbitrarily large batch in the daemon's memory.
MAX_DOCUMENTS = 1024


class ProtocolError(ValueError):
    """A request or response body that does not follow the protocol."""


def encode_batch_request(
    documents: list[tuple[str, str]],
    options: Optional[dict[str, object]] = None,
) -> str:
    """Encode ``[(name, text), ...]`` plus an options dict."""
    payload: dict[str, object] = {
        "documents": [
            {"name": name, "text": text} for name, text in documents
        ],
    }
    if options:
        payload["options"] = options
    return json.dumps(payload)


def decode_batch_request(
    body: str,
) -> tuple[list[LintRequest], dict[str, object]]:
    """Decode a request body into lint requests plus raw options."""
    try:
        payload = json.loads(body)
    except ValueError as exc:
        raise ProtocolError(f"request body is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    documents = payload.get("documents")
    if not isinstance(documents, list) or not documents:
        raise ProtocolError("request needs a non-empty 'documents' list")
    if len(documents) > MAX_DOCUMENTS:
        raise ProtocolError(
            f"too many documents ({len(documents)} > {MAX_DOCUMENTS})"
        )
    requests: list[LintRequest] = []
    for index, document in enumerate(documents):
        if not isinstance(document, dict) or "text" not in document:
            raise ProtocolError(f"document {index} needs a 'text' field")
        text = document["text"]
        if not isinstance(text, str):
            raise ProtocolError(f"document {index} 'text' must be a string")
        name = document.get("name", "-")
        if not isinstance(name, str) or not name:
            name = "-"
        requests.append(LintRequest(StringSource(text, name=name)))
    options = payload.get("options", {})
    if options is None:
        options = {}
    if not isinstance(options, dict):
        raise ProtocolError("'options' must be a JSON object")
    return requests, options


def encode_batch_response(results: list[LintResult]) -> str:
    """Encode lint results (diagnostics or structured error) as JSON.

    The bytes of ``json.dumps`` over ``{"results": [{"name", "error",
    "diagnostics"}, ...]}``, with each result's encoded rows spliced in.
    Raises ``TypeError`` when a diagnostic argument is not JSON.
    """
    entries = []
    for result in results:
        rows = result.encoded.rows
        if rows is None:
            raise TypeError(f"{result.name}: a diagnostic argument is not JSON")
        entries.append(
            f'{{"name": {json.dumps(result.name)}, '
            f'"error": {json.dumps(result.error)}, "diagnostics": {rows}}}'
        )
    return f'{{"results": [{", ".join(entries)}]}}'


def decode_batch_response(body: str) -> list[LintResult]:
    """Decode a response body back into :class:`LintResult` objects."""
    try:
        payload = json.loads(body)
    except ValueError as exc:
        raise ProtocolError(f"response body is not JSON: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(
        payload.get("results"), list
    ):
        raise ProtocolError("response needs a 'results' list")
    results: list[LintResult] = []
    for index, raw in enumerate(payload["results"]):
        if not isinstance(raw, dict):
            raise ProtocolError(f"result {index} must be a JSON object")
        name = raw.get("name", "-")
        error = raw.get("error")
        if error is not None and not isinstance(error, str):
            raise ProtocolError(f"result {index} 'error' must be a string")
        rows = raw.get("diagnostics", [])
        if not isinstance(rows, list):
            raise ProtocolError(f"result {index} 'diagnostics' must be a list")
        try:
            diagnostics = [
                diagnostic_from_row(row, filename=name) for row in rows
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                f"result {index} has a malformed diagnostic: {exc}"
            ) from exc
        results.append(
            LintResult(name=name, diagnostics=diagnostics, error=error)
        )
    return results
