"""Diagnostic objects -- one emitted problem.

A :class:`Diagnostic` is what the checker produces and what reporters
format.  It is deliberately dumb data: formatting belongs to
:mod:`repro.core.reporter`, enable/disable policy to
:mod:`repro.config`.  What is written as JSON -- the lint cache's
records, the daemon's ``/lint`` rows, ``-f jsonl`` and ``pages.jsonl``
-- comes from one encoder here, :func:`encode_diagnostics`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Iterable, NamedTuple, Optional

from repro.core.messages import Category, Message, message


@dataclass
class Diagnostic:
    """One reported problem in one source location."""

    message_id: str
    category: Category
    text: str
    line: int
    column: int = 0
    filename: str = "-"
    arguments: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        message_id: str,
        *,
        line: int,
        column: int = 0,
        filename: str = "-",
        **arguments: Any,
    ) -> "Diagnostic":
        msg: Message = message(message_id)
        return cls(
            message_id=message_id,
            category=msg.category,
            text=msg.format(**arguments),
            line=line,
            column=column,
            filename=filename,
            arguments=dict(arguments),
        )

    def __str__(self) -> str:
        return f"{self.filename}({self.line}): {self.text}"


class EncodedDiagnostics(NamedTuple):
    """One result's diagnostics as the JSON text their consumers write.

    ``rows`` is the list of result rows (``id``, ``category``, ``text``,
    ``line``, ``column``, ``arguments``) that a lint-cache record and
    the daemon's ``/lint`` response both hold; it is ``None`` when an
    argument is not JSON (a plugin's), which neither can store.
    ``records`` is the list of ``-f jsonl`` / ``pages.jsonl`` rows:
    sorted keys, ``message`` for the text, no arguments.  ``counts``
    tallies the diagnostics by category name, naming only those present.
    """

    rows: Optional[str]
    records: str
    counts: dict[str, int]

    @property
    def count(self) -> int:
        return sum(self.counts.values())

    def followed_by(self, other: "EncodedDiagnostics") -> "EncodedDiagnostics":
        """These diagnostics, then ``other``'s: what encoding both lists
        as one would give."""
        counts = dict(self.counts)
        for category, count in other.counts.items():
            counts[category] = counts.get(category, 0) + count
        rows = (
            None if self.rows is None or other.rows is None
            else _join_lists(self.rows, other.rows)
        )
        return EncodedDiagnostics(
            rows, _join_lists(self.records, other.records), counts
        )


def _join_lists(first: str, second: str) -> str:
    """Two encoded JSON lists as one, with the encoder's separator."""
    if first == "[]":
        return second
    if second == "[]":
        return first
    return f"{first[:-1]}, {second[1:]}"


#: ``json.dumps(arguments)`` without the encoder ``json.dumps`` builds
#: on every call: its own C encoder with its defaults, built once.
#: Without ``json.dumps``' circular check, a self-containing value
#: raises ``RecursionError`` instead of ``ValueError``.
_encode_value = c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii,
    None, ": ", ", ", False, False, True,
)


def encode_diagnostics(diagnostics: Iterable[Diagnostic]) -> EncodedDiagnostics:
    """Encode ``diagnostics`` once into both row shapes.

    The one diagnostic encoder: the result cache, the daemon protocol,
    the JSON-lines reporter and the page spill all write its text, and
    a pool worker sends it in place of the objects.  Each list is byte
    for byte what ``json.dumps`` writes for the rows as dicts.
    """
    rows: Optional[list[str]] = []
    records: list[str] = []
    counts: dict[str, int] = {}
    string = encode_basestring_ascii
    for diagnostic in diagnostics:
        value = diagnostic.category._value_
        counts[value] = counts.get(value, 0) + 1
        category = string(value)
        message_id = string(diagnostic.message_id)
        text = string(diagnostic.text)
        line = diagnostic.line
        column = diagnostic.column
        records.append(
            f'{{"category": {category}, "column": {column}, "id": {message_id}, '
            f'"line": {line}, "message": {text}}}'
        )
        if rows is None:
            continue
        try:
            arguments = "".join(_encode_value(diagnostic.arguments, 0))
        except (TypeError, ValueError, RecursionError):
            rows = None
            continue
        rows.append(
            f'{{"id": {message_id}, "category": {category}, "text": {text}, '
            f'"line": {line}, "column": {column}, "arguments": {arguments}}}'
        )
    return EncodedDiagnostics(
        None if rows is None else f"[{', '.join(rows)}]",
        f"[{', '.join(records)}]",
        counts,
    )


_CATEGORIES = {category.value: category for category in Category}


def diagnostic_from_row(row: dict, filename: str) -> Diagnostic:
    """One decoded result row as a :class:`Diagnostic` of ``filename``.

    Raises ``KeyError``, ``TypeError`` or ``ValueError`` for a row that
    does not describe a diagnostic.
    """
    return Diagnostic(
        message_id=row["id"],
        category=_CATEGORIES[row["category"]],
        text=row["text"],
        line=row["line"],
        column=row.get("column", 0),
        filename=filename,
        arguments=dict(row.get("arguments", {})),
    )


def count_by_category(
    diagnostics: Iterable[Diagnostic], include_zero: bool = True
) -> dict[str, int]:
    """Diagnostics per category name, e.g. ``{"error": 2, "style": 0}``.

    The one shared tally used by ``Weblint.counts``, the reporters'
    running totals and the verbose footer.  With ``include_zero=False``
    only categories that actually occurred appear.
    """
    counts = {category.value: 0 for category in Category}
    for diagnostic in diagnostics:
        counts[diagnostic.category.value] += 1
    if not include_zero:
        counts = {name: value for name, value in counts.items() if value}
    return counts
