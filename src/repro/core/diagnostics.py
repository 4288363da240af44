"""Diagnostic objects -- one emitted problem.

A :class:`Diagnostic` is what the checker produces and what reporters
format.  It is deliberately dumb data: formatting belongs to
:mod:`repro.core.reporter`, enable/disable policy to
:mod:`repro.config`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

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


def diagnostic_record(diagnostic: Diagnostic) -> dict[str, object]:
    """One diagnostic inside a ``-f jsonl`` document line or a
    ``pages.jsonl`` page record (the filename lives on the record)."""
    return {
        "id": diagnostic.message_id,
        "category": diagnostic.category.value,
        "line": diagnostic.line,
        "column": diagnostic.column,
        "message": diagnostic.text,
    }


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
