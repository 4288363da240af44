"""Opt-in per-rule and per-message-id profiling.

Answers "which rule is slow?" -- the question that motivated the paper's
weblint 2 rewrite ("hard to maintain and slow") and WebChecker's
per-constraint cost reporting.  Disabled by default; ``weblint
--profile`` (or :func:`set_profiler` / :class:`use_profiler`) installs a
:class:`RuleProfiler`.  The dispatch layer
(:meth:`repro.core.dispatch.DispatchTable.run_hooks`) then times every
hook invocation and attributes it to the owning rule's name, and
``CheckContext.emit`` counts message ids.  The active profiler is
resolved once per check (when the ``CheckContext`` is built), so
installing or removing one never mutates engine state mid-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class ProfileEntry:
    """Aggregated cost of one rule (or the engine itself)."""

    name: str
    calls: int = 0
    total_seconds: float = 0.0

    @property
    def total_ms(self) -> float:
        return self.total_seconds * 1000.0

    @property
    def per_call_us(self) -> float:
        return (self.total_seconds / self.calls) * 1e6 if self.calls else 0.0


class RuleProfiler:
    """Accumulates rule timings and message-id counts across documents."""

    def __init__(self) -> None:
        self.entries: dict[str, ProfileEntry] = {}
        self.message_counts: dict[str, int] = {}
        self.documents = 0

    # -- recording ---------------------------------------------------------

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        entry = self.entries.get(name)
        if entry is None:
            entry = self.entries[name] = ProfileEntry(name)
        entry.calls += calls
        entry.total_seconds += seconds

    def note_message(self, message_id: str) -> None:
        self.message_counts[message_id] = self.message_counts.get(message_id, 0) + 1

    def note_document(self) -> None:
        self.documents += 1

    # -- reporting ---------------------------------------------------------

    def top(self, n: int = 10) -> list[ProfileEntry]:
        """The ``n`` most expensive rules by cumulative time."""
        ranked = sorted(
            self.entries.values(), key=lambda e: e.total_seconds, reverse=True
        )
        return ranked[:n]

    def top_messages(self, n: int = 10) -> list[tuple[str, int]]:
        ranked = sorted(
            self.message_counts.items(), key=lambda item: (-item[1], item[0])
        )
        return ranked[:n]

    def render_report(self, n: int = 10) -> str:
        """The ``--profile`` table: top-N slowest rules, then message ids."""
        lines = [
            f"rule profile ({self.documents} document(s) checked)",
            f"  {'rule':24} {'calls':>8} {'total ms':>10} {'per call us':>12}",
        ]
        for entry in self.top(n):
            lines.append(
                f"  {entry.name:24} {entry.calls:>8} "
                f"{entry.total_ms:>10.2f} {entry.per_call_us:>12.1f}"
            )
        if not self.entries:
            lines.append("  (no rules profiled)")
        if self.message_counts:
            lines.append(f"  {'message id':24} {'emitted':>8}")
            for message_id, count in self.top_messages(n):
                lines.append(f"  {message_id:24} {count:>8}")
        return "\n".join(lines)

    def snapshot(self) -> dict[str, object]:
        return {
            "documents": self.documents,
            "rules": {
                entry.name: {
                    "calls": entry.calls,
                    "total_ms": round(entry.total_ms, 3),
                }
                for entry in self.top(len(self.entries) or 1)
            },
            "messages": dict(sorted(self.message_counts.items())),
        }

    def merge_snapshot(self, snapshot: dict[str, object]) -> None:
        """Fold another profiler's :meth:`snapshot` into this one.

        The batch pipeline's workers each profile their own documents;
        the parent merges them so ``--profile`` under ``--jobs N``
        reports whole-run totals.
        """
        self.documents += int(snapshot.get("documents", 0))
        for name, data in dict(snapshot.get("rules") or {}).items():
            self.add(
                name,
                float(data["total_ms"]) / 1000.0,
                calls=int(data["calls"]),
            )
        for message_id, count in dict(snapshot.get("messages") or {}).items():
            self.message_counts[message_id] = (
                self.message_counts.get(message_id, 0) + int(count)
            )


# -- the process-wide active profiler (None = profiling off) ---------------

_profiler: Optional[RuleProfiler] = None


def get_profiler() -> Optional[RuleProfiler]:
    """The active profiler, or ``None`` when profiling is off."""
    return _profiler


def set_profiler(profiler: Optional[RuleProfiler]) -> Optional[RuleProfiler]:
    """Install (or clear, with ``None``) the profiler; returns the previous."""
    global _profiler
    previous = _profiler
    _profiler = profiler
    return previous


class use_profiler:
    """Context manager: profile a region with a fresh (or given) profiler."""

    def __init__(self, profiler: Optional[RuleProfiler] = None) -> None:
        self.profiler = profiler if profiler is not None else RuleProfiler()
        self._previous: Optional[RuleProfiler] = None

    def __enter__(self) -> RuleProfiler:
        self._previous = set_profiler(self.profiler)
        return self.profiler

    def __exit__(self, *exc_info: object) -> None:
        set_profiler(self._previous)
