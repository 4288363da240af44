"""Shared helpers for the experiment benchmarks (E1-E13).

Every benchmark both *measures* (pytest-benchmark) and *asserts* the
reproduced result, and prints the paper-style rows so
``pytest benchmarks/ --benchmark-only -s`` regenerates the numbers
recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.obs import get_registry

#: The exact example from paper section 4.2.
PAPER_EXAMPLE = """<HTML>
<HEAD>
<TITLE>example page
</HEAD>
<BODY BGCOLOR="fffff" TEXT=#00ff00>
<H1>My Example</H2>
Click <B><A HREF="a.html>here</B></A>
for more details.
</BODY>
</HTML>"""


@pytest.fixture
def paper_example() -> str:
    return PAPER_EXAMPLE


#: What the benchmarks recorded, per ``BENCH_*.json`` artefact.
_RESULTS: dict[str, dict[str, dict[str, object]]] = {}


def record(artefact: str, name: str, **values: object) -> None:
    """Record one benchmark's headline numbers under ``artefact``.

    ``record("BENCH_crawl.json", "e16", speedup=3.6)`` -- each artefact
    the session touched is written at the repo root when the run ends,
    as ``{"generated_unix", "results": {name: values}}``.
    ``BENCH_obs.json`` is written by every run and also carries the exit
    status and a dump of the global metrics registry.
    """
    _RESULTS.setdefault(artefact, {})[name] = dict(values)


def pytest_sessionfinish(session, exitstatus) -> None:
    """Write every recorded ``BENCH_*.json`` artefact."""
    root = Path(str(session.config.rootpath))
    payloads = {
        artefact: {"generated_unix": round(time.time(), 3), "results": results}
        for artefact, results in _RESULTS.items()
    }
    obs = payloads.setdefault(
        "BENCH_obs.json", {"generated_unix": round(time.time(), 3), "results": {}}
    )
    obs["exit_status"] = int(exitstatus)
    obs["metrics"] = get_registry().snapshot()
    for artefact, payload in payloads.items():
        try:
            (root / artefact).write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
        except OSError:  # pragma: no cover - read-only checkout
            pass


def print_table(title: str, rows: list[tuple], headers: tuple) -> None:
    """Render one experiment's result table to stdout."""
    print(f"\n== {title} ==")
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    print("  " + "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  " + "  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
