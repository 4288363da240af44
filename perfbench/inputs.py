"""Seeded inputs and the correctness oracle.

Inputs come from ``repro.workload`` and are written to disk outside
every timed window.  The oracle's expectations come from how each input
was built, never from running the linter on it:

- a seeded page must report every message id its ``SeededPage.applied``
  mutations name;
- a pathological page must report what its construction guarantees (no
  DOCTYPE, an odd-quoted anchor, bare ``<``/``>``, IMG without ALT,
  never-closed tags);
- a generated site page is default-clean, so its only findings may be
  ``bad-link``s to the ``images/figureN.gif`` files the generator
  references but never writes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

#: What every ``pathological_page`` reports by construction.
PATHOLOGICAL_EXPECTED = frozenset({
    "require-doctype", "odd-quotes", "literal-metacharacter", "img-alt",
    "unclosed-element",
})

#: Finding ids a generated site page may carry: link checks only.
LINK_FINDINGS = frozenset({"bad-link"})

#: Diagnostics compared across entry points: (id, line, column, text).
Rows = list[tuple[str, int, int, str]]


@dataclass
class Doc:
    path: Path
    text: str
    #: Ids the page must report; ``None`` for pathological pages.
    expected: Optional[frozenset[str]]

    @property
    def pathological(self) -> bool:
        return self.expected is None


def build_docs(directory: Path, seed: int, seeded: int, pathological: int) -> list[Doc]:
    """Seeded pages (three verified mistakes each) plus a pathological
    minority, shuffled by the seed and written to ``directory``."""
    from repro.workload import build_pathological_corpus, build_seeded_corpus
    from repro.workload.seeder import DEFAULT_DETECTABLE

    base = seed * 100_003  # keeps the page seeds of different runs disjoint
    items: list[tuple[str, Optional[frozenset[str]]]] = [
        (page.source, frozenset(page.expected_messages()))
        for page in build_seeded_corpus(
            seeded, errors_per_page=3, seed=base, mutation_names=DEFAULT_DETECTABLE
        )
    ]
    items += [(text, None) for text in build_pathological_corpus(pathological, seed=base)]
    random.Random(seed).shuffle(items)
    directory.mkdir(parents=True, exist_ok=True)
    docs = []
    for index, (text, expected) in enumerate(items):
        path = directory / f"doc{index:04d}.html"
        path.write_text(text, encoding="utf-8")
        docs.append(Doc(path, text, expected))
    return docs


def write_site(directory: Path, seed: int, pages: int) -> list[str]:
    """A clean ``iter_site`` site on disk; returns the page names."""
    from repro.workload import PageGenerator

    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for name, text in PageGenerator(seed=seed * 100_003).iter_site(pages):
        (directory / name).write_text(text, encoding="utf-8")
        names.append(name)
    return names


def work_record(texts: list[str], expected: int, pathological: int) -> dict[str, object]:
    """The size of the work, recorded with every result."""
    from repro.html.tokenizer import tokenize

    return {
        "documents": len(texts),
        "bytes": sum(len(text.encode("utf-8")) for text in texts),
        "tokens": sum(len(tokenize(text)) for text in texts),
        "expected_diagnostics": expected,
        "pathological_share": round(pathological / max(1, len(texts)), 4),
    }


def parse_jsonl(stdout: bytes) -> dict[str, dict]:
    """``weblint -f jsonl`` / ``poacher --format jsonl`` records by file."""
    records: dict[str, dict] = {}
    for line in stdout.decode("utf-8", errors="replace").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        name = record.get("file")
        if name in records:
            record = {"file": name, "error": "reported twice"}
        records[name] = record
    return records


def jsonl_rows(record: dict) -> Rows:
    return [
        (item["id"], item["line"], item["column"], item["message"])
        for item in record.get("diagnostics", [])
    ]


def protocol_rows(result: dict) -> Rows:
    return [
        (item["id"], item["line"], item["column"], item["text"])
        for item in result.get("diagnostics", [])
    ]


def check_doc(doc: Doc, rows: Rows) -> Optional[str]:
    """A problem string when ``rows`` misses what ``doc`` must report."""
    ids = {row[0] for row in rows}
    want = PATHOLOGICAL_EXPECTED if doc.expected is None else doc.expected
    missing = want - ids
    if missing:
        return f"{doc.path.name}: missing {sorted(missing)}"
    return None


def check_site_page(name: str, rows: Rows) -> Optional[str]:
    for message_id, _line, _column, text in rows:
        if message_id not in LINK_FINDINGS or "images/figure" not in text:
            return f"{name}: unexpected {message_id}: {text}"
    return None
