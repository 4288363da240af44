"""The engine's output against committed per-document digests.

``tests/golden/lint_digests.json`` was written once by
``python -m tests.lint_digests`` and is never regenerated here (see
:mod:`tests.lint_digests` for what each record covers).  Every document
of every corpus must reproduce its token stream, its links and anchors,
and its diagnostics under every configuration, exactly.
"""

from __future__ import annotations

import json

import pytest

from tests.lint_digests import CONFIGS, GOLDEN, build_engines, corpora, digest_document

GOLDEN_RECORDS = json.loads(GOLDEN.read_text())
CORPORA = corpora()


@pytest.fixture(scope="module")
def engines():
    return build_engines()


def test_golden_covers_every_corpus():
    assert sorted(GOLDEN_RECORDS) == sorted(CORPORA)


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_corpus_matches_its_digests(corpus, engines):
    golden = GOLDEN_RECORDS[corpus]
    documents = CORPORA[corpus]
    assert sorted(doc_id for doc_id, _source in documents) == sorted(golden)
    mismatches = []
    for doc_id, source in documents:
        got = digest_document(source, engines)
        want = golden[doc_id]
        for field in ("tokens", "links", *CONFIGS):
            if got[field] != want[field]:
                mismatches.append(f"{corpus}/{doc_id} [{field}]")
    assert not mismatches, "digests differ: " + ", ".join(mismatches)
