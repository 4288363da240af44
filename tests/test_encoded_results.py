"""Results cross the pool already encoded.

A pool worker sends each result's diagnostics as the JSON text their
consumers write (``repro.core.diagnostics.encode_diagnostics``), and the
parent appends and writes that text as it is.  These tests pin:

- the one encoder: both row shapes are byte for byte what ``json.dumps``
  writes for the dict builders the lint cache and the ``-f jsonl``
  reporter used before (kept here as the reference), for any text and
  any JSON-able arguments; a non-JSON argument keeps the objects;
- parity: a pooled run and an inline run print the same output in every
  format, serve each other's cache directory with nothing but hits, and
  answer ``/lint`` with the same bytes;
- a pooled ``-f jsonl`` batch builds no ``Diagnostic`` in the parent.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cli import main as weblint_main
from repro.core.cache import ResultCache
from repro.core.diagnostics import (
    Diagnostic,
    count_by_category,
    diagnostic_from_row,
    encode_diagnostics,
)
from repro.core.messages import Category
from repro.core.reporter import JsonlReporter
from repro.core.service import LintRequest, LintResult, LintService, StringSource
from repro.daemon.pool import WarmPool
from repro.daemon.protocol import encode_batch_response
from repro.obs.metrics import use_registry
from repro.site.rollup import PageSpill
from repro.workload import PageGenerator, build_pathological_corpus, build_seeded_corpus

REPO_ROOT = Path(__file__).resolve().parent.parent


# -- the reference: the dict builders the encoder replaced -----------------------


def reference_row(diagnostic: Diagnostic) -> dict:
    """A lint-cache / ``/lint`` row as the cache's dict codec built it."""
    return {
        "id": diagnostic.message_id,
        "category": diagnostic.category.value,
        "text": diagnostic.text,
        "line": diagnostic.line,
        "column": diagnostic.column,
        "arguments": diagnostic.arguments,
    }


def reference_record(diagnostic: Diagnostic) -> dict:
    """A ``-f jsonl`` / ``pages.jsonl`` row as its builder built it."""
    return {
        "id": diagnostic.message_id,
        "category": diagnostic.category.value,
        "line": diagnostic.line,
        "column": diagnostic.column,
        "message": diagnostic.text,
    }


# -- strategies -------------------------------------------------------------------

# Quotes, backslashes, control characters, non-ASCII, non-BMP, and the
# lone surrogates a JSON request's "\ud800" escapes decode to.
awkward_text = st.text(
    alphabet=st.one_of(
        st.characters(),
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", " ", "\xe9",
                         "\U0001f600", "\ud800", "\udfff", "\udc00"]),
    ),
    max_size=40,
)

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), awkward_text,
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(awkward_text, children, max_size=4),
    ),
    max_leaves=12,
)
# json.dumps turns these key types into strings.
json_keys = st.one_of(awkward_text, st.integers(), st.booleans(), st.none(), st.floats())


def diagnostics_with(keys) -> st.SearchStrategy[list[Diagnostic]]:
    return st.lists(
        st.builds(
            Diagnostic,
            message_id=awkward_text,
            category=st.sampled_from(list(Category)),
            text=awkward_text,
            line=st.integers(),
            column=st.integers(),
            filename=st.just("page.html"),
            arguments=st.dictionaries(keys, json_values, max_size=4),
        ),
        max_size=6,
    )


diagnostics_strategy = diagnostics_with(json_keys)

encoder_settings = settings(
    max_examples=200,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)


class TestEncoder:
    @encoder_settings
    @given(diagnostics_strategy)
    def test_rows_are_the_reference_bytes(self, diagnostics):
        encoded = encode_diagnostics(diagnostics)
        assert encoded.rows == json.dumps([reference_row(d) for d in diagnostics])
        assert encoded.records == json.dumps(
            [reference_record(d) for d in diagnostics], sort_keys=True
        )
        assert encoded.counts == count_by_category(diagnostics, include_zero=False)
        assert encoded.count == len(diagnostics)

    @encoder_settings
    @given(diagnostics_strategy, awkward_text)
    def test_every_consumer_writes_the_reference_bytes(self, diagnostics, name):
        """The jsonl line, the pages.jsonl record and the /lint response,
        each against ``json.dumps`` of the dicts it was built from."""
        result = LintResult(name=name, diagnostics=diagnostics)
        stream = io.StringIO()
        JsonlReporter().begin(stream).emit(result)
        assert stream.getvalue() == json.dumps(
            {
                "file": name,
                "count": len(diagnostics),
                "diagnostics": [reference_record(d) for d in diagnostics],
            },
            sort_keys=True,
        ) + "\n"
        assert encode_batch_response([result]) == json.dumps(
            {"results": [{
                "name": name,
                "error": None,
                "diagnostics": [reference_row(d) for d in diagnostics],
            }]}
        )

    @encoder_settings
    @given(diagnostics_strategy, awkward_text)
    def test_page_spill_record_is_the_reference_bytes(self, diagnostics, page):
        # A fresh path per example: the spill truncates it on first write.
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "pages.jsonl"
            with PageSpill(path) as spill:
                spill.write_page(LintResult(name=page, diagnostics=diagnostics))
            assert path.read_bytes() == (json.dumps(
                {
                    "page": page,
                    "phase": "lint",
                    "count": len(diagnostics),
                    "diagnostics": [reference_record(d) for d in diagnostics],
                },
                sort_keys=True,
            ) + "\n").encode("utf-8")

    @encoder_settings
    @given(diagnostics_with(awkward_text))  # 1 and "1" would be one JSON key
    def test_decoding_the_rows_gives_the_rows_back(self, diagnostics):
        result = LintResult(name="page.html", diagnostics=diagnostics)
        encoded = result.encoded
        result.pack()
        assert result.count == len(diagnostics)
        decoded = result.diagnostics
        assert [d.filename for d in decoded] == ["page.html"] * len(diagnostics)
        assert encode_diagnostics(decoded) == encoded

    def test_a_non_json_argument_keeps_the_objects(self, tmp_path):
        odd = object()
        diagnostics = [
            Diagnostic("img-alt", Category.WARNING, "plain", 1),
            Diagnostic("img-alt", Category.WARNING, "odd", 2, arguments={"x": odd}),
        ]
        encoded = encode_diagnostics(diagnostics)
        assert encoded.rows is None
        assert encoded.records == json.dumps(
            [reference_record(d) for d in diagnostics], sort_keys=True
        )
        result = LintResult(name="page.html", diagnostics=diagnostics)
        result.pack()
        assert result.diagnostics is diagnostics
        assert result.diagnostics[1].arguments["x"] is odd
        cache = ResultCache(tmp_path / "cache")
        with use_registry() as registry:
            cache.put("0" * 64, result.encoded)
            cache.put("1" * 64, encode_diagnostics(diagnostics))
        counts = registry.snapshot()
        assert counts.get("cache.lint.unserialisable") == 2
        assert "cache.lint.stores" not in counts
        assert not (tmp_path / "cache").exists()
        with pytest.raises(TypeError):
            encode_batch_response([result])

    def test_rows_decode_strictly(self):
        with pytest.raises(KeyError):
            diagnostic_from_row({"id": "x", "category": "nonsense", "text": "",
                                 "line": 1}, "f")
        with pytest.raises(KeyError):
            diagnostic_from_row({"category": "error", "text": "", "line": 1}, "f")


# -- parity between the pooled and the inline path ---------------------------------


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> list[str]:
    """Seeded and pathological pages, three to one, on disk."""
    directory = tmp_path_factory.mktemp("corpus")
    texts = [page.source for page in build_seeded_corpus(9, errors_per_page=3, seed=5)]
    texts += build_pathological_corpus(3, seed=5)
    paths = []
    for index, text in enumerate(texts):
        path = directory / f"doc{index:02}.html"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return paths


@pytest.fixture(scope="module")
def site(tmp_path_factory) -> str:
    directory = tmp_path_factory.mktemp("site")
    for name, body in PageGenerator(seed=3).site(8).items():
        path = directory / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body, encoding="utf-8")
    return str(directory)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = weblint_main(["--no-config", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPooledAndInlineParity:
    @pytest.mark.parametrize("fmt", [None, "json", "jsonl"])
    def test_same_output_in_every_format(self, corpus, capsys, fmt):
        options = [] if fmt is None else ["-f", fmt]
        pooled = run(capsys, "--jobs", "2", *options, *corpus)
        inline = run(capsys, "--jobs", "1", *options, *corpus)
        if fmt == "jsonl":  # completion order
            pooled = (pooled[0], sorted(pooled[1].splitlines()), pooled[2])
            inline = (inline[0], sorted(inline[1].splitlines()), inline[2])
        assert pooled == inline
        assert pooled[0] == 1 and pooled[1]

    def test_same_site_output(self, site, capsys):
        assert run(capsys, "-R", "--jobs", "2", site) == run(
            capsys, "-R", "--jobs", "1", site
        )

    @pytest.mark.parametrize("writer,reader", [("2", "1"), ("1", "2")])
    def test_a_cache_written_by_one_path_serves_the_other(
        self, corpus, capsys, tmp_path, writer, reader
    ):
        cache = str(tmp_path / "cache")
        cold = run(capsys, "--jobs", writer, "-f", "jsonl", "--cache-dir", cache, *corpus)
        warm = run(capsys, "--jobs", reader, "-f", "jsonl", "--stats",
                   "--cache-dir", cache, *corpus)
        assert sorted(warm[1].splitlines()) == sorted(cold[1].splitlines())
        assert f"cache.lint.hits: {len(corpus)}\n" in warm[2]
        assert "cache.lint.misses" not in warm[2]

    def test_a_pooled_lint_response_has_the_inline_bytes(self, corpus):
        documents = [Path(path) for path in corpus[:4]]
        requests = [
            LintRequest(StringSource(path.read_text(encoding="utf-8"), name=path.name))
            for path in documents
        ]
        service = LintService()
        inline = encode_batch_response([service.check(request) for request in requests])
        with WarmPool(service, jobs=2) as pool:
            pooled = pool.check_batch(requests)
        assert all(result._diagnostics is None for result in pooled)  # sent as text
        assert encode_batch_response(pooled) == inline
        assert json.loads(inline)["results"][0]["diagnostics"]


#: Runs a pooled ``-f jsonl`` batch in a fresh interpreter and prints how
#: many ``Diagnostic`` objects its parent process made, by construction
#: or by unpickling (both go through ``__new__``).
_COUNT_PARENT_DIAGNOSTICS = """
import os, sys
from repro.core.diagnostics import Diagnostic
from repro.cli import main

parent = os.getpid()
built = []

def counting_new(cls, *args, **kwargs):
    if os.getpid() == parent:
        built.append(cls)
    return object.__new__(cls)

Diagnostic.__new__ = counting_new
stdout, sys.stdout = sys.stdout, open(os.devnull, "w")
code = main(sys.argv[1:])
sys.stdout = stdout
print(code, len(built))
"""


class TestNoDiagnosticsInTheParent:
    @pytest.mark.parametrize("cache", [False, True])
    def test_a_pooled_jsonl_batch_builds_none(self, corpus, tmp_path, cache):
        argv = ["--no-config", "--jobs", "2", "-f", "jsonl"]
        if cache:
            argv += ["--cache-dir", str(tmp_path / "cache")]
        finished = subprocess.run(
            [sys.executable, "-c", _COUNT_PARENT_DIAGNOSTICS, *argv, *corpus],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert finished.stdout.split() == ["1", "0"], finished.stderr


class TestOneEncodingPerCrawledPage:
    """``poacher --format jsonl --state-dir`` spills each page to
    ``pages.jsonl`` and streams it to stdout from one encoding, in which
    each diagnostic is encoded once: the page's lint rows (encoded for
    its cache record, or on a hit) and its link findings."""

    @pytest.mark.parametrize("warm", [False, True])
    def test_the_spill_and_the_stream_share_one_encoding(
        self, tmp_path, monkeypatch, warm
    ):
        from repro.robot.poacher import Poacher
        from repro.www.client import UserAgent
        from tests.edge_site import CRAWL_START, edge_web

        def crawl(report_dir):
            cache = ResultCache(tmp_path / "cache")
            stream = io.StringIO()
            Poacher(
                UserAgent(edge_web()), service=LintService(cache=cache)
            ).crawl_stream(
                CRAWL_START,
                report_dir=report_dir,
                on_result=JsonlReporter().begin(stream).emit,
            )
            return stream.getvalue().splitlines()

        if warm:
            crawl(tmp_path / "cold")
        encoded = []

        def counting_encode(diagnostics):
            diagnostics = list(diagnostics)
            encoded.extend(diagnostics)
            return encode_diagnostics(diagnostics)

        # Every module that imported the encoder calls it under its name.
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro.") and (
                getattr(module, "encode_diagnostics", None) is encode_diagnostics
            ):
                monkeypatch.setattr(module, "encode_diagnostics", counting_encode)
        lines = crawl(tmp_path / "report")
        spill = [
            json.loads(line)
            for line in (tmp_path / "report" / "pages.jsonl").read_text().splitlines()
        ]
        pages = [record for record in spill if "error" not in record]
        assert pages and len(spill) > len(pages)  # the edge web has failures
        written = sum(record["count"] for record in pages)
        assert written and len(encoded) == written
        # Both sinks carry the same rows, page by page.
        streamed = {record.pop("file"): record for record in map(json.loads, lines)}
        assert {record.pop("page"): record for record in spill} == {
            name: record if "error" in record else {**record, "phase": "lint"}
            for name, record in streamed.items()
        }
