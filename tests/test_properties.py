"""Property-based tests (hypothesis) for system-wide invariants.

These pin the robustness claims: the ad-hoc tokenizer and the checker
never crash on arbitrary input (weblint's whole job is surviving broken
HTML), positions stay within the document, the generator's output is
always clean, the fixer's output is always *cleaner*, and the
result-cache log cut at any byte loses only the records the cut reached.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Options, Weblint
from repro.baselines.htmlchek import HtmlchekChecker
from repro.baselines.strict import StrictValidator
from repro.baselines.tidylike import TidyLikeFixer
from repro.core.cache import FORMAT_VERSION, ResultCache, result_key
from repro.core.diagnostics import Diagnostic, encode_diagnostics
from repro.core.messages import Category
from repro.html.tokenizer import tokenize
from repro.obs.metrics import use_registry
from repro.workload import ErrorSeeder, PageGenerator

# -- strategies -------------------------------------------------------------------

# Arbitrary text with markup metacharacters well represented.
markup_soup = st.text(
    alphabet=st.sampled_from(
        list("<>\"'=/&;!- \n\tabcdeHIMGPRS#%123")
    ),
    max_size=300,
)

# Fragments assembled from plausible tag pieces -- nastier than plain text
# because structure is almost right.
tag_pieces = st.lists(
    st.sampled_from(
        [
            "<p>", "</p>", "<b>", "</b>", "<a href=\"x\">", "</a>",
            "<img src=x alt='y'>", "text ", "<h1>", "</h2>", "<!-- c -->",
            "<!DOCTYPE html>", "&copy;", "&zorp;", "<table>", "</table>",
            "<td>", "\n", '"', "'", "<", ">", "<script>", "</script>",
            "<title>", "</head>", "<foo bar=", "<>",
        ]
    ),
    max_size=40,
).map("".join)

fuzz_settings = settings(
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)


class TestTokenizerRobustness:
    @fuzz_settings
    @given(markup_soup)
    def test_never_crashes_on_soup(self, source):
        tokenize(source)

    @fuzz_settings
    @given(tag_pieces)
    def test_never_crashes_on_fragments(self, source):
        tokenize(source)

    @fuzz_settings
    @given(tag_pieces)
    def test_positions_in_bounds(self, source):
        lines = source.count("\n") + 1
        for token in tokenize(source):
            assert 1 <= token.line <= lines
            assert token.column >= 1

    @fuzz_settings
    @given(markup_soup)
    def test_raw_text_covers_input_text(self, source):
        # Text tokens never invent characters that were not in the input.
        for token in tokenize(source):
            assert token.raw in source or token.raw == ""

    @fuzz_settings
    @given(tag_pieces)
    def test_tokenizer_is_lossless(self, source):
        """Every input byte lands in exactly one token's ``raw``.

        This is what makes weblint's lexical messages trustworthy: the
        tokenizer can always point back at the original text.
        """
        assert "".join(t.raw for t in tokenize(source)) == source

    @fuzz_settings
    @given(markup_soup)
    def test_tokenizer_is_lossless_on_soup(self, source):
        assert "".join(t.raw for t in tokenize(source)) == source


class TestCheckerRobustness:
    @fuzz_settings
    @given(tag_pieces)
    def test_weblint_never_crashes(self, source):
        Weblint().check_string(source)

    @fuzz_settings
    @given(tag_pieces)
    def test_pedantic_never_crashes(self, source):
        options = Options.with_defaults()
        options.enable("all")
        Weblint(options=options).check_string(source)

    @fuzz_settings
    @given(tag_pieces)
    def test_diagnostic_lines_in_bounds(self, source):
        lines = source.count("\n") + 1
        for diagnostic in Weblint().check_string(source):
            assert 1 <= diagnostic.line <= lines

    @fuzz_settings
    @given(tag_pieces)
    def test_disabled_messages_never_emitted(self, source):
        options = Options.with_defaults()
        options.disable("all")
        options.enable("odd-quotes")
        for diagnostic in Weblint(options=options).check_string(source):
            assert diagnostic.message_id == "odd-quotes"

    @fuzz_settings
    @given(tag_pieces)
    def test_deterministic(self, source):
        first = Weblint().check_string(source)
        second = Weblint().check_string(source)
        assert [(d.line, d.message_id) for d in first] == [
            (d.line, d.message_id) for d in second
        ]

    @fuzz_settings
    @given(tag_pieces)
    def test_baselines_never_crash(self, source):
        HtmlchekChecker().check_string(source)
        StrictValidator().check_string(source)


class TestGeneratorInvariant:
    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_any_seed_is_default_clean(self, seed):
        page = PageGenerator(seed=seed).page()
        assert Weblint().check_string(page) == []

    @given(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_seeded_errors_always_detected_pedantically(self, seed, count):
        page = PageGenerator(seed=seed).page()
        seeded = ErrorSeeder(seed=seed).seed_errors(page, count=count)
        options = Options.with_defaults()
        options.enable("all")
        options.disable("upper-case", "lower-case")
        got = {d.message_id for d in Weblint(options=options).check_string(seeded.source)}
        # Every injected mistake class shows up at least once.
        for expected in seeded.expected_messages():
            assert expected in got


class TestFixerInvariant:
    @fuzz_settings
    @given(tag_pieces)
    def test_fixer_never_crashes(self, source):
        TidyLikeFixer().fix_string(source)

    @given(st.integers(min_value=0, max_value=60))
    @settings(max_examples=15, deadline=None)
    def test_fixed_seeded_page_has_fewer_errors(self, seed):
        page = PageGenerator(seed=seed).page()
        seeded = ErrorSeeder(seed=seed).seed_errors(page, count=3)
        weblint = Weblint()

        def errors(src):
            return sum(
                1
                for d in weblint.check_string(src)
                if d.category.value == "error"
            )

        fixed = TidyLikeFixer().fix_string(seeded.source)
        assert errors(fixed.html) <= errors(seeded.source)


# One cache entry: a list of (message id, text, line) findings.
cache_entry = st.lists(
    st.tuples(
        st.sampled_from(["img-alt", "odd-quotes", "unclosed-element"]),
        st.text(max_size=30),
        st.integers(min_value=1, max_value=10_000),
    ),
    max_size=4,
)


class TestCacheSegmentTornTail:
    """A writer killed mid-record leaves a torn tail in the log."""

    @settings(max_examples=8, deadline=None)
    @given(st.lists(cache_entry, min_size=1, max_size=4))
    def test_truncation_inside_last_record(self, entries):
        """Cut the log at every byte offset inside its last record:
        every earlier record is still a hit, the torn one a miss."""
        keys, stored = _keys_and_diagnostics(entries)
        with tempfile.TemporaryDirectory() as directory:
            log = _write_log(directory, keys, stored)
            data = log.read_bytes()
            for cut in range(len(data) - 1, _line_starts(data)[-1] - 1, -1):
                os.truncate(log, cut)
                reader = ResultCache(directory)
                for key, diagnostics in zip(keys[:-1], stored):
                    assert _findings(_hit(reader, key)) == _findings(diagnostics)
                assert reader.get(keys[-1]) is None
                reader.close()

    @settings(max_examples=8, deadline=None)
    @given(st.lists(cache_entry, min_size=1, max_size=4))
    def test_cut_anywhere_then_append(self, entries):
        """Cut the log at any byte, then store one record from a fresh
        writer: every record wholly before the cut hits with its own
        rows, none after it hits, the new record hits, and the cut is
        counted exactly when it tore a record."""
        keys, stored = _keys_and_diagnostics(entries)
        new_key = result_key("the record after the cut", b"fp")
        new_rows = [Diagnostic(message_id="img-alt", category=Category.WARNING,
                               text="after the cut", line=1)]
        with tempfile.TemporaryDirectory() as directory:
            log = _write_log(directory, keys, stored)
            data = log.read_bytes()
            ends = _line_starts(data)[1:] + [len(data)]
            for cut in range(len(data) + 1):
                log.write_bytes(data)
                os.truncate(log, cut)
                with use_registry() as registry:
                    writer = ResultCache(directory)
                    writer.put(new_key, encode_diagnostics(new_rows))
                    writer.close()
                torn = cut not in ends and cut != 0
                assert registry.snapshot().get("cache.lint.corrupt", 0) == torn
                reader = ResultCache(directory)
                for key, diagnostics, end in zip(keys, stored, ends):
                    found = _hit(reader, key)
                    if end <= cut:
                        assert _findings(found) == _findings(diagnostics)
                    else:
                        assert found is None
                assert _findings(_hit(reader, new_key)) == _findings(new_rows)
                reader.close()


def _keys_and_diagnostics(entries) -> tuple[list[str], list[list[Diagnostic]]]:
    keys = [result_key(f"document {index}", b"fp") for index in range(len(entries))]
    stored = [
        [
            Diagnostic(
                message_id=message_id, category=Category.WARNING,
                text=text, line=line,
            )
            for message_id, text, line in findings
        ]
        for findings in entries
    ]
    return keys, stored


def _write_log(directory: str, keys, stored) -> Path:
    cache = ResultCache(directory)
    for key, diagnostics in zip(keys, stored):
        cache.put(key, encode_diagnostics(diagnostics))
    cache.close()
    [log] = Path(directory, f"v{FORMAT_VERSION}").glob("*")
    return log


def _hit(cache: ResultCache, key: str):
    """The diagnostics a lookup serves, or ``None`` on a miss."""
    found = cache.get(key)
    return None if found is None else found.diagnostics


def _findings(diagnostics):
    if diagnostics is None:
        return None
    return [(d.message_id, d.text, d.line) for d in diagnostics]


def _line_starts(data: bytes) -> list[int]:
    """Offset of every record line of the log: one JSON object a line."""
    return [0] + [index + 1 for index, byte in enumerate(data[:-1]) if byte == 0x0A]
