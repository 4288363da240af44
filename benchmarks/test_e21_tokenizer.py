"""E21 -- batched tokenizer hot path vs the char-by-char scanner.

After compiled dispatch (E14), streaming reports (E19) and the warm
daemon (E20), the char-by-char tokenizer was the floor under every
benchmark.  The batched scanner jumps construct-to-construct with
``str.find`` and master regexes, derives line/column lazily from a
precomputed newline index, and skips entity scanning for text runs
with no ``&``.

Reproduction targets:

- byte-identical token streams (the corpus-wide golden equivalence
  test in ``tests/test_tokenizer_equivalence.py`` pins every field;
  this benchmark re-checks counts and engine diagnostics);
- >=3x tokens/s over the pre-rewrite scanner on the E10 corpus (the
  committed BENCH_tokenizer.json records the measured ratio; the
  in-run assert keeps slack for noisy CI runners);
- the win must survive the full engine: `Weblint.check_string` with
  the batched feed beats the same pipeline on the naive feed.

``BENCH_tokenizer.json`` records tokens/s and MB/s for both scanners,
cold and via the engine, plus the exact corpus token/byte counts CI
gates on with ``compare_runs --portable-only``.
"""

from __future__ import annotations

import gc
import time

from repro import Weblint
from repro.core import engine as engine_module
from repro.html import _tokenizer_naive as naive_tokenizer
from repro.html import tokenizer as batched_tokenizer
from repro.workload import GeneratorConfig, PageGenerator

from conftest import print_table, record

#: The E10 corpus: one page per size tier, same generator seeds the
#: throughput benchmark uses, so tokens/s is comparable across PRs.
_PAGE_SIZES = (5, 20, 80, 320)


def _corpus() -> list[str]:
    return [
        PageGenerator(
            seed=n, config=GeneratorConfig(paragraphs=n, images=2, tables=2, lists=2)
        ).page()
        for n in _PAGE_SIZES
    ]


def _interleaved_best(fns, pages, rounds: int = 10) -> list[float]:
    """Best-of-N wall clock for each callable, measured interleaved.

    Alternating the candidates inside one loop makes background noise
    (CI neighbours, turbo states) hit both equally instead of biasing
    whichever ran second; gc is paused so a collection landing inside
    one candidate's window cannot skew the ratio.
    """
    best = [float("inf")] * len(fns)
    gc.collect()
    gc.disable()
    try:
        for _ in range(rounds):
            for i, fn in enumerate(fns):
                start = time.perf_counter()
                for page in pages:
                    fn(page)
                best[i] = min(best[i], time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def test_e21_batched_vs_naive_tokenizer(benchmark):
    pages = _corpus()
    corpus_bytes = sum(len(p) for p in pages)

    batched_tokens = [batched_tokenizer.tokenize(p) for p in pages]
    naive_tokens = [naive_tokenizer.tokenize(p) for p in pages]
    token_count = sum(len(t) for t in batched_tokens)

    # Same number of tokens per document, token for token, before any
    # timing: a fast wrong scanner would make every number below a lie.
    # (Full field-by-field equivalence is pinned corpus-wide in
    # tests/test_tokenizer_equivalence.py.)
    for fast_doc, slow_doc in zip(batched_tokens, naive_tokens):
        assert len(fast_doc) == len(slow_doc)
        for fast_tok, slow_tok in zip(fast_doc, slow_doc):
            assert fast_tok == slow_tok

    def run_batched(page: str) -> None:
        batched_tokenizer.tokenize(page)

    def run_naive(page: str) -> None:
        naive_tokenizer.tokenize(page)

    benchmark(run_batched, pages[2])

    batched_cold, naive_cold = _interleaved_best([run_batched, run_naive], pages)
    cold_speedup = naive_cold / batched_cold

    # The rewrite's reason to exist: a multi-x win on the E10 corpus.
    # Locally the interleaved measurement lands at 3.1-3.6x (the
    # committed BENCH_tokenizer.json records the >=3x ratio); the
    # in-run floor leaves headroom for noisy virtualized runners.
    assert cold_speedup >= 2.0, (
        f"batched scanner only {cold_speedup:.2f}x over naive "
        f"({token_count / batched_cold:,.0f} vs {token_count / naive_cold:,.0f} tok/s)"
    )

    # -- via the engine: the full lint pipeline on each feed ------------
    batched_lint = Weblint()
    diagnostics = [batched_lint.check_string(p) for p in pages]
    diagnostic_count = sum(len(d) for d in diagnostics)

    def check_corpus(page: str) -> None:
        batched_lint.check_string(page)

    (engine_batched,) = _interleaved_best([check_corpus], pages, rounds=5)

    original_feed = engine_module.iter_tokens
    engine_module.iter_tokens = naive_tokenizer.iter_tokens
    try:
        naive_lint = Weblint()
        naive_diagnostics = [naive_lint.check_string(p) for p in pages]
        (engine_naive,) = _interleaved_best(
            [lambda page: naive_lint.check_string(page)], pages, rounds=5
        )
    finally:
        engine_module.iter_tokens = original_feed

    # The diagnostics a site operator sees must not depend on which
    # scanner fed the engine.
    assert [
        [(d.message_id, d.line, d.column, d.text) for d in doc]
        for doc in diagnostics
    ] == [
        [(d.message_id, d.line, d.column, d.text) for d in doc]
        for doc in naive_diagnostics
    ]
    # Tokenization is a big slice of engine time, so the engine must
    # inherit a visible share of the win (generous slack: rules and
    # dispatch dilute it).
    assert engine_batched < engine_naive

    mb = corpus_bytes / 1e6
    rows = [
        (
            mode,
            f"{token_count / elapsed:,.0f} tok/s",
            f"{mb / elapsed:.2f} MB/s",
            f"{elapsed * 1000:.2f} ms",
        )
        for mode, elapsed in (
            ("naive cold", naive_cold),
            ("batched cold", batched_cold),
            ("engine naive feed", engine_naive),
            ("engine batched feed", engine_batched),
        )
    ]

    record(
        "BENCH_tokenizer.json",
        "e21_naive",
        tokens_per_s=round(token_count / naive_cold, 1),
        mb_per_s=round(mb / naive_cold, 3),
        cold_wall_ms=round(naive_cold * 1000, 3),
        engine_wall_ms=round(engine_naive * 1000, 3),
    )
    record(
        "BENCH_tokenizer.json",
        "e21_batched",
        tokens_per_s=round(token_count / batched_cold, 1),
        mb_per_s=round(mb / batched_cold, 3),
        cold_wall_ms=round(batched_cold * 1000, 3),
        engine_wall_ms=round(engine_batched * 1000, 3),
        speedup=round(cold_speedup, 2),
        engine_speedup=round(engine_naive / engine_batched, 2),
    )
    record(
        "BENCH_tokenizer.json",
        "e21_workload",
        documents=len(pages),
        tokens=token_count,
        corpus_bytes=corpus_bytes,
        diagnostics=diagnostic_count,
    )
    record(
        "BENCH_obs.json",
        "e21_tokenizer",
        speedup=round(cold_speedup, 2),
        tokens=token_count,
    )
    print_table(
        f"E21: batched vs char-by-char scanner "
        f"({len(pages)} docs, {token_count} tokens, {mb:.2f} MB, "
        f"{cold_speedup:.2f}x cold)",
        rows,
        headers=("mode", "tokens", "bandwidth", "wall"),
    )
