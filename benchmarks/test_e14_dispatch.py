"""E14 -- compiled event dispatch vs the seed's call-everything loop.

The seed engine invoked every rule's hooks for every token (the "one
big loop" the paper's weblint 2 rewrite was escaping).  The compiled
dispatch pipeline routes each event only to rules that subscribed to
it, with per-element fan-out for tag hooks.

Reproduction targets:

- identical diagnostics on the same documents (golden equivalence also
  pinned per-sample in ``tests/test_dispatch.py``);
- hook-call count strictly below ``rules x tokens``;
- E10-style throughput no worse than the naive mode.

``BENCH_dispatch.json`` records the before (naive) / after (compiled)
numbers each benchmark run.
"""

from __future__ import annotations

import time

from repro import Weblint
from repro.core.rules import default_rules
from repro.html.tokenizer import tokenize
from repro.obs import use_registry
from repro.workload import GeneratorConfig, PageGenerator

from conftest import print_table, record


def _page_of_size(paragraphs: int) -> str:
    config = GeneratorConfig(paragraphs=paragraphs, images=2, tables=2, lists=2)
    return PageGenerator(seed=paragraphs, config=config).page()


def _measure(weblint: Weblint, page: str, repeats: int = 5):
    """Best-of-N check time plus the dispatch-call count for one check."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        weblint.check_string(page)
        best = min(best, time.perf_counter() - start)
    with use_registry() as registry:
        weblint.check_string(page)
        calls = registry.value("engine.dispatch.calls")
    return best, calls


def test_e14_dispatch_vs_naive(benchmark):
    page = _page_of_size(80)
    token_count = len(tokenize(page))
    rule_count = len(default_rules())

    compiled = Weblint()
    naive = Weblint(naive_dispatch=True)

    benchmark(compiled.check_string, page)

    compiled_time, compiled_calls = _measure(compiled, page)
    naive_time, naive_calls = _measure(naive, page)

    # Same verdicts, fewer calls: the table must beat rules x tokens ...
    assert compiled_calls < rule_count * token_count
    # ... by a wide margin (most tokens interest only a few rules).
    assert compiled_calls < naive_calls / 2
    # Identical output is the table's reason to exist.
    assert [
        (d.message_id, d.line, d.text) for d in compiled.check_string(page)
    ] == [(d.message_id, d.line, d.text) for d in naive.check_string(page)]
    # Throughput no worse than call-everything (generous slack: both
    # modes are fast and CI machines are noisy).
    assert compiled_time < naive_time * 1.25

    kb = len(page) / 1024
    rows = [
        (
            mode,
            f"{calls}",
            f"{elapsed * 1000:.2f} ms",
            f"{kb / elapsed:.0f} KB/s",
            f"{token_count / elapsed:.0f} tok/s",
        )
        for mode, calls, elapsed in (
            ("naive (seed)", naive_calls, naive_time),
            ("compiled", compiled_calls, compiled_time),
        )
    ]
    record(
        "BENCH_dispatch.json",
        "e14_naive",
        hook_calls=naive_calls,
        check_ms=round(naive_time * 1000, 3),
        kb_per_s=round(kb / naive_time, 1),
        tokens_per_s=round(token_count / naive_time, 1),
    )
    record(
        "BENCH_dispatch.json",
        "e14_compiled",
        hook_calls=compiled_calls,
        check_ms=round(compiled_time * 1000, 3),
        kb_per_s=round(kb / compiled_time, 1),
        tokens_per_s=round(token_count / compiled_time, 1),
    )
    record(
        "BENCH_dispatch.json",
        "e14_workload",
        doc_kb=round(kb, 1),
        tokens=token_count,
        rules=rule_count,
        rules_x_tokens=rule_count * token_count,
        call_reduction=round(1 - compiled_calls / naive_calls, 3),
    )
    record(
        "BENCH_obs.json",
        "e14_dispatch",
        compiled_calls=compiled_calls,
        naive_calls=naive_calls,
        rules_x_tokens=rule_count * token_count,
    )
    print_table(
        "E14: compiled dispatch vs call-everything "
        f"({kb:.0f} KB, {token_count} tokens, {rule_count} rules)",
        rows,
        headers=("mode", "hook calls", "check time", "throughput", "tokens"),
    )
