"""The persistent lint-result cache and the conditional-fetch recrawl.

The contract under test (docs/caching.md):

- the cache key covers every axis that can change lint output, so a
  change to the document, the options, the rule set or the HTML spec is
  a miss -- never a stale hit;
- hits are byte-identical to a fresh engine run, with diagnostics
  re-bound to the requesting document's name;
- a corrupt, truncated or wrong-version disk entry degrades to a miss,
  never an error;
- the disk tier's one append-only log: records visible across
  processes, a torn tail or a record glued onto one a miss, failed
  writes cut back, a read-only directory degrades to memory, and a
  writer SIGKILLed mid-batch loses only its unfinished record;
- a ``UserAgent`` with an ``http_cache`` revalidates unchanged pages via
  ``304 Not Modified`` and falls back to a full GET when the stored body
  has been evicted;
- a warm ``poacher --state-dir`` crawl reports exactly what the cold
  crawl reported.
"""

from __future__ import annotations

import json
import os
import signal
import struct
import subprocess
import sys
import time
import zlib
from pathlib import Path

import pytest

import repro
from repro.cli import main as weblint_main
from repro.config.options import Options
from repro.core.cache import (
    FORMAT_VERSION,
    ResultCache,
    result_key,
    service_fingerprint,
)
from repro.core.diagnostics import Diagnostic
from repro.core.messages import Category
from repro.core.registry import default_registry
from repro.core.service import LintRequest, LintService, PathSource, StringSource
from repro.obs.metrics import use_registry
from repro.robot.cli import main as poacher_main
from repro.robot.frontier import shard_owns
from repro.robot.poacher import Poacher
from repro.robot.traversal import TraversalPolicy
from repro.site.links import scan_page
from repro.site.sitecheck import SiteChecker
from repro.workload.generator import PageGenerator
from repro.www.client import UserAgent
from repro.www.httpcache import HttpCache
from repro.www.virtualweb import VirtualWeb
from tests.conftest import make_document

DOCUMENT = make_document("<p>hello<img src=x></p>")

#: A version-2 segment's record header: magic, raw key, payload length,
#: crc32 (a cache directory written before the one log may hold these).
V2_HEADER = struct.Struct("<4s32sII")


def fingerprint_of(service: LintService) -> bytes:
    return service.cache_fingerprint()


def logs(cache_dir: Path) -> list[Path]:
    """Every file of the disk tier: its one log, once written."""
    return sorted((cache_dir / f"v{FORMAT_VERSION}").glob("*"))


def record_spans(log: Path) -> list[tuple[int, int]]:
    """``(start, end)`` of every whole line, in file order."""
    data = log.read_bytes()
    spans, start = [], 0
    while (end := data.find(b"\n", start)) >= 0:
        spans.append((start, end + 1))
        start = end + 1
    return spans


def record_keys(log: Path) -> list[str]:
    """The key of every whole record line (docs/caching.md), parsed as
    JSON here, independently of the cache code."""
    data = log.read_bytes()
    return [json.loads(data[start:end])["k"] for start, end in record_spans(log)]


def stub_diagnostics(count: int) -> list[Diagnostic]:
    return [
        Diagnostic(
            message_id="img-alt", category=Category.WARNING,
            text=f"finding {index}", line=index + 1, column=1,
        )
        for index in range(count)
    ]


class TestKeyInvalidation:
    """Changing any configuration axis must change every key."""

    def test_document_change_changes_key(self):
        fingerprint = fingerprint_of(LintService())
        assert result_key("<p>a</p>", fingerprint) != result_key(
            "<p>b</p>", fingerprint
        )

    def test_options_change_changes_key(self):
        pedantic = Options.with_defaults()
        pedantic.enable("upper-case")
        assert fingerprint_of(LintService()) != fingerprint_of(
            LintService(options=pedantic)
        )

    def test_ruleset_change_changes_key(self):
        registry = default_registry()
        registry.disable(next(iter(registry.names())))
        assert fingerprint_of(LintService()) != fingerprint_of(
            LintService(registry=registry)
        )

    def test_spec_change_changes_key(self):
        assert fingerprint_of(LintService(spec="html4")) != fingerprint_of(
            LintService(spec="netscape")
        )

    def test_fingerprint_is_deterministic(self):
        assert fingerprint_of(LintService()) == fingerprint_of(LintService())

    def test_fingerprint_survives_frozenset_order(self):
        """Two equal option sets built in different orders key alike."""
        first = Options.with_defaults()
        first.enable("upper-case", "here-anchor")
        second = Options.with_defaults()
        second.enable("here-anchor", "upper-case")
        assert service_fingerprint(
            first.fingerprint(), "html4", (), True
        ) == service_fingerprint(second.fingerprint(), "html4", (), True)


class TestResultCache:
    def test_warm_hit_equals_cold_result(self, tmp_path):
        page = tmp_path / "page.html"
        page.write_text(DOCUMENT)
        cold = LintService(cache=ResultCache(tmp_path / "cache"))
        first = cold.check(PathSource(page))
        warm = LintService(cache=ResultCache(tmp_path / "cache"))
        second = warm.check(PathSource(page))
        assert [str(d) for d in first.diagnostics] == [
            str(d) for d in second.diagnostics
        ]

    def test_hits_rebind_filenames(self, tmp_path):
        """Identical documents at different paths share one entry."""
        for name in ("a.html", "b.html"):
            (tmp_path / name).write_text(DOCUMENT)
        service = LintService(cache=ResultCache(tmp_path / "cache"))
        service.check(PathSource(tmp_path / "a.html"))
        with use_registry() as registry:
            result = service.check(PathSource(tmp_path / "b.html"))
        assert registry.snapshot().get("cache.lint.hits") == 1
        assert result.diagnostics
        assert all(
            d.filename == str(tmp_path / "b.html") for d in result.diagnostics
        )

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        """A payload byte flipped on disk fails the crc: a counted miss."""
        page = tmp_path / "page.html"
        page.write_text(DOCUMENT)
        cache = ResultCache(tmp_path / "cache")
        service = LintService(cache=cache)
        expected = service.check(PathSource(page)).diagnostics
        cache.close()
        [log] = logs(tmp_path / "cache")
        [(start, end)] = record_spans(log)
        data = bytearray(log.read_bytes())
        data[end - 4] ^= 0x01  # inside the rows, before their "]}\n"
        log.write_bytes(bytes(data))
        with use_registry() as registry:
            fresh = LintService(cache=ResultCache(tmp_path / "cache"))
            result = fresh.check(PathSource(page))
        snapshot = registry.snapshot()
        assert snapshot.get("cache.lint.corrupt") == 1
        assert snapshot.get("cache.lint.misses") == 1
        assert [str(d) for d in result.diagnostics] == [
            str(d) for d in expected
        ]

    def test_wrong_version_entry_is_a_miss(self, tmp_path):
        """Neither a version-1 file nor a version-2 segment is read,
        even under the current key."""
        page = tmp_path / "page.html"
        page.write_text(DOCUMENT)
        cache = ResultCache(tmp_path / "cache")
        service = LintService(cache=cache)
        key = service._cache_key(DOCUMENT)
        service.check(PathSource(page))
        cache.close()
        [log] = logs(tmp_path / "cache")
        log.unlink()
        raw, rows = bytes.fromhex(key), b"[]"
        crc = zlib.crc32(rows, zlib.crc32(raw))
        segment = tmp_path / "cache" / "v2" / f"seg-{'0' * 16}.log"
        segment.parent.mkdir()
        segment.write_bytes(V2_HEADER.pack(b"WLC2", raw, len(rows), crc) + rows)
        legacy = tmp_path / "cache" / key[:2] / f"{key}.json"
        legacy.parent.mkdir()
        legacy.write_text(json.dumps({"version": 1, "diagnostics": []}))
        with use_registry() as registry:
            fresh = LintService(cache=ResultCache(tmp_path / "cache"))
            result = fresh.check(PathSource(page))
        assert registry.snapshot().get("cache.lint.misses") == 1
        assert result.diagnostics  # not the empty list the old file held

    def test_memory_lru_evicts_and_counts(self, tmp_path):
        cache = ResultCache(memory_entries=2)
        service = LintService(cache=cache)
        with use_registry() as registry:
            for index in range(4):
                service.check(
                    StringSource(make_document(f"<p>page {index}</p>"))
                )
        assert registry.snapshot().get("cache.lint.evictions") == 2

    def test_clear_counts_removed_entries(self, tmp_path):
        """The log, a version-3 log, a version-2 segment directory and a
        version-1 shard tree go; the log's keys and the version-1
        entries count."""
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        service = LintService(cache=cache)
        for index in range(3):
            service.check(StringSource(make_document(f"<p>{index}</p>")))
        (cache_dir / "v3").mkdir()
        (cache_dir / "v3" / "results.jsonl").write_text(
            f'{{"k":"{"0" * 64}","c":"00000000","d":[]}}\n'
        )
        legacy = cache_dir / "ab"
        legacy.mkdir()
        (legacy / f"ab{'0' * 62}.json").write_text("{}")
        (legacy / ".ab000000.x.tmp").write_text("")
        (cache_dir / "v2").mkdir()
        (cache_dir / "v2" / f"seg-{'0' * 16}.log").write_bytes(b"WLC2")
        (cache_dir / "notes.txt").write_text("not the cache's")
        assert cache.clear() == 4
        assert cache.clear() == 0
        assert sorted(p.name for p in cache_dir.iterdir()) == ["notes.txt"]
        # Still usable after a clear: the next put starts a new log.
        service.check(StringSource(make_document("<p>after</p>")))
        assert len(logs(cache_dir)) == 1

    def test_explicit_rules_disable_the_cache(self, tmp_path):
        from repro.core.rules.base import Rule

        class Custom(Rule):
            name = "custom"

        service = LintService(
            rules=[Custom()], cache=ResultCache(tmp_path / "cache")
        )
        assert service.cache is None

    def test_trace_and_profile_bypass_the_cache(self, tmp_path):
        from repro.obs.profile import use_profiler
        from repro.obs.trace import use_tracer

        service = LintService(cache=ResultCache(tmp_path / "cache"))
        service.check(StringSource(DOCUMENT))
        with use_registry() as registry:
            with use_tracer():
                service.check(StringSource(DOCUMENT))
            with use_profiler():
                service.check(StringSource(DOCUMENT))
        snapshot = registry.snapshot()
        assert snapshot.get("cache.lint.bypassed") == 2
        assert "cache.lint.hits" not in snapshot

    def test_parallel_warm_batch_hits_in_parent(self, tmp_path, monkeypatch):
        import repro.core.service as service_module

        paths = []
        for index in range(6):
            path = tmp_path / f"p{index}.html"
            path.write_text(make_document(f"<p>page {index}<img src=x></p>"))
            paths.append(path)
        cold = LintService(cache=ResultCache(tmp_path / "cache"))
        before = cold.check_many([PathSource(p) for p in paths], jobs=2)
        pools = []

        def no_pool(*args):
            pools.append(args)
            raise OSError("a fully warm batch must not start worker processes")

        monkeypatch.setattr(service_module, "_start_workers", no_pool)
        warm = LintService(cache=ResultCache(tmp_path / "cache"))
        with use_registry() as registry:
            after = warm.check_many([PathSource(p) for p in paths], jobs=2)
        assert pools == []
        assert registry.snapshot().get("cache.lint.hits") == 6
        assert [
            [str(d) for d in result.diagnostics] for result in before
        ] == [[str(d) for d in result.diagnostics] for result in after]


def keys_for(*names: str) -> list[str]:
    return [result_key(name, b"fingerprint") for name in names]


def announce_then_sleep(started) -> None:
    started.set()
    time.sleep(30)


def stress_key(writer: int, thread: int, index: int) -> str:
    return result_key(f"writer {writer} thread {thread} doc {index}", b"fingerprint")


def write_from_two_threads(directory: Path, writer: int, per_thread: int) -> None:
    """One writer process: two threads appending through one cache."""
    import threading

    sys.setswitchinterval(1e-6)  # this process exits right after
    cache = ResultCache(directory)

    def work(thread: int) -> None:
        for index in range(per_thread):
            cache.put(stress_key(writer, thread, index), stub_diagnostics(index % 4))

    threads = [threading.Thread(target=work, args=(thread,)) for thread in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


LINKED_PAGE = make_document(
    '<p id="top"><a name="mid" href="other.html#x">x</a>'
    '<img src="pic.gif" alt="pic">'
    '<a name="m\u00fcde" href="\u00fcber.html">y</a></p>'
)


class TestLinksInRecords:
    """A record keeps the page's links and anchors beside its rows."""

    def test_links_and_anchors_round_trip(self, tmp_path):
        links, anchors = scan_page(LINKED_PAGE)
        key, bare = keys_for("linked", "bare")
        writer = ResultCache(tmp_path / "cache")
        writer.put(key, stub_diagnostics(1), links, anchors)
        writer.put(bare, stub_diagnostics(1))
        writer.close()
        found = ResultCache(tmp_path / "cache").get(key)
        assert (found.links, found.anchors) == (links, anchors)
        assert [d.text for d in found.diagnostics] == ["finding 0"]
        unlinked = ResultCache(tmp_path / "cache").get(bare)
        assert (unlinked.links, unlinked.anchors) == (None, None)

    def test_a_byte_flipped_in_the_links_is_a_counted_miss(self, tmp_path):
        """The crc covers the links as well as the rows."""
        [key] = keys_for("linked")
        writer = ResultCache(tmp_path / "cache")
        writer.put(key, stub_diagnostics(1), *scan_page(LINKED_PAGE))
        writer.close()
        [log] = logs(tmp_path / "cache")
        data = bytearray(log.read_bytes())
        data[data.index(b"pic.gif")] ^= 0x01  # still valid JSON
        log.write_bytes(bytes(data))
        with use_registry() as registry:
            assert ResultCache(tmp_path / "cache").get(key) is None
        assert registry.snapshot().get("cache.lint.corrupt") == 1

    def test_a_record_without_links_serves_a_links_request(self, tmp_path):
        """A batch that did not want links stored the record: a request
        for links hits it, scans the page once for them, and leaves the
        log as it is."""
        page = tmp_path / "page.html"
        page.write_text(LINKED_PAGE)
        batch = LintService(cache=ResultCache(tmp_path / "cache"))
        stored = batch.check(PathSource(page))
        [log] = logs(tmp_path / "cache")
        size = log.stat().st_size
        service = LintService(cache=ResultCache(tmp_path / "cache"))
        with use_registry() as registry:
            result = service.check(LintRequest(PathSource(page), links=True))
        snapshot = registry.snapshot()
        assert snapshot.get("cache.lint.hits") == 1
        assert snapshot.get("tokenizer.documents") == 1
        assert snapshot.get("engine.documents") is None
        assert [str(d) for d in result.diagnostics] == [
            str(d) for d in stored.diagnostics
        ]
        assert (result.links, result.anchors) == scan_page(LINKED_PAGE)
        assert log.stat().st_size == size


class TestSegmentLog:
    """The disk tier's one append-only log (docs/caching.md)."""

    def test_put_is_a_hit_for_an_instance_already_open(self, tmp_path):
        writer = ResultCache(tmp_path / "cache")
        reader = ResultCache(tmp_path / "cache")
        [key] = keys_for("shared")
        assert reader.get(key) is None  # indexes the directory as it is
        writer.put(key, stub_diagnostics(2))
        with use_registry() as registry:
            found = reader.get(key, filename="x.html").diagnostics
        assert [d.text for d in found] == ["finding 0", "finding 1"]
        assert {d.filename for d in found} == {"x.html"}
        assert registry.snapshot().get("cache.lint.hits") == 1

    def test_a_record_damaged_after_indexing_is_a_counted_miss(self, tmp_path):
        """A hit checks the crc of the payload it reads, not only the
        scan that indexed it."""
        cache_dir = tmp_path / "cache"
        key, absent = keys_for("key", "absent")
        writer = ResultCache(cache_dir)
        writer.put(key, stub_diagnostics(2))
        writer.close()
        reader = ResultCache(cache_dir)
        assert reader.get(absent) is None  # indexes the whole record
        [log] = logs(cache_dir)
        with log.open("r+b") as handle:  # in place: the same file
            handle.seek(log.read_bytes().index(b"finding 1"))
            handle.write(b"g")  # still valid JSON: only the crc can tell
        with use_registry() as registry:
            assert reader.get(key) is None
        assert registry.snapshot().get("cache.lint.corrupt") == 1

    def test_an_open_instance_follows_a_cleared_log(self, tmp_path):
        """Another instance clears the directory and writes afresh: one
        that had indexed the old log finds the new record, and its next
        put lands in the new log."""
        cache_dir = tmp_path / "cache"
        old, new, later, absent = keys_for("old", "new", "later", "absent")
        holder = ResultCache(cache_dir)
        holder.put(old, stub_diagnostics(1))
        assert holder.get(absent) is None  # indexes the old log
        other = ResultCache(cache_dir)
        assert other.clear() == 1
        other.put(new, stub_diagnostics(2))
        other.close()
        assert [d.text for d in holder.get(new).diagnostics] == [
            "finding 0", "finding 1",
        ]
        holder.put(later, stub_diagnostics(1))
        holder.close()
        [log] = logs(cache_dir)
        assert record_keys(log) == [new, later]

    def test_sequential_writers_leave_one_segment(self, tmp_path):
        keys = keys_for(*(f"document {index}" for index in range(20)))
        for key in keys:
            cache = ResultCache(tmp_path / "cache")
            cache.put(key, stub_diagnostics(1))
            cache.close()
        [segment] = logs(tmp_path / "cache")
        assert record_keys(segment) == keys
        reader = ResultCache(tmp_path / "cache")
        assert all(reader.get(key) is not None for key in keys)

    def test_concurrent_writers_lose_nothing(self, tmp_path):
        """More writer processes than cores, two threads each, one
        directory: every record lands whole in the one log."""
        import multiprocessing

        context = multiprocessing.get_context("fork")
        writers = [
            context.Process(
                target=write_from_two_threads, args=(tmp_path / "cache", writer, 25)
            )
            for writer in range(4)
        ]
        for process in writers:
            process.start()
        for process in writers:
            process.join(60)
        assert [process.exitcode for process in writers] == [0, 0, 0, 0]
        expected = {
            stress_key(writer, thread, index): index % 4
            for writer in range(4) for thread in (0, 1) for index in range(25)
        }
        with use_registry() as registry:
            reader = ResultCache(tmp_path / "cache")
            assert {
                key: len(reader.get(key).diagnostics) for key in expected
            } == expected
        assert registry.snapshot().get("cache.lint.corrupt") is None
        written = [
            key for log in logs(tmp_path / "cache") for key in record_keys(log)
        ]
        assert sorted(written) == sorted(expected)
        assert len(logs(tmp_path / "cache")) == 1

    def test_collected_instance_releases_its_segment(self, tmp_path):
        a, b = keys_for("a", "b")
        cache = ResultCache(tmp_path / "cache")
        cache.put(a, [])
        del cache
        ResultCache(tmp_path / "cache").put(b, [])
        assert len(logs(tmp_path / "cache")) == 1

    def test_forked_child_does_not_hold_the_segment(self, tmp_path):
        """A pool worker forked while the log is open holds no lock on
        it: the next writer appends to the same log."""
        import multiprocessing

        a, b = keys_for("a", "b")
        cache = ResultCache(tmp_path / "cache")
        cache.put(a, [])
        context = multiprocessing.get_context("fork")
        started = context.Event()
        child = context.Process(target=announce_then_sleep, args=(started,))
        child.start()
        try:
            # Fork hooks run before the child's target: once it has
            # announced itself, it has closed what it inherited.
            assert started.wait(30)
            cache.close()
            ResultCache(tmp_path / "cache").put(b, [])
            assert len(logs(tmp_path / "cache")) == 1
        finally:
            child.terminate()
            child.join()

    def test_torn_tail_is_a_miss_and_cut_by_the_next_writer(self, tmp_path):
        cache_dir = tmp_path / "cache"
        keys = keys_for("first", "second", "third")
        cache = ResultCache(cache_dir)
        for key in keys:
            cache.put(key, stub_diagnostics(2))
        cache.close()
        [log] = logs(cache_dir)
        _, end = record_spans(log)[-1]
        os.truncate(log, end - 5)
        with use_registry() as registry:
            fresh = ResultCache(cache_dir)
            assert fresh.get(keys[0]) and fresh.get(keys[1])
            assert fresh.get(keys[2]) is None
            assert registry.snapshot().get("cache.lint.corrupt") is None
            fresh.put(keys[2], stub_diagnostics(2))  # opens the log: cuts the tail
            fresh.close()
        assert registry.snapshot().get("cache.lint.corrupt") == 1
        assert record_keys(log) == keys
        assert log.stat().st_size == end

    @pytest.mark.parametrize("fragment", [10, 120])
    def test_a_record_glued_onto_a_killed_writers_fragment_is_a_counted_miss(
        self, tmp_path, fragment
    ):
        """A writer killed mid-record while another holds the log open:
        the holder's next record lands on the fragment.  Whether the
        fragment stops inside the record layout or past it, that line is
        one counted miss and the records around it stay hits."""
        cache_dir = tmp_path / "cache"
        a, glued, after, killed = keys_for("a", "glued", "after", "killed")
        holder = ResultCache(cache_dir)
        holder.put(a, stub_diagnostics(1))  # opens the log
        elsewhere = ResultCache(tmp_path / "elsewhere")
        elsewhere.put(killed, stub_diagnostics(3))
        elsewhere.close()
        [other] = logs(tmp_path / "elsewhere")
        [log] = logs(cache_dir)
        with log.open("ab") as handle:  # the killed writer's partial line
            handle.write(other.read_bytes()[:fragment])
        holder.put(glued, stub_diagnostics(2))
        holder.put(after, stub_diagnostics(2))
        holder.close()
        assert len(record_spans(log)) == 3
        with use_registry() as registry:
            reader = ResultCache(cache_dir)
            assert reader.get(glued) is None
            assert registry.snapshot().get("cache.lint.corrupt") == 1
            assert reader.get(killed) is None
            assert [d.text for d in reader.get(after).diagnostics] == [
                "finding 0", "finding 1",
            ]
            assert [d.text for d in reader.get(a).diagnostics] == ["finding 0"]
        snapshot = registry.snapshot()
        assert snapshot.get("cache.lint.corrupt") == 1
        assert snapshot.get("cache.lint.misses") == 2

    @pytest.mark.parametrize("failure", ["short", "raises"])
    def test_failed_write_is_cut_back_and_counted(
        self, tmp_path, monkeypatch, failure
    ):
        cache_dir = tmp_path / "cache"
        a, b, c = keys_for("a", "b", "c")
        cache = ResultCache(cache_dir)
        cache.put(a, stub_diagnostics(1))
        [log] = logs(cache_dir)
        size = log.stat().st_size
        real_write = os.write

        def failing_write(fd, data):
            if failure == "raises":
                raise OSError(28, "No space left on device")
            return real_write(fd, data[: len(data) // 2])

        monkeypatch.setattr(os, "write", failing_write)
        with use_registry() as registry:
            cache.put(b, stub_diagnostics(3))
        monkeypatch.undo()
        assert registry.snapshot().get("cache.lint.write_errors") == 1
        assert log.stat().st_size == size
        assert cache.get(b) is not None  # the memory tier kept it
        cache.put(c, stub_diagnostics(1))
        cache.close()
        assert record_keys(log) == [a, c]
        assert sorted(cache_dir.rglob("*")) == [log.parent, log]

    def test_read_only_directory_degrades_to_memory_only(
        self, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        old, new, newer = keys_for("old", "new", "newer")
        warm = ResultCache(cache_dir)
        warm.put(old, stub_diagnostics(1))
        warm.close()
        before = {path: path.stat().st_size for path in cache_dir.rglob("*")}
        tree = [cache_dir, *cache_dir.rglob("*")]
        for path in tree:
            path.chmod(0o555 if path.is_dir() else 0o444)
        if os.geteuid() == 0:
            # Permission bits do not bind root: refuse writable opens the
            # way a read-only mount would.
            real_open = os.open

            def read_only_open(path, flags, *args, **kwargs):
                if flags & (os.O_WRONLY | os.O_RDWR | os.O_CREAT):
                    raise OSError(30, "Read-only file system", str(path))
                return real_open(path, flags, *args, **kwargs)

            monkeypatch.setattr(os, "open", read_only_open)
        try:
            with use_registry() as registry:
                cache = ResultCache(cache_dir)
                assert cache.get(old) is not None
                cache.put(new, stub_diagnostics(1))
                cache.put(newer, stub_diagnostics(1))
                assert cache.get(new) is not None  # memory-only
                cache.close()
        finally:
            monkeypatch.undo()
            for path in tree:
                path.chmod(0o755 if path.is_dir() else 0o644)
        assert registry.snapshot().get("cache.lint.write_errors") == 2
        assert {
            path: path.stat().st_size for path in cache_dir.rglob("*")
        } == before


SRC = Path(repro.__file__).resolve().parents[1]


def stat_counts(stderr: str) -> dict[str, int]:
    """The integer counters a ``--stats`` summary printed."""
    counts = {}
    for line in stderr.splitlines():
        name, _, value = line.strip().partition(": ")
        if value.isdigit():
            counts[name] = int(value)
    return counts


class TestKilledWriter:
    """SIGKILL a cold ``weblint --cache-dir D --jobs 2`` batch partway."""

    PAGES = 160

    def test_next_run_recovers_every_completed_record(self, tmp_path, capsys):
        from repro.workload import build_seeded_corpus

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        paths = []
        for index, page in enumerate(build_seeded_corpus(self.PAGES, seed=12)):
            path = corpus / f"page{index:03}.html"
            path.write_text(f"{page.source}<!-- page {index} -->\n")
            paths.append(str(path))
        cache_dir = tmp_path / "cache"
        argv = ["--no-config", "--jobs", "2", "-f", "jsonl", *paths]
        env = {k: v for k, v in os.environ.items() if not k.startswith("WEBLINT_")}
        env["PYTHONPATH"] = str(SRC)
        killed = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "--cache-dir", str(cache_dir), *argv],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while killed.poll() is None and time.monotonic() < deadline:
                if any(record_spans(log) for log in logs(cache_dir)):
                    break
                time.sleep(0.002)
        finally:
            # The whole session: the batch and its pool workers.
            try:
                os.killpg(killed.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            killed.wait()
        assert killed.returncode == -signal.SIGKILL, "finished before the kill"
        completed = {key for log in logs(cache_dir) for key in record_keys(log)}
        assert 0 < len(completed) < self.PAGES

        weblint_main(["--cache-dir", str(cache_dir), "--stats", *argv])
        rerun = capsys.readouterr()
        weblint_main(["--no-cache", *argv])
        uncached = capsys.readouterr()
        assert sorted(rerun.out.splitlines()) == sorted(uncached.out.splitlines())
        counts = stat_counts(rerun.err)
        assert counts.get("cache.lint.corrupt", 0) <= 1
        assert counts["cache.lint.hits"] == len(completed)


class TestConditionalFetch:
    URL = "http://ex.test/"

    def fixture(self, tmp_path):
        web = VirtualWeb()
        web.add_page(self.URL, make_document("<p>version one</p>"))
        cache = HttpCache(tmp_path / "http")
        return web, cache, UserAgent(web, http_cache=cache)

    def test_second_get_revalidates(self, tmp_path):
        web, cache, agent = self.fixture(tmp_path)
        first = agent.get(self.URL)
        with use_registry() as registry:
            second = agent.get(self.URL)
        snapshot = registry.snapshot()
        assert snapshot.get("www.conditional.revalidated") == 1
        assert snapshot.get("www.bytes_fetched", 0) == 0
        assert second.status == 200
        assert second.body == first.body

    def test_changed_page_refetches(self, tmp_path):
        web, cache, agent = self.fixture(tmp_path)
        agent.get(self.URL)
        web.add_page(self.URL, make_document("<p>version two</p>"))
        with use_registry() as registry:
            response = agent.get(self.URL)
        assert registry.snapshot().get("www.conditional.modified") == 1
        assert "version two" in response.body

    def test_evicted_body_falls_back_to_full_get(self, tmp_path):
        web, cache, agent = self.fixture(tmp_path)
        first = agent.get(self.URL)
        cache.evict_body(self.URL)
        (tmp_path / "http" / "bodies").rmdir()  # nothing left on disk either
        with use_registry() as registry:
            second = agent.get(self.URL)
        snapshot = registry.snapshot()
        assert snapshot.get("www.conditional.lost_body") == 1
        assert snapshot.get("www.conditional.revalidated") is None
        assert second.body == first.body

    def test_validators_persist_across_agents(self, tmp_path):
        web, cache, agent = self.fixture(tmp_path)
        agent.get(self.URL)
        cache.save()
        reloaded = HttpCache(tmp_path / "http")
        assert reloaded.load() == 1
        fresh = UserAgent(web, http_cache=reloaded)
        with use_registry() as registry:
            fresh.get(self.URL)
        assert registry.snapshot().get("www.conditional.revalidated") == 1

    def test_corrupt_index_loads_cold(self, tmp_path):
        web, cache, agent = self.fixture(tmp_path)
        agent.get(self.URL)
        cache.save()
        (tmp_path / "http" / "index.json").write_text("][")
        reloaded = HttpCache(tmp_path / "http")
        with use_registry() as registry:
            assert reloaded.load() == 0
            # An index that does not parse is counted, like a
            # wrong-version one; a missing index is a silent cold start.
            assert registry.value("www.httpcache.corrupt") == 1
            assert HttpCache(tmp_path / "absent").load() == 0
            assert registry.value("www.httpcache.corrupt") == 1

    def test_save_writes_only_a_changed_index(self, tmp_path):
        web, cache, agent = self.fixture(tmp_path)
        agent.get(self.URL)
        cache.save()
        index = tmp_path / "http" / "index.json"
        written = index.read_bytes()
        kept = tmp_path / "written-index.json"  # pins the inode number
        os.link(index, kept)
        reloaded = HttpCache(tmp_path / "http")
        assert reloaded.load() == 1
        UserAgent(web, http_cache=reloaded).get(self.URL)  # a 304
        reloaded.save()
        reloaded.save()
        assert index.stat().st_ino == kept.stat().st_ino
        assert index.read_bytes() == written
        # A corrupt index is rewritten by the next save.
        index.write_text("][")
        repaired = HttpCache(tmp_path / "http")
        assert repaired.load() == 0
        repaired.save()
        assert json.loads(index.read_text())["entries"] == {}

    def test_last_modified_revalidates_without_etag(self, tmp_path):
        web = VirtualWeb()
        url = "http://lm.test/"
        web.add_page(
            url,
            make_document("<p>dated</p>"),
            last_modified="Mon, 01 Jan 1996 00:00:00 GMT",
        )
        # Strip the ETag so only If-Modified-Since can match.
        from repro.www.virtualweb import _key

        web._resources[_key(url)].etag = None
        agent = UserAgent(web, http_cache=HttpCache(tmp_path / "http"))
        agent.get(url)
        with use_registry() as registry:
            agent.get(url)
        assert registry.snapshot().get("www.conditional.revalidated") == 1


@pytest.fixture
def site_dir(tmp_path):
    site = tmp_path / "site"
    site.mkdir()
    (site / "index.html").write_text(
        make_document('<p>home <a href="page2.html">two</a><img src=x></p>')
    )
    (site / "page2.html").write_text(make_document("<p>second</p>"))
    return site


class TestIncrementalCrawl:
    def crawl(self, site_dir, state_dir, capsys) -> tuple[int, str]:
        code = poacher_main(
            [str(site_dir), "--state-dir", str(state_dir), "--stats"]
        )
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_warm_crawl_output_is_identical(self, site_dir, tmp_path, capsys):
        state = tmp_path / "state"
        cold_code, cold_out, _ = self.crawl(site_dir, state, capsys)
        warm_code, warm_out, warm_err = self.crawl(site_dir, state, capsys)
        assert warm_code == cold_code
        assert warm_out == cold_out
        assert "www.conditional.revalidated: 2" in warm_err
        assert "cache.lint.hits: 2" in warm_err

    def test_warm_crawl_leaves_the_http_index_alone(
        self, site_dir, tmp_path, capsys
    ):
        state = tmp_path / "state"
        index = state / "http" / "index.json"
        self.crawl(site_dir, state, capsys)
        cold = index.read_bytes()
        # A second link keeps the cold inode alive, so a rewrite cannot
        # get its number back from the filesystem.
        kept = tmp_path / "cold-index.json"
        os.link(index, kept)
        _, _, warm_err = self.crawl(site_dir, state, capsys)
        assert "www.conditional.revalidated: 2" in warm_err
        assert index.stat().st_ino == kept.stat().st_ino
        assert index.read_bytes() == cold

    def test_changed_page_is_relinted(self, site_dir, tmp_path, capsys):
        state = tmp_path / "state"
        self.crawl(site_dir, state, capsys)
        (site_dir / "page2.html").write_text(
            make_document("<p>second, now with <img src=y></p>")
        )
        _, warm_out, warm_err = self.crawl(site_dir, state, capsys)
        assert "www.conditional.revalidated: 1" in warm_err
        assert "www.conditional.modified: 1" in warm_err
        assert "ALT text" in warm_out


class TestOneTokenizerPass:
    """A page that is linted and link-checked is tokenized once, and not
    at all when its lint result is cached: the lint pass, or the cache
    record, hands back its links and anchors."""

    PAGES = 12

    @pytest.fixture
    def site(self):
        return PageGenerator(seed=3).site(self.PAGES)

    def test_crawl_stream(self, site, tmp_path):
        web = VirtualWeb()
        web.add_site("http://localhost/", site)
        rollups = []
        for cold in (True, False):
            with use_registry() as registry:
                service = LintService(cache=ResultCache(tmp_path / "lint"))
                rollups.append(
                    Poacher(UserAgent(web), service=service).crawl_stream(
                        "http://localhost/index.html"
                    )
                )
                assert registry.value("robot.pages.fetched") == self.PAGES
                assert registry.value("cache.lint.hits") == (0 if cold else self.PAGES)
                assert registry.value("tokenizer.documents") == (
                    self.PAGES if cold else 0
                )
        assert rollups[0] == rollups[1]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_check_directory(self, site, tmp_path, jobs):
        site_dir = tmp_path / "site"
        site_dir.mkdir()
        for name, text in site.items():
            (site_dir / name).write_text(text, encoding="utf-8")
        reports = []
        for cold in (True, False):
            with use_registry() as registry:
                service = LintService(cache=ResultCache(tmp_path / "lint"))
                report = SiteChecker(service=service, jobs=jobs).check_directory(
                    site_dir
                )
                reports.append([str(d) for d in report.all_diagnostics()])
                assert registry.value("site.files.checked") == self.PAGES
                assert registry.value("tokenizer.documents") == (
                    self.PAGES if cold else 0
                )
        assert reports[0] == reports[1]

    def test_each_shard_lints_only_the_pages_it_owns(self, site):
        web = VirtualWeb()
        web.add_site("http://localhost/", site)
        urls = [f"http://localhost/{name}" for name in site]
        for shard in (0, 1):
            with use_registry() as registry:
                Poacher(
                    UserAgent(web), policy=TraversalPolicy(shards=2, shard=shard)
                ).crawl_stream("http://localhost/index.html")
                owned = sum(shard_owns(url, 2, shard) for url in urls)
                assert 0 < owned < len(urls)
                assert registry.value("engine.documents") == owned
                # The pages another shard owns are scanned for links only.
                assert registry.value("tokenizer.documents") == len(urls)


class TestWeblintCacheFlags:
    def test_cache_dir_flag_warms(self, tmp_path, capsys):
        page = tmp_path / "page.html"
        page.write_text(DOCUMENT)
        cache_dir = str(tmp_path / "cache")
        argv = ["--no-config", "--cache-dir", cache_dir, "--stats", str(page)]
        weblint_main(argv)
        cold = capsys.readouterr()
        weblint_main(argv)
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "cache.lint.hits: 1" in warm.err

    def test_env_default_and_no_cache(self, tmp_path, capsys, monkeypatch):
        page = tmp_path / "page.html"
        page.write_text(DOCUMENT)
        monkeypatch.setenv("WEBLINT_CACHE_DIR", str(tmp_path / "cache"))
        weblint_main(["--no-config", "--stats", str(page)])
        assert "cache.lint.stores: 1" in capsys.readouterr().err
        weblint_main(["--no-config", "--no-cache", "--stats", str(page)])
        assert "cache.lint" not in capsys.readouterr().err

    def test_cache_clear(self, tmp_path, capsys):
        page = tmp_path / "page.html"
        page.write_text(DOCUMENT)
        cache_dir = tmp_path / "cache"
        weblint_main(["--no-config", "--cache-dir", str(cache_dir), str(page)])
        capsys.readouterr()
        assert len(logs(cache_dir)) == 1
        # With no FILE arguments: clear, report, exit clean (no stdin read).
        assert weblint_main(["--cache-dir", str(cache_dir), "--cache-clear"]) == 0
        assert "cache cleared (1 entries)" in capsys.readouterr().err
        assert list(cache_dir.iterdir()) == []

    def test_cache_clear_requires_a_directory(self, capsys, monkeypatch):
        monkeypatch.delenv("WEBLINT_CACHE_DIR", raising=False)
        assert weblint_main(["--cache-clear"]) == 2
        assert "--cache-clear needs" in capsys.readouterr().err
