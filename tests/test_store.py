"""Tests for :mod:`repro.store`'s atomic write and append log, their
callers and the run ledger."""

from __future__ import annotations

import multiprocessing
import os
import re
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.daemon.daemon import LifecycleJournal
from repro.obs import RunLedger, TelemetrySink, use_registry
from repro.robot.frontier import FrontierJournal
from repro.site.rollup import SiteRollup
from repro.store import JsonLog, read_log, write_atomic
from repro.workload import PageGenerator
from repro.www.httpcache import HttpCache
from repro.www.message import Response
from tests.conftest import make_document


def _temp_files(root):
    return sorted(root.rglob("*.tmp"))


class TestWriteAtomic:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "state.json"
        write_atomic(target, b"one")
        write_atomic(str(target), b"two")
        assert target.read_bytes() == b"two"
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_replace_removes_the_temp_file(self, tmp_path):
        target = tmp_path / "state.json"
        target.mkdir()
        with pytest.raises(OSError):
            write_atomic(target, b"data")
        assert list(tmp_path.iterdir()) == [target]
        assert target.is_dir()

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "state.json"
        write_atomic(target, b"old")
        with pytest.raises(TypeError):
            write_atomic(target, "not bytes")
        assert target.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [target]

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(OSError):
            write_atomic(tmp_path / "absent" / "state.json", b"x")
        assert list(tmp_path.iterdir()) == []


def _record(index):
    return {"i": index, "text": "é" * (index % 3)}


def _append_runs(directory, count, barrier):
    barrier.wait(60)  # every process is up: their appends overlap
    ledger = RunLedger(directory)
    for _ in range(count):
        ledger.append({"tool": "poacher", "pid": os.getpid()})


class TestJsonLog:
    @settings(max_examples=60, deadline=None)
    @given(count=st.integers(0, 6), data=st.data())
    def test_cut_anywhere_then_append(self, count, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.jsonl"
            with JsonLog(path) as log:
                for index in range(count):
                    log.append(_record(index))
            whole = path.read_bytes()
            cut = data.draw(st.integers(0, len(whole)), label="cut")
            path.write_bytes(whole[:cut])
            kept = whole[:cut].count(b"\n")
            with JsonLog(path) as log:
                log.append({"i": "new"})
            assert read_log(path) == (
                [_record(index) for index in range(kept)] + [{"i": "new"}],
                0,
            )

    def test_fresh_truncates(self, tmp_path):
        path = tmp_path / "deep" / "log.jsonl"
        with JsonLog(path) as log:
            log.append({"a": 1})
        with JsonLog(path, fresh=True) as log:
            log.append({"b": 2})
        assert path.read_bytes() == b'{"b": 2}\n'

    def test_read_log_counts_corrupt_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a": 1}\nnot json\n[1, 2]\n\n{"b": 2}\n{"torn": ')
        assert read_log(path) == ([{"a": 1}, {"b": 2}], 3)

    def test_unreadable_log_is_empty(self, tmp_path):
        assert read_log(tmp_path / "absent.jsonl") == ([], 0)
        (tmp_path / "dir.jsonl").mkdir()
        assert read_log(tmp_path / "dir.jsonl") == ([], 0)

    def test_threads_and_openers_lose_no_record(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = JsonLog(path)
        done = threading.Event()

        def append(worker):
            for index in range(100):
                # Some records cross a page boundary.
                log.append({"w": worker, "i": index, "pad": "x" * (index * 53)})

        def reopen():
            while not done.is_set():
                JsonLog(path).close()  # each open may cut a torn tail

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            opener = threading.Thread(target=reopen)
            opener.start()
            writers = [
                threading.Thread(target=append, args=(worker,))
                for worker in range(8)
            ]
            for writer in writers:
                writer.start()
            for writer in writers:
                writer.join(60)
                assert not writer.is_alive()
            done.set()
            opener.join(60)
            assert not opener.is_alive()
        finally:
            sys.setswitchinterval(interval)
            log.close()
        records, corrupt = read_log(path)
        assert corrupt == 0
        assert sorted((r["w"], r["i"]) for r in records) == [
            (worker, index) for worker in range(8) for index in range(100)
        ]

    def test_concurrent_ledger_runs_are_distinct(self, tmp_path):
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(4)
        workers = [
            context.Process(target=_append_runs, args=(tmp_path, 50, barrier))
            for _ in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
            assert worker.exitcode == 0
        runs = [record["run"] for record in RunLedger(tmp_path).load()]
        assert sorted(runs) == list(range(1, 201))


class TestFailedWritesAreCounted:
    """Each caller counts its own failures and leaves no temp file."""

    def _poacher_with_broken_file(self, tmp_path, capsys, broken_file):
        """Crawl with a writable state dir, then with ``broken_file`` a
        directory; returns both runs' ``(code, stdout)`` and the broken
        run's ``--stats``."""
        from repro.robot.cli import main

        site = tmp_path / "site"
        site.mkdir()
        for name, body in PageGenerator(seed=3).site(6).items():
            (site / name).write_text(body)

        def poacher(state):
            code = main([
                "--no-links", "--stats", "--state-dir", str(state), str(site),
            ])
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        code, out, _ = poacher(tmp_path / "writable")
        broken = tmp_path / "broken"
        (broken / broken_file).mkdir(parents=True)
        broken_code, broken_out, broken_err = poacher(broken)
        assert _temp_files(broken) == []
        return (code, out), (broken_code, broken_out), broken_err

    def test_unwritable_http_index_does_not_kill_the_crawl(
        self, tmp_path, capsys
    ):
        # The validator index cannot be replaced: it is a directory.
        writable, broken, stats = self._poacher_with_broken_file(
            tmp_path, capsys, "http/index.json"
        )
        assert broken == writable
        errors = re.search(r"www\.httpcache\.write_errors: (\d+)", stats)
        assert errors is not None and int(errors.group(1)) >= 1

    def test_unopenable_frontier_journal_does_not_kill_the_crawl(
        self, tmp_path, capsys
    ):
        writable, broken, stats = self._poacher_with_broken_file(
            tmp_path, capsys, "frontier/journal.jsonl"
        )
        assert broken == writable
        errors = re.search(
            r"robot\.frontier\.journal_write_errors: (\d+)", stats
        )
        assert errors is not None and int(errors.group(1)) >= 1

    def test_http_cache_body(self, tmp_path, monkeypatch):
        cache = HttpCache(tmp_path / "http")

        def refuse(source, target):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        with use_registry() as registry:
            cache.store(
                "http://h/a.html",
                Response(status=200, url="http://h/a.html", body="<p>a</p>"),
            )
            assert registry.value("www.httpcache.write_errors") == 1
        assert _temp_files(tmp_path) == []

    def test_frontier_checkpoint(self, tmp_path):
        journal = FrontierJournal(tmp_path / "frontier")
        journal.journal_path.mkdir(parents=True)
        with use_registry() as registry:
            journal.start("http://h/index.html")
            journal.enqueued("http://h/index.html", 0, 0)
            journal.checkpoint()
            assert registry.value("robot.frontier.journal_write_errors") == 1
            assert registry.value("robot.frontier.checkpoints") == 0
        journal.close()
        assert _temp_files(tmp_path) == []

    def test_daemon_state(self, tmp_path):
        lifecycle = LifecycleJournal(tmp_path)
        lifecycle.state_path.mkdir(parents=True)
        with use_registry() as registry:
            lifecycle.started(workers=1, queue_limit=4)
            assert registry.value("daemon.journal_write_errors") == 1
        assert _temp_files(tmp_path) == []


def _refuse_replace(monkeypatch, name=None):
    """Make ``os.replace`` fail (only onto files called ``name``, if given)."""
    real_replace = os.replace

    def refuse(source, target):
        if name is None or os.path.basename(target) == name:
            raise OSError("no space left on device")
        return real_replace(source, target)

    monkeypatch.setattr(os, "replace", refuse)


class TestAtomicReports:
    """A report rewrite that fails keeps the previous file, no temp file."""

    def test_rollup_save(self, tmp_path, monkeypatch):
        path = tmp_path / "rollup.json"
        SiteRollup(root="http://h/").save(path)
        before = path.read_text()
        rollup = SiteRollup(root="http://h/")
        rollup.add_page("http://h/a.html", [])
        _refuse_replace(monkeypatch)
        with pytest.raises(OSError):
            rollup.save(path)
        assert path.read_text() == before
        assert _temp_files(tmp_path) == []

    def test_telemetry_prom(self, tmp_path, monkeypatch):
        sink = TelemetrySink(tmp_path)
        with use_registry() as registry:
            registry.inc("lint.files")
            sink.flush(registry)
            before = sink.prom_path.read_text()
            registry.inc("lint.files")
            _refuse_replace(monkeypatch)
            sink.flush(registry)
            assert registry.value("obs.telemetry.write_errors") == 1
        assert sink.prom_path.read_text() == before
        assert _temp_files(tmp_path) == []

    @pytest.fixture
    def site(self, tmp_path):
        site = tmp_path / "site"
        site.mkdir()
        for name, body in PageGenerator(seed=5).site(4).items():
            (site / name).write_text(body)
        return site

    def test_poacher_shard_report(self, site, tmp_path, monkeypatch, capsys):
        from repro.robot.cli import main

        state = tmp_path / "state"
        args = ["--shards", "1", "--state-dir", str(state), str(site)]
        main(args)
        report = state / "report" / "report.txt"
        before = report.read_text()
        (site / "index.html").write_text("<p>changed")
        _refuse_replace(monkeypatch, "report.txt")
        with pytest.raises(OSError):
            main(args)
        capsys.readouterr()
        assert report.read_text() == before
        assert _temp_files(tmp_path) == []

    def test_merge_shards_outputs(self, site, tmp_path, monkeypatch, capsys):
        from repro.robot.cli import main
        from repro.tools.merge_shards import main as merge_main

        state = tmp_path / "state"
        main(["--shards", "1", "--state-dir", str(state), str(site)])
        assert merge_main([str(state)]) == 0
        merged = state / "report" / "merged"
        before = {path.name: path.read_text() for path in merged.iterdir()}
        (state / "report" / "pages.jsonl").write_text("")
        _refuse_replace(monkeypatch, "pages.jsonl")
        assert merge_main([str(state)]) == 2
        capsys.readouterr()
        assert {
            path.name: path.read_text() for path in merged.iterdir()
        } == before
        assert _temp_files(tmp_path) == []


class TestUnwritableLedger:
    """A run ledger that cannot be appended never fails a finished run.

    ``runs.jsonl`` is made a directory; each tool keeps the output and
    exit status it has with a writable ledger and warns once on stderr.
    """

    def test_poacher_keeps_its_report_and_exit(self, tmp_path, capsys):
        from repro.robot.cli import main

        site = tmp_path / "site"
        site.mkdir()
        for name, body in PageGenerator(seed=3).site(4).items():
            (site / name).write_text(body)

        def poacher(state):
            code = main(["--state-dir", str(state), str(site)])
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        code, out, err = poacher(tmp_path / "writable")
        broken = tmp_path / "broken"
        (broken / "runs.jsonl").mkdir(parents=True)
        broken_code, broken_out, broken_err = poacher(broken)
        assert (broken_code, broken_out) == (code, out)
        assert err == ""
        assert broken_err.count("warning") == 1
        assert str(broken / "runs.jsonl") in broken_err

    def test_weblint_telemetry_run(self, tmp_path, capsys):
        from repro.cli import main

        page = tmp_path / "clean.html"
        page.write_text(make_document("<p>Nothing wrong here.</p>"))
        telemetry = tmp_path / "telemetry"
        (telemetry / "runs.jsonl").mkdir(parents=True)
        code = main([
            "--no-config", "--no-cache", "--telemetry-dir", str(telemetry),
            str(page),
        ])
        captured = capsys.readouterr()
        assert (code, captured.out) == (0, "")
        assert captured.err.count(str(telemetry / "runs.jsonl")) == 1
        prom = (telemetry / "metrics.prom").read_text()
        assert "lint_files_total 1" in prom

    def test_daemon_shutdown(self, tmp_path, capsys, monkeypatch):
        import signal

        from repro.daemon.cli import main

        # Keep the test runner's own signal handlers.
        monkeypatch.setattr(signal, "signal", lambda *args: None)
        state = tmp_path / "state"
        (state / "runs.jsonl").mkdir(parents=True)
        code = main([
            "--jobs", "1", "--state-dir", str(state), "--max-seconds", "0.2",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "weblint daemon stopped" in captured.out
        assert captured.err.count(str(state / "runs.jsonl")) == 1
