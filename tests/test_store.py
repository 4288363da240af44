"""Tests for :mod:`repro.store`: the atomic whole-file write and its callers."""

from __future__ import annotations

import os
import re

import pytest

from repro.daemon.daemon import LifecycleJournal
from repro.obs import use_registry
from repro.robot.frontier import FrontierJournal
from repro.store import write_atomic
from repro.workload import PageGenerator
from repro.www.httpcache import HttpCache
from repro.www.message import Response


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


class TestFailedWritesAreCounted:
    """Each caller counts its own failures and leaves no temp file."""

    def test_unwritable_http_index_does_not_kill_the_crawl(
        self, tmp_path, capsys
    ):
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
        # The validator index cannot be replaced: it is a directory.
        (broken / "http" / "index.json").mkdir(parents=True)
        broken_code, broken_out, broken_err = poacher(broken)
        assert (broken_code, broken_out) == (code, out)
        errors = re.search(r"www\.httpcache\.write_errors: (\d+)", broken_err)
        assert errors is not None and int(errors.group(1)) >= 1
        assert _temp_files(broken) == []

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
        journal.start("http://h/index.html")
        journal.checkpoint_path.mkdir()
        with use_registry() as registry:
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
