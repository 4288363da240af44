"""Durable state on disk: one atomic whole-file write and one append log.

Every state file this package rewrites in place -- the HTTP cache's
validator index and body files, the daemon's lifecycle state, report
files -- goes through :func:`write_atomic`, so a reader (or the next
run) sees the old file or the new one, never a torn mix, and a failed
write leaves no temporary file behind.

Every JSON-lines file it appends to -- the crawl frontier's journal, the
daemon's lifecycle journal, the ``runs.jsonl`` ledger, the telemetry
``metrics.jsonl`` and ``events.jsonl``, a report's ``pages.jsonl`` --
is a :class:`JsonLog`, read back with :func:`read_log`.  A kill at any
byte leaves at most a torn last line, which the next open cuts off and
every read ignores.

The only ``fsync`` is :meth:`JsonLog.sync`, which the frontier journal
calls at its checkpoints.  Everything else is atomic against a crash of
this process, not against a power cut.

Both content-addressed stores -- the HTTP cache's body files and the
lint cache's records -- know a document by one :func:`content_digest`.
"""

from __future__ import annotations

import contextlib
import errno
import fcntl
import hashlib
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Iterator, Union


def content_digest(text: str) -> str:
    """A document's identity: the sha256 of its UTF-8 text, in hex.

    The HTTP cache names a stored body by it, and the lint cache keys a
    result by it, so a page the HTTP cache revalidated finds its lint
    record without its text being read.
    """
    return hashlib.sha256(text.encode("utf-8", errors="surrogatepass")).hexdigest()


def write_atomic(path: Union[str, Path], data: bytes) -> None:
    """Replace ``path`` with ``data`` atomically.

    Writes a temporary file in ``path``'s directory, then ``os.replace``
    moves it over ``path``.  If any step raises, the temporary file is
    removed and the error re-raised; callers count their own failures.
    """
    path = Path(path)
    fd, temp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise


def _cut_torn_tail(fd: int) -> int:
    """Truncate the file after its last newline (a torn append).

    Returns the number of bytes cut off.
    """
    size = end = os.fstat(fd).st_size
    while end > 0:
        start = max(0, end - 4096)
        newline = os.pread(fd, end - start, start).rfind(b"\n")
        if newline >= 0:
            end = start + newline + 1
            break
        end = start
    if end != size:
        os.ftruncate(fd, end)
    return size - end


class JsonLog:
    """An append-only JSON-lines file, safe to share between processes.

    Opening creates the file (and its directory), takes an exclusive
    ``flock`` and either truncates it (``fresh=True``) or cuts a torn
    last line.  Each record is then one ``os.write`` of a whole line on
    an ``O_APPEND`` descriptor, under the same lock, so concurrent
    appenders never interleave and no opener's cut removes another
    process's record.  :meth:`locked` holds the lock across a read and
    an append (the run ledger stamps its sequence that way).
    """

    #: Bytes of a torn last line that opening cut off (0: none).
    cut = 0

    def __init__(self, path: Union[str, Path], fresh: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(
            self.path,
            os.O_RDWR | os.O_CREAT | os.O_APPEND | os.O_CLOEXEC,
            0o644,
        )
        self._mutex = threading.RLock()
        self._depth = 0
        try:
            with self.locked():
                if fresh:
                    os.ftruncate(self._fd, 0)
                else:
                    self.cut = _cut_torn_tail(self._fd)
        except BaseException:
            self.close()
            raise

    @contextlib.contextmanager
    def locked(self) -> Iterator[None]:
        """Hold the exclusive lock (re-entrant within this object)."""
        with self._mutex:
            if not self._depth:
                fcntl.flock(self._fd, fcntl.LOCK_EX)
            self._depth += 1
            try:
                yield
            finally:
                self._depth -= 1
                if not self._depth:
                    fcntl.flock(self._fd, fcntl.LOCK_UN)

    def append(self, record: dict) -> None:
        """Append ``record`` as one JSON line with sorted keys."""
        self.write(json.dumps(record, sort_keys=True) + "\n")

    def write(self, line: str) -> None:
        """Append one whole line (ending in a newline) in one ``os.write``.

        A short write is cut back off and raised as ``OSError``, so the
        log never keeps a fragment for the next line to be glued onto.
        """
        data = line.encode("utf-8")
        with self.locked():
            if os.write(self._fd, data) != len(data):
                _cut_torn_tail(self._fd)
                raise OSError(errno.ENOSPC, "short write", str(self.path))

    def sync(self) -> None:
        """``fsync`` the log: every appended record survives a power cut."""
        os.fsync(self._fd)

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __enter__(self) -> "JsonLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_log(path: Union[str, Path]) -> tuple[list[dict], int]:
    """The JSON-object records of the log at ``path``, and the corrupt count.

    An unterminated last line is a torn append: it is dropped and not
    counted.  Every other line that is not a JSON object counts as
    corrupt.  A file that cannot be read is an empty log.
    """
    try:
        lines = Path(path).read_bytes().split(b"\n")
    except OSError:
        return [], 0
    records: list[dict] = []
    corrupt = 0
    for line in lines[:-1]:
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if isinstance(record, dict):
            records.append(record)
        else:
            corrupt += 1
    return records, corrupt
