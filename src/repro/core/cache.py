"""Persistent, content-addressed lint-result cache.

The ROADMAP's north star names caching explicitly: a re-audit of a site
that changed three pages out of three hundred should pay for three
lints, not three hundred.  This module is the lint half of that story
(the HTTP half -- conditional fetches -- lives in
:mod:`repro.www.httpcache`): a :class:`ResultCache` that
:meth:`repro.core.service.LintService.check` consults before dispatching
a document to the engine and populates afterwards.

Correctness rests entirely on the key.  An entry is addressed by::

    sha256( service fingerprint || 0x00 || document bytes )

where the *service fingerprint* digests everything that can change what
the engine would emit: the options fingerprint (every semantic field --
see :meth:`repro.config.options.Options.fingerprint`), the HTML spec
name, the rule set (registry names + enabled flags, in order), the
cascade-heuristics switch, the weblint version and the on-disk format
version.  Change any of them and every key changes,
so invalidation is automatic -- there is no "stale entry" state to
manage, only misses.

Two tiers:

- an in-memory LRU (``memory_entries`` strong entries) for repeated
  checks inside one process -- the site checker re-linting a template
  shared by many pages hits this tier;
- an optional disk tier (``directory=``): append-only segment logs
  under ``<directory>/v2/``, shared by every process that opens the
  directory.

A segment is a run of records.  Each record is a 44-byte header --
magic ``WLC2``, the raw 32-byte key, the payload length and a crc32 of
key and payload -- followed by the payload, the entry's diagnostic rows
as JSON.  The rules that keep it safe without a temp file per entry:

- *One writer per segment.*  A process appends to the one segment whose
  exclusive ``flock`` it holds, each record with a single ``os.write``
  on an ``O_APPEND`` descriptor.  Forked pool workers close the
  descriptor they inherit, so the lock dies with its process.
- *Adopt before creating.*  A writer first takes over an idle segment
  (one whose lock it can take without blocking, because its writer
  exited) and truncates it to its last complete record; only when every
  segment is busy does it create one.  Segments are bounded by the peak
  number of concurrent writers, not by the number of runs.
- *Headers only on open.*  The first lookup reads record headers with
  ``os.pread``, never payloads, into a key -> (segment, offset, length,
  crc) index.  A lookup the index misses rescans for segments that other
  processes created or extended since, so a result one process stores
  is a hit for every process that looks it up afterwards.
- *Damage is a miss.*  A torn tail (a writer killed mid-record, cut off
  when the segment is adopted) or a crc mismatch is a miss, counted in
  ``cache.lint.corrupt``.  A failed or short write truncates the segment
  back to its last complete record and counts
  ``cache.lint.write_errors``; a directory that cannot hold a segment
  degrades to memory-only.
- *No fsync.*  An entry lost to a crash is a miss that costs one lint;
  the crc and the torn-tail rule are what keep it from being a wrong hit.
- *Clearing.*  :meth:`ResultCache.clear` (``weblint --cache-clear``)
  deletes every segment, ``v2/`` once empty, and a version-1 tree
  (``<directory>/<key[:2]>/<key>.json`` plus its leftover ``.tmp``
  files); nothing else in the directory.

Diagnostics are stored *filename-free* and re-bound to the requesting
document's name on every hit, so two identical files at different paths
share one entry and still report their own names.

Metrics (see docs/observability.md and docs/caching.md):
``cache.lint.hits`` / ``misses`` / ``stores`` / ``evictions`` (memory
tier) / ``corrupt`` / ``unserialisable`` / ``write_errors``.
"""

from __future__ import annotations

import errno
import fcntl
import hashlib
import json
import os
import re
import struct
import threading
import weakref
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.core import constants
from repro.core.diagnostics import Diagnostic
from repro.core.messages import Category
from repro.obs.metrics import get_registry

#: Bump when the on-disk entry layout changes; old entries become misses.
FORMAT_VERSION = 2

#: Filename a hit is bound to when the caller names none.
_UNBOUND = "-"

#: Record header: magic, raw key, payload length, crc32 of key + payload.
_HEADER = struct.Struct("<4s32sII")
_MAGIC = b"WLC2"
_SEGMENT = re.compile(r"seg-[0-9a-f]{16}\.log")
#: A version-1 shard directory: the first two hex digits of the key.
_LEGACY_SHARD = re.compile(r"[0-9a-f]{2}")


def _stable(value: object) -> object:
    """A deterministic, order-independent projection of ``value``.

    ``Options.fingerprint()`` contains frozensets, whose ``repr`` order
    is arbitrary between processes; keys must not depend on it.
    """
    if isinstance(value, (set, frozenset)):
        return ("set",) + tuple(sorted((repr(_stable(v)) for v in value)))
    if isinstance(value, dict):
        return ("dict",) + tuple(
            sorted((repr(_stable(k)), repr(_stable(v))) for k, v in value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(_stable(v) for v in value)
    return value


def service_fingerprint(
    options_fingerprint: tuple,
    spec_name: str,
    rule_state: Sequence[tuple[str, bool]],
    cascade_heuristics: bool,
) -> bytes:
    """Digest every configuration axis that can change lint output."""
    payload = repr(
        (
            FORMAT_VERSION,
            constants.WEBLINT_VERSION,
            spec_name,
            _stable(options_fingerprint),
            tuple(rule_state),
            cascade_heuristics,
        )
    ).encode("utf-8")
    return hashlib.sha256(payload).digest()


def result_key(text: str, fingerprint: bytes) -> str:
    """The content-addressed cache key for one (document, service) pair."""
    digest = hashlib.sha256()
    digest.update(fingerprint)
    digest.update(b"\x00")
    digest.update(text.encode("utf-8", errors="surrogatepass"))
    return digest.hexdigest()


def _diagnostic_to_dict(diagnostic: Diagnostic) -> dict:
    return {
        "id": diagnostic.message_id,
        "category": diagnostic.category.value,
        "text": diagnostic.text,
        "line": diagnostic.line,
        "column": diagnostic.column,
        "arguments": diagnostic.arguments,
    }


def _diagnostic_from_dict(raw: dict, filename: str) -> Diagnostic:
    return Diagnostic(
        message_id=raw["id"],
        category=Category(raw["category"]),
        text=raw["text"],
        line=raw["line"],
        column=raw.get("column", 0),
        filename=filename,
        arguments=dict(raw.get("arguments", {})),
    )


class ResultCache:
    """Two-tier (memory LRU + disk) store of lint results by content key.

    Keys are :func:`result_key` digests.  Thread-safe: the site checker
    and the batch pipeline may consult one instance from several
    threads.  Any number of processes may share a directory; each
    appends to a segment of its own (see the module docstring).
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        memory_entries: int = 256,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.memory_entries = max(1, memory_entries)
        self._memory: OrderedDict[str, list[dict]] = OrderedDict()
        self._lock = threading.Lock()
        self._log = (
            _SegmentLog(self.directory / f"v{FORMAT_VERSION}")
            if self.directory is not None
            else None
        )

    # -- lookup ------------------------------------------------------------

    def get(self, key: str, filename: str = _UNBOUND) -> Optional[list[Diagnostic]]:
        """The cached diagnostics for ``key``, re-bound to ``filename``.

        Returns ``None`` on a miss; a damaged disk entry is a miss,
        never an error.
        """
        registry = get_registry()
        with self._lock:
            rows = self._memory.get(key)
            if rows is not None:
                self._memory.move_to_end(key)
        if rows is None:
            rows = self._load(key)
            if rows is not None:
                self._remember(key, rows)
        if rows is None:
            registry.inc("cache.lint.misses")
            return None
        registry.inc("cache.lint.hits")
        try:
            return [_diagnostic_from_dict(row, filename) for row in rows]
        except (KeyError, TypeError, ValueError):
            # An entry whose crc held but that does not describe
            # diagnostics (a future format, say) degrades to a miss too.
            registry.inc("cache.lint.corrupt")
            registry.inc("cache.lint.misses")
            return None

    def put(self, key: str, diagnostics: Sequence[Diagnostic]) -> None:
        """Store ``diagnostics`` under ``key`` (memory, then disk)."""
        registry = get_registry()
        rows = [_diagnostic_to_dict(d) for d in diagnostics]
        try:
            payload = json.dumps(rows, separators=(",", ":")).encode("utf-8")
        except (TypeError, ValueError):
            # A plugin rule put something non-JSON in arguments; caching
            # this entry would lose information, so skip it.
            registry.inc("cache.lint.unserialisable")
            return
        self._remember(key, rows)
        registry.inc("cache.lint.stores")
        if self._log is None:
            return
        if not self._log.append(bytes.fromhex(key), payload):
            # A read-only or full cache directory degrades to memory-only.
            registry.inc("cache.lint.write_errors")

    def clear(self) -> int:
        """Drop every entry (both tiers); returns entries removed on disk.

        Removes this format's segments and an older format's shard tree.
        """
        with self._lock:
            self._memory.clear()
        if self._log is None:
            return 0
        return self._log.clear() + _clear_legacy(self.directory)

    def close(self) -> None:
        """Release this instance's segment and descriptors.

        Optional: they are also released when the instance is collected
        or the process exits.  The cache stays usable afterwards.
        """
        if self._log is not None:
            self._log.close()

    # -- internals ---------------------------------------------------------

    def _remember(self, key: str, rows: list[dict]) -> None:
        with self._lock:
            self._memory[key] = rows
            self._memory.move_to_end(key)
            while len(self._memory) > self.memory_entries:
                self._memory.popitem(last=False)
                get_registry().inc("cache.lint.evictions")

    def _load(self, key: str) -> Optional[list[dict]]:
        if self._log is None:
            return None
        payload = self._log.read(bytes.fromhex(key))
        if payload is None:
            return None
        try:
            rows = json.loads(payload)
        except ValueError:
            rows = None
        if not isinstance(rows, list):
            get_registry().inc("cache.lint.corrupt")
            return None
        return rows


class _SegmentLog:
    """The disk tier: a directory of append-only segments, one per writer."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self._lock = threading.Lock()
        #: raw key -> (segment, payload offset, payload length, crc)
        self._index: dict[bytes, tuple[str, int, int, int]] = {}
        #: segment -> open descriptor (our own segment's is the writer)
        self._fds: dict[str, int] = {}
        #: segment -> end of the last complete record indexed so far
        self._scanned: dict[str, int] = {}
        self._writer: Optional[str] = None
        self._end = 0
        self._unwritable = False
        weakref.finalize(self, _close_all, self._fds)
        _OPEN_LOGS.add(self)

    def read(self, raw: bytes) -> Optional[bytes]:
        """The payload stored under ``raw``, or ``None``."""
        with self._lock:
            entry = self._index.get(raw)
            if entry is None:
                self._refresh()
                entry = self._index.get(raw)
                if entry is None:
                    return None
            name, offset, length, crc = entry
            try:
                payload = os.pread(self._reader(name), length, offset)
            except OSError:  # the segment is gone (cleared): a plain miss
                del self._index[raw]
                return None
            if len(payload) == length and zlib.crc32(payload, zlib.crc32(raw)) == crc:
                return payload
            del self._index[raw]
        get_registry().inc("cache.lint.corrupt")
        return None

    def append(self, raw: bytes, payload: bytes) -> bool:
        """Append one record; ``False`` when it could not be written whole."""
        crc = zlib.crc32(payload, zlib.crc32(raw))
        record = _HEADER.pack(_MAGIC, raw, len(payload), crc) + payload
        with self._lock:
            if self._writer is None and not self._open_writer():
                return False
            fd = self._fds[self._writer]
            try:
                written = os.write(fd, record)
            except OSError:
                written = -1
            if written != len(record):
                try:
                    os.ftruncate(fd, self._end)
                except OSError:
                    # The torn record stays.  Give the segment up (closing
                    # it drops the lock) so the next writer to adopt it
                    # cuts the tail off; its records stay readable.
                    os.close(self._fds.pop(self._writer))
                    self._writer = None
                return False
            self._index[raw] = (
                self._writer, self._end + _HEADER.size, len(payload), crc
            )
            self._end += written
            return True

    def clear(self) -> int:
        """Delete every segment; returns the number of keys they held."""
        with self._lock:
            self._reset()
            removed: dict[bytes, tuple[str, int, int, int]] = {}
            for name in self._segment_names():
                path = self.root / name
                found: dict[bytes, tuple[str, int, int, int]] = {}
                try:
                    fd = os.open(path, os.O_RDONLY | os.O_CLOEXEC)
                    try:
                        _scan(fd, name, 0, os.fstat(fd).st_size, found)
                    finally:
                        os.close(fd)
                    os.unlink(path)
                except OSError:
                    continue
                removed.update(found)
            try:
                os.rmdir(self.root)
            except OSError:
                pass
            return len(removed)

    def close(self) -> None:
        with self._lock:
            self._reset()

    # -- internals ---------------------------------------------------------

    def _reset(self) -> None:
        """Close every descriptor (releasing our segment) and forget all."""
        _close_all(self._fds)
        self._index.clear()
        self._scanned.clear()
        self._writer = None
        self._end = 0

    def _segment_names(self) -> list[str]:
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return sorted(name for name in names if _SEGMENT.fullmatch(name))

    def _reader(self, name: str) -> int:
        fd = self._fds.get(name)
        if fd is None:
            fd = os.open(self.root / name, os.O_RDONLY | os.O_CLOEXEC)
            self._fds[name] = fd
        return fd

    def _refresh(self) -> None:
        """Index what other processes appended since the last look."""
        for name in self._segment_names():
            if name == self._writer:
                continue
            try:
                fd = self._reader(name)
                size = os.fstat(fd).st_size
            except OSError:
                continue
            scanned = self._scanned.get(name, 0)
            if size != scanned:
                # Grown: index the new records.  Shrunk (an adopter cut a
                # torn tail we had not reached): rescan from the start.
                start = scanned if size > scanned else 0
                self._scanned[name] = _scan(fd, name, start, size, self._index)

    def _open_writer(self) -> bool:
        if self._unwritable:
            return False
        try:
            os.makedirs(self.root, exist_ok=True)
            name, fd, end = self._adopt_idle() or self._create()
        except OSError:
            self._unwritable = True
            return False
        reader = self._fds.pop(name, None)
        if reader is not None:
            os.close(reader)
        self._fds[name] = fd
        self._writer, self._end = name, end
        return True

    def _adopt_idle(self) -> Optional[tuple[str, int, int]]:
        """Lock a segment whose writer has exited and cut its torn tail."""
        for name in self._segment_names():
            try:
                fd = os.open(self.root / name, os.O_RDWR | os.O_APPEND | os.O_CLOEXEC)
            except OSError:
                continue
            try:
                # st_nlink 0: a concurrent clear() unlinked it after we
                # listed it; appending there would lose every record.
                if _try_lock(fd) and os.fstat(fd).st_nlink:
                    size = os.fstat(fd).st_size
                    end = _scan(fd, name, 0, size, self._index)
                    if end < size:
                        os.ftruncate(fd, end)
                        get_registry().inc("cache.lint.corrupt")
                    return name, fd, end
            except OSError:
                pass
            os.close(fd)
        return None

    def _create(self) -> tuple[str, int, int]:
        for _ in range(8):
            name = f"seg-{os.urandom(8).hex()}.log"
            fd = os.open(
                self.root / name,
                os.O_RDWR | os.O_APPEND | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC,
                0o644,
            )
            if _try_lock(fd):
                return name, fd, 0
            # Another writer adopted the empty segment first; it is theirs.
            os.close(fd)
        raise OSError(errno.EAGAIN, "no cache segment could be locked")


def _scan(
    fd: int, name: str, offset: int, size: int,
    index: dict[bytes, tuple[str, int, int, int]],
) -> int:
    """Index the complete records of ``[offset, size)``; return their end.

    Stops at the first header that is short, carries the wrong magic or
    declares more payload than the segment holds: a torn tail, or a
    record another process is still writing.
    """
    header_size = _HEADER.size
    while offset + header_size <= size:
        header = os.pread(fd, header_size, offset)
        if len(header) != header_size:
            break
        magic, raw, length, crc = _HEADER.unpack(header)
        end = offset + header_size + length
        if magic != _MAGIC or end > size:
            break
        index[raw] = (name, offset + header_size, length, crc)
        offset = end
    return offset


def _try_lock(fd: int) -> bool:
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        return False
    return True


def _close_all(fds: dict[str, int]) -> None:
    for fd in fds.values():
        try:
            os.close(fd)
        except OSError:
            pass
    fds.clear()


def _clear_legacy(directory: Path) -> int:
    """Remove a version-1 tree (``<dir>/<key[:2]>/<key>.json``).

    Returns the entries it held; leftover ``.tmp`` files of its writer
    go too.
    """
    removed = 0
    try:
        shards = [
            path for path in directory.iterdir()
            if _LEGACY_SHARD.fullmatch(path.name) and path.is_dir()
        ]
    except OSError:
        return 0
    for shard in shards:
        for entry in shard.iterdir():
            if entry.suffix not in (".json", ".tmp"):
                continue
            try:
                entry.unlink()
            except OSError:
                continue
            removed += entry.suffix == ".json"
        try:
            shard.rmdir()
        except OSError:
            pass
    return removed


#: Every live log, so a forked child can drop the descriptors it inherited.
_OPEN_LOGS: "weakref.WeakSet[_SegmentLog]" = weakref.WeakSet()


def _forget_logs_in_child() -> None:
    """Close inherited segment descriptors in a freshly forked child.

    ``flock`` locks belong to the open file description, which a fork
    shares: a pool worker that kept the parent's writer descriptor would
    keep the parent's segment locked -- unadoptable -- after the parent
    died.  The child's lock object may have been held mid-fork, so it is
    replaced rather than taken.
    """
    for log in list(_OPEN_LOGS):
        log._lock = threading.Lock()
        log._reset()


os.register_at_fork(after_in_child=_forget_logs_in_child)
