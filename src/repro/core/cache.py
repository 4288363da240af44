"""Persistent, content-addressed lint-result cache.

The ROADMAP's north star names caching explicitly: a re-audit of a site
that changed three pages out of three hundred should pay for three
lints, not three hundred.  This module is the lint half of that story
(the HTTP half -- conditional fetches -- lives in
:mod:`repro.www.httpcache`): a :class:`ResultCache` that
:meth:`repro.core.service.LintService.check` consults before dispatching
a document to the engine and populates afterwards.

Correctness rests entirely on the key.  An entry is addressed by::

    sha256( service fingerprint || 0x00 || content digest )

where the *content digest* is the document's identity in both caches,
the hex sha256 of its UTF-8 text (:func:`repro.store.content_digest`),
which the HTTP cache also names the page's stored body by -- so a page
the HTTP cache revalidated finds its record without its text being
read -- and the *service fingerprint* digests everything that can
change what the engine would emit: the options fingerprint (every
semantic field -- see :meth:`repro.config.options.Options.fingerprint`),
the HTML spec name, the rule set (registry names + enabled flags, in
order), the cascade-heuristics switch, the weblint version and the
on-disk format version.  Change any of them and every key changes,
so invalidation is automatic -- there is no "stale entry" state to
manage, only misses.

Two tiers:

- an in-memory LRU (``memory_entries`` strong entries) for repeated
  checks inside one process -- the site checker re-linting a template
  shared by many pages hits this tier;
- an optional disk tier (``directory=``): one append-only log,
  ``<directory>/v5/results.jsonl``, shared by every process that opens
  the directory.

Each record is one JSON-object line::

    {"k":"<hex key>","c":"<hex crc32 of key and body>",<body>}

whose body is ``"d":<rows>``, the entry's diagnostics, followed -- when
the lint that stored it collected them -- by ``,"l":<links>,"a":<anchors>``:
the page's links as ``[url, line, element, kind]`` rows and its anchor
names, sorted.  ``<rows>`` is the text of the daemon's ``/lint`` rows
(:func:`repro.core.diagnostics.encode_diagnostics`), so a result a pool
worker encoded is appended as it arrived.  A hit on a record with
links hands them back, so a page that is linted and link-checked again
is not tokenized at all; a record without them (stored by a batch that
did not want links) still serves its diagnostics.  The key and the crc
sit at fixed offsets, so indexing the log never decodes a body.  The
rules that keep it safe:

- *Appends go through* :class:`repro.store.JsonLog`: one ``os.write``
  per record under the log's exclusive file lock, so writers in any
  number of processes never interleave.  The log is opened for writing
  on the first put, so a run that only reads creates nothing.
- *Indexed from where the last look stopped.*  A lookup the index
  misses reads the whole lines appended since into a key -> (offset,
  length, crc) index; a later record for a key wins.  A hit ``pread``s
  one payload and checks its crc.  So a result one process stores is a
  hit for every process that looks it up afterwards.
- *Damage is a miss.*  An unterminated last line (a writer killed
  mid-record, or a record still being written) is never indexed; the
  next writer's open cuts it off and counts it in ``cache.lint.corrupt``.
  A line without the record layout or whose crc fails -- a record glued
  onto a killed writer's fragment, say -- is a miss counted the same
  way.  A failed or short write is cut back and counts
  ``cache.lint.write_errors``; a directory that cannot hold the log
  degrades to memory-only.
- *No fsync.*  An entry lost to a crash is a miss that costs one lint;
  the crc and the torn-tail rule are what keep it from being a wrong hit.
- *Clearing.*  :meth:`ResultCache.clear` (``weblint --cache-clear``)
  deletes the log, ``v5/`` once empty, the version-4 and version-3
  logs (``<directory>/v4/results.jsonl``, keyed by the whole text, and
  ``v3/``), a version-2 segment directory
  (``<directory>/v2/seg-*.log``) and a version-1 tree
  (``<directory>/<key[:2]>/<key>.json`` plus its leftover ``.tmp``
  files); nothing else in the directory.

Diagnostics are stored *filename-free* and re-bound to the requesting
document's name on every hit, so two identical files at different paths
share one entry and still report their own names.  Both tiers hold a
record's body as text; a hit decodes it.

Metrics (see docs/observability.md and docs/caching.md):
``cache.lint.hits`` / ``misses`` / ``stores`` / ``evictions`` (memory
tier) / ``corrupt`` / ``unserialisable`` / ``write_errors``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import weakref
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Optional, Sequence, Union

from repro.core import constants
from repro.core.diagnostics import Diagnostic, EncodedDiagnostics, diagnostic_from_row
from repro.html.links import Link
from repro.obs.metrics import get_registry
from repro.store import JsonLog, content_digest

#: Bump when the on-disk entry layout or the key changes; old entries
#: become misses.
FORMAT_VERSION = 5

#: The oldest version whose disk tier is one log, ``v<N>/results.jsonl``.
_FIRST_LOG_VERSION = 3

#: Filename a hit is bound to when the caller names none.
_UNBOUND = "-"

#: The log under ``<directory>/v<FORMAT_VERSION>/``.
_LOG_NAME = "results.jsonl"
#: A record line up to its body: fixed width, so the key, the crc and
#: the body start at the same offsets in every record.
_RECORD = re.compile(rb'\{"k":"([0-9a-f]{64})","c":"([0-9a-f]{8})",')
#: A version-2 segment, and a version-1 shard directory (the first two
#: hex digits of the key).
_V2_SEGMENT = re.compile(r"seg-[0-9a-f]{16}\.log")
_V1_SHARD = re.compile(r"[0-9a-f]{2}")


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


def result_key(
    text: Optional[str], fingerprint: bytes, digest: Optional[str] = None
) -> str:
    """The content-addressed cache key for one (document, service) pair.

    Hashes the service fingerprint with the document's content digest:
    ``digest`` when the caller knows it (and ``text`` is then not
    read), else the digest of ``text``.
    """
    if digest is None:
        digest = content_digest(text)
    key = hashlib.sha256(fingerprint)
    key.update(b"\x00")
    key.update(digest.encode("ascii"))
    return key.hexdigest()


def _crc(key: bytes, body: bytes) -> int:
    return zlib.crc32(body, zlib.crc32(key))


@dataclass
class CachedResult:
    """What a hit serves: the diagnostics, and the page's links and
    anchors when the lint that stored them collected them (else
    ``None``)."""

    diagnostics: list[Diagnostic]
    links: Optional[list[Link]] = None
    anchors: Optional[set[str]] = None


class ResultCache:
    """Two-tier (memory LRU + disk) store of lint results by content key.

    Keys are :func:`result_key` digests.  Thread-safe: the site checker
    and the batch pipeline may consult one instance from several
    threads.  Any number of processes may share a directory; they all
    append to its one log (see the module docstring).
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        memory_entries: int = 256,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.memory_entries = max(1, memory_entries)
        #: key -> the record's body, as the log holds it
        self._memory: OrderedDict[str, bytes] = OrderedDict()
        self._lock = threading.Lock()
        self._path = (
            self.directory / f"v{FORMAT_VERSION}" / _LOG_NAME
            if self.directory is not None
            else None
        )
        #: Guards everything below: the disk tier's index and files.
        self._disk = threading.Lock()
        #: key -> (payload offset, payload length, crc) in the log
        self._index: dict[str, tuple[int, int, int]] = {}
        #: The log as last looked at: (st_dev, st_ino), and the end of
        #: its last whole line indexed so far.
        self._identity: Optional[tuple[int, int]] = None
        self._scanned = 0
        self._reader: Optional[BinaryIO] = None
        self._writer: Optional[JsonLog] = None
        self._unwritable = False
        #: Open descriptors, closed when the instance is collected.
        self._files: list = []
        weakref.finalize(self, _close_files, self._files)

    # -- lookup ------------------------------------------------------------

    def get(self, key: str, filename: str = _UNBOUND) -> Optional[CachedResult]:
        """The cached result for ``key``, its diagnostics re-bound to
        ``filename``.

        Returns ``None`` on a miss; a damaged disk entry is a miss,
        never an error.
        """
        registry = get_registry()
        with self._lock:
            body = self._memory.get(key)
            if body is not None:
                self._memory.move_to_end(key)
        remember = body is None
        if remember:
            body = self._load(key)
        if body is None:
            registry.inc("cache.lint.misses")
            return None
        try:
            record = json.loads(b"{" + body + b"}")
            result = CachedResult(
                [diagnostic_from_row(row, filename) for row in record["d"]]
            )
            if "l" in record:
                result.links = [Link(*row) for row in record["l"]]
                result.anchors = set(record["a"])
        except (KeyError, TypeError, ValueError):
            # An entry whose crc held but that does not describe a
            # result (a future format, say) degrades to a miss.
            registry.inc("cache.lint.corrupt")
            registry.inc("cache.lint.misses")
            return None
        if remember:
            self._remember(key, body)
        registry.inc("cache.lint.hits")
        return result

    def put(
        self,
        key: str,
        diagnostics: EncodedDiagnostics,
        links: Optional[Sequence[Link]] = None,
        anchors: Optional[Iterable[str]] = None,
    ) -> None:
        """Store ``diagnostics`` -- and the page's ``links`` and
        ``anchors`` when the lint collected them -- under ``key``
        (memory, then disk).

        ``diagnostics`` come encoded (:attr:`LintResult.encoded
        <repro.core.service.LintResult.encoded>`), as a pool worker
        sends them.
        """
        registry = get_registry()
        if diagnostics.rows is None:
            # A plugin rule put something non-JSON in arguments; caching
            # this entry would lose information, so skip it.
            registry.inc("cache.lint.unserialisable")
            return
        body = '"d":' + diagnostics.rows
        if links is not None:
            rows = [[link.url, link.line, link.element, link.kind] for link in links]
            body += ',"l":' + json.dumps(rows, separators=(",", ":"))
            body += ',"a":' + json.dumps(sorted(anchors or ()), separators=(",", ":"))
        data = body.encode("ascii")
        self._remember(key, data)
        registry.inc("cache.lint.stores")
        if self._path is not None and not self._append(key, body, data):
            # A read-only or full cache directory degrades to memory-only.
            registry.inc("cache.lint.write_errors")

    def clear(self) -> int:
        """Drop every entry (both tiers); returns entries removed on disk.

        Removes this format's log, the version-4 and version-3 logs, a
        version-2 segment directory and a version-1 shard tree.  Counts
        the log's distinct keys and the version-1 entries (one file
        each); the older logs and version-2 segments go unread.
        """
        with self._lock:
            self._memory.clear()
        if self._path is None:
            return 0
        removed: dict[str, tuple[int, int, int]] = {}
        with self._disk:
            self._close()
            try:
                _index_lines(self._path.read_bytes(), 0, removed)
            except OSError:
                pass
            _sweep(self._path.parent, lambda name: name == _LOG_NAME)
        for version in range(_FIRST_LOG_VERSION, FORMAT_VERSION):
            _sweep(self.directory / f"v{version}", lambda name: name == _LOG_NAME)
        _sweep(self.directory / "v2", _V2_SEGMENT.fullmatch)
        legacy = 0
        for name in _listdir(self.directory):
            if _V1_SHARD.fullmatch(name):
                swept = _sweep(
                    self.directory / name,
                    lambda entry: entry.endswith((".json", ".tmp")),
                )
                legacy += sum(entry.endswith(".json") for entry in swept)
        return len(removed) + legacy

    def close(self) -> None:
        """Close this instance's descriptors of the log.

        Optional: they are also closed when the instance is collected
        or the process exits.  The cache stays usable afterwards.
        """
        with self._disk:
            self._close()

    # -- internals ---------------------------------------------------------

    def _remember(self, key: str, body: bytes) -> None:
        with self._lock:
            self._memory[key] = body
            self._memory.move_to_end(key)
            while len(self._memory) > self.memory_entries:
                self._memory.popitem(last=False)
                get_registry().inc("cache.lint.evictions")

    def _close(self) -> None:
        """Close both descriptors and forget the index (``_disk`` held)."""
        _close_files(self._files)
        self._reader = self._writer = self._identity = None
        self._index.clear()
        self._scanned = 0

    def _append(self, key: str, body: str, data: bytes) -> bool:
        """Append one record (``data`` is ``body`` encoded); ``False``
        when it could not be written whole."""
        crc = _crc(key.encode("ascii"), data)
        line = f'{{"k":"{key}","c":"{crc:08x}",{body}}}\n'
        with self._disk:
            if self._writer is None:
                if self._unwritable:
                    return False
                try:
                    self._writer = JsonLog(self._path)
                except OSError:
                    self._unwritable = True
                    return False
                self._files.append(self._writer)
                if self._writer.cut:
                    # A writer killed mid-record left the torn tail.
                    get_registry().inc("cache.lint.corrupt")
            try:
                self._writer.write(line)
            except OSError:  # failed, or short and cut back off by JsonLog
                return False
        return True

    def _load(self, key: str) -> Optional[bytes]:
        """The body of ``key``'s record on disk, its crc checked."""
        if self._path is None:
            return None
        with self._disk:
            entry = self._index.get(key)
            if entry is None:
                self._refresh()
                entry = self._index.get(key)
                if entry is None:
                    return None
            offset, length, crc = entry
            try:
                body = os.pread(self._reader.fileno(), length, offset)
            except OSError:
                body = b""
            if len(body) == length and _crc(key.encode("ascii"), body) == crc:
                return body
            del self._index[key]
        get_registry().inc("cache.lint.corrupt")
        return None

    def _refresh(self) -> None:
        """Index the whole lines appended since the last look (``_disk`` held).

        A log that was replaced (cleared, then written afresh) is
        indexed again from its start, and written to afresh.
        """
        try:
            status = os.stat(self._path)
        except OSError:  # no log yet (or it was just cleared)
            return
        identity = (status.st_dev, status.st_ino)
        if self._identity not in (None, identity):
            self._close()
        if self._reader is None:
            try:
                self._reader = open(self._path, "rb", buffering=0)
            except OSError:
                return
            self._files.append(self._reader)
            self._identity = identity
        if status.st_size <= self._scanned:
            return
        try:
            data = os.pread(
                self._reader.fileno(), status.st_size - self._scanned, self._scanned
            )
        except OSError:
            return
        length, damaged = _index_lines(data, self._scanned, self._index)
        self._scanned += length
        if damaged:
            get_registry().inc("cache.lint.corrupt", damaged)


def _index_lines(
    data: bytes, base: int, index: dict[str, tuple[int, int, int]]
) -> tuple[int, int]:
    """Index the record lines of ``data``, which was read at ``base``.

    Returns the length of its whole lines -- an unterminated last line
    is left for a later look -- and how many of them were damaged: no
    record layout, or a crc that does not match.
    """
    view = memoryview(data)
    start = damaged = 0
    while (end := data.find(b"\n", start)) >= 0:
        match = _RECORD.match(data, start, end)
        # A record's line ends with the "}" that closes it.
        if match and data[end - 1] == 0x7D:
            body, crc = match.end(), int(match[2], 16)
            if _crc(match[1], view[body : end - 1]) == crc:
                index[match[1].decode("ascii")] = (base + body, end - 1 - body, crc)
                start = end + 1
                continue
        damaged += 1
        start = end + 1
    return start, damaged


def _close_files(files: list) -> None:
    for handle in files:
        handle.close()
    files.clear()


def _listdir(directory: Path) -> list[str]:
    try:
        return os.listdir(directory)
    except OSError:
        return []


def _sweep(directory: Path, wanted: Callable[[str], object]) -> list[str]:
    """Unlink the files of ``directory`` that ``wanted`` names, then the
    directory if that emptied it; returns the names unlinked."""
    removed = []
    for name in _listdir(directory):
        if wanted(name):
            try:
                os.unlink(directory / name)
            except OSError:
                continue
            removed.append(name)
    try:
        os.rmdir(directory)
    except OSError:
        pass
    return removed
