"""Validator store for conditional HTTP fetches.

HTTP has carried its own cache-coherency protocol since 1.0: a server
labels a response with ``ETag`` / ``Last-Modified`` validators, the
client replays them as ``If-None-Match`` / ``If-Modified-Since``, and an
unchanged resource comes back as a bodyless ``304 Not Modified``.
WebScript-style web-document processors win exactly by exploiting this
machinery, and it is what lets a second ``poacher`` crawl of a large,
mostly-unchanged site skip almost all of its byte transfer.

:class:`HttpCache` is that client-side store:

- per-URL metadata (validators, status, content type, body digest and
  length) in one index;
- bodies kept content-addressed (:func:`repro.store.content_digest`),
  in memory and -- when a ``directory`` is given -- as one file per
  digest, so two URLs serving identical bytes share one stored body.
  The cache knows which bodies it holds (those it stored, less those
  evicted, plus one listing of ``bodies/`` at ``load()``), so a ``304``
  for a body it lacks is known at once;
- ``save()`` / ``load()`` persist the index atomically as versioned
  JSON; a missing, corrupt or wrong-version index loads as an empty
  cache, never an error -- a crawl always proceeds, at worst cold.
  ``save()`` writes only an index that changed since it was loaded or
  last written, so a warm crawl that stores nothing leaves the file
  alone.

The consumer is :class:`repro.www.client.UserAgent` (pass
``http_cache=``): it sends the stored validators with every GET, turns a
``304`` back into the stored response (counted in
``www.conditional.revalidated``) -- whose digest and length come from
the index, and whose body is read only when something asks for it --
and falls back to a full unconditional GET when the stored body is gone
(``www.conditional.lost_body``).  The ``poacher --state-dir`` switch
wires a persistent instance into a crawl.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.store import content_digest, write_atomic
from repro.www.message import Response

#: Bump when the index layout changes; old state dirs reload as cold.
#: (Version 2 added each body's ``length``.)
FORMAT_VERSION = 2

#: A stored body's file name: ``<digest>.body`` under ``bodies/``.
_BODY_SUFFIX = ".body"


@dataclass
class CachedEntry:
    """What the store remembers about one URL."""

    url: str
    status: int
    content_type: str
    body_sha256: str
    #: The body's length in characters (``len(body)``).
    length: int
    etag: Optional[str] = None
    last_modified: Optional[str] = None

    @property
    def has_validators(self) -> bool:
        return self.etag is not None or self.last_modified is not None

    def to_dict(self) -> dict:
        return {
            "url": self.url,
            "status": self.status,
            "content_type": self.content_type,
            "body_sha256": self.body_sha256,
            "etag": self.etag,
            "last_modified": self.last_modified,
            "length": self.length,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "CachedEntry":
        return cls(
            url=raw["url"],
            status=int(raw["status"]),
            content_type=raw.get("content_type", "text/html"),
            body_sha256=raw["body_sha256"],
            length=int(raw["length"]),
            etag=raw.get("etag"),
            last_modified=raw.get("last_modified"),
        )


class HttpCache:
    """Per-URL validators plus a content-addressed body store.

    Memory-only by default; give it a ``directory`` and bodies persist
    as they are stored while ``save()`` writes the index -- call it once
    at the end of a crawl (``poacher --state-dir`` does).
    """

    def __init__(self, directory: Optional[Union[str, Path]] = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        self._entries: dict[str, CachedEntry] = {}
        self._bodies: dict[str, str] = {}
        #: Digests of the bodies this cache holds, in memory or on disk.
        self._held: set[str] = set()
        self._lock = threading.Lock()
        #: Has the index changed since it was last read or written in full?
        self._changed = False

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookups -----------------------------------------------------------

    def entry_for(self, url: str) -> Optional[CachedEntry]:
        with self._lock:
            return self._entries.get(url)

    def has_body(self, digest: str) -> bool:
        """Does the cache hold the body for ``digest``, as far as it knows?

        A body file that vanished or was damaged since :meth:`load`
        listed it is found out only when it is read.
        """
        with self._lock:
            return digest in self._held

    def body_for(self, entry: CachedEntry) -> Optional[str]:
        """The stored body for ``entry``, or ``None`` if it is gone."""
        return self.body_by_digest(entry.body_sha256)

    def body_by_digest(self, digest: str) -> Optional[str]:
        """The stored body for ``digest`` directly, bypassing the index.

        Bodies persist synchronously at :meth:`store` time while the
        index only persists on :meth:`save`, so a crawl killed before
        any save can still recover every completed page's bytes -- the
        frontier journal's resume path leans on exactly that.
        """
        with self._lock:
            body = self._bodies.get(digest)
        if body is not None:
            return body
        if self.directory is None:
            return None
        path = self._body_path(digest)
        try:
            body = path.read_text(encoding="utf-8", errors="surrogatepass")
        except OSError:
            body = None
        found = body is not None and content_digest(body) == digest
        if body is not None and not found:
            # A torn or tampered body file must not masquerade as the
            # validated representation; removing it lets a refetch
            # store the body again.
            try:
                path.unlink()
            except OSError:
                pass
        with self._lock:
            if found:
                self._bodies[digest] = body
            else:
                self._held.discard(digest)
        return body if found else None

    # -- population --------------------------------------------------------

    def store(self, url: str, response: Response) -> None:
        """Remember ``response`` (an ok GET) and its validators for ``url``."""
        digest = content_digest(response.body)
        entry = CachedEntry(
            url=url,
            status=response.status,
            content_type=response.headers.get("Content-Type", "text/html"),
            body_sha256=digest,
            length=len(response.body),
            etag=response.headers.get("ETag"),
            last_modified=response.headers.get("Last-Modified"),
        )
        with self._lock:
            self._entries[url] = entry
            self._bodies[digest] = response.body
            self._held.add(digest)
            self._changed = True
        if self.directory is not None:
            self._write_body(digest, response.body)

    def evict_body(self, url: str) -> None:
        """Drop the stored body for ``url`` (both tiers), keep validators.

        Models the real-world state the evicted-validator fallback
        exists for: an index that outlived its body files.
        """
        entry = self.entry_for(url)
        if entry is None:
            return
        with self._lock:
            self._bodies.pop(entry.body_sha256, None)
            self._held.discard(entry.body_sha256)
        if self.directory is not None:
            try:
                self._body_path(entry.body_sha256).unlink()
            except OSError:
                pass

    # -- persistence -------------------------------------------------------

    def save(self) -> None:
        """Atomically write the index (bodies were persisted on store).

        Only when it changed: :meth:`store` marks it, and so does a
        :meth:`load` that found no index or a corrupt one, so the
        next save repairs the file.  A failed write is counted in
        ``www.httpcache.write_errors``, not raised, and stays pending:
        the crawl goes on, and the next one just starts colder.
        """
        if self.directory is None:
            return
        with self._lock:
            if not self._changed:
                return
            self._changed = False
            payload = json.dumps(
                {
                    "version": FORMAT_VERSION,
                    "entries": {
                        url: entry.to_dict()
                        for url, entry in sorted(self._entries.items())
                    },
                },
                indent=2,
                sort_keys=True,
            )
        with get_tracer().span("www.httpcache.save", entries=len(self)):
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
                write_atomic(self._index_path(), payload.encode("utf-8"))
            except OSError:
                get_registry().inc("www.httpcache.write_errors")
                self._changed = True

    def load(self) -> int:
        """Read the index; corrupt or wrong-version state loads as empty.

        Returns the number of entries loaded.  An index that could not
        be read in full marks the cache changed, so the next
        :meth:`save` rewrites it.  A missing index is a silent cold
        start; one that does not parse, or parses to the wrong shape,
        counts in ``www.httpcache.corrupt``.  Also lists the stored
        bodies, once, for :meth:`has_body`.
        """
        if self.directory is None:
            return 0
        with get_tracer().span("www.httpcache.load"):
            try:
                names = os.listdir(self.directory / "bodies")
            except OSError:
                names = []
            held = {
                name[: -len(_BODY_SUFFIX)]
                for name in names
                if name.endswith(_BODY_SUFFIX)
            }
            with self._lock:
                self._held |= held
            try:
                raw = self._index_path().read_bytes()
            except OSError:
                self._changed = True
                return 0
            try:
                data = json.loads(raw)
            except ValueError:  # not JSON, or not UTF-8
                data = None
            if (
                not isinstance(data, dict)
                or data.get("version") != FORMAT_VERSION
                or not isinstance(data.get("entries"), dict)
            ):
                get_registry().inc("www.httpcache.corrupt")
                self._changed = True
                return 0
            loaded: dict[str, CachedEntry] = {}
            for url, raw in data["entries"].items():
                try:
                    loaded[url] = CachedEntry.from_dict(raw)
                except (KeyError, TypeError, ValueError):
                    get_registry().inc("www.httpcache.corrupt")
                    self._changed = True
            with self._lock:
                self._entries.update(loaded)
            return len(loaded)

    # -- paths -------------------------------------------------------------

    def _index_path(self) -> Path:
        assert self.directory is not None
        return self.directory / "index.json"

    def _body_path(self, digest: str) -> Path:
        assert self.directory is not None
        return self.directory / "bodies" / f"{digest}{_BODY_SUFFIX}"

    def _write_body(self, digest: str, body: str) -> None:
        assert self.directory is not None
        path = self._body_path(digest)
        if path.exists():
            return  # content-addressed: same digest, same bytes
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            write_atomic(path, body.encode("utf-8", errors="surrogatepass"))
        except OSError:
            get_registry().inc("www.httpcache.write_errors")
