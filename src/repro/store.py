"""Durable state on disk: the one atomic whole-file write.

Every state file this package rewrites in place -- the HTTP cache's
validator index and body files, the crawl frontier's checkpoint, the
daemon's lifecycle state -- goes through :func:`write_atomic`, so a
reader (or the next run) sees the old file or the new one, never a torn
mix, and a failed write leaves no temporary file behind.

There is no ``fsync``: the rename is atomic against a crash of this
process, not against a power cut.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union


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
