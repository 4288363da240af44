"""Link judgement, and the link extraction it judges.

:func:`judge_link` is the one ``bad-link`` / ``bad-fragment`` decision,
shared by the -R site checker and the poacher robot.  The extraction
itself -- :class:`Link`, :func:`scan_page` and the token filter behind
it, :class:`~repro.html.links.LinkFilter` -- lives in
:mod:`repro.html.links`, below the engine that collects links in its
lint pass; it is re-exported here.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.config.options import Options
from repro.core.diagnostics import Diagnostic
from repro.html.links import (  # noqa: F401 - re-exported
    Link,
    extract_anchor_names,
    extract_links,
    scan_page,
)


def judge_link(
    url: str,
    exists: bool,
    status: str,
    defined: Optional[Callable[[str], Optional[bool]]],
    *,
    page: str,
    line: int,
    options: Options,
) -> Optional[Diagnostic]:
    """The ``bad-link`` or ``bad-fragment`` finding on link ``url``, if any.

    The caller describes the target: does it exist, its ``status`` text
    if not, and ``defined(fragment)`` -- does it define the fragment,
    ``None`` when that is unknown (a non-HTML target).  ``defined`` is
    called only when a fragment is judged, so it may fetch.
    """
    if not exists:
        if not options.is_enabled("bad-link"):
            return None
        return Diagnostic.build(
            "bad-link", line=line, filename=page, target=url, status=status
        )
    target, _, fragment = url.partition("#")
    if not (fragment and defined and options.is_enabled("bad-fragment")):
        return None
    if defined(fragment) is not False:
        return None
    return Diagnostic.build(
        "bad-fragment", line=line, filename=page,
        target=target or "this page", fragment=fragment,
    )
