"""Entry-point launcher: run one entry point's ``main`` and report on it.

Usage::

    python perfbench/launch.py {weblint|weblint-daemon|poacher} OUT_DIR TRACE ARGS...

Calls the entry point's ``main(ARGS)`` and, once it returns, writes the
wall time of ``main`` and the process's peak resident memory to
``OUT_DIR/<pid>.json``.  The peak is read from ``VmHWM``, which starts
afresh at exec; the ``wait4`` maximum would also count the pages of the
benchmark process this one was forked from.  With ``TRACE`` 1 the
wrappers from :mod:`layers` are installed first and the file also holds
the per-layer totals; forked pool workers then write their own files as
they exit.
"""

from __future__ import annotations

import sys
import time

import layers

ENTRY_POINTS = {
    "weblint": "repro.cli",
    "weblint-daemon": "repro.daemon.cli",
    "poacher": "repro.robot.cli",
}


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def main() -> int:
    entry, out_dir, trace, argv = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
    module = __import__(ENTRY_POINTS[entry], fromlist=["main"])
    if trace == "1":
        layers.install(out_dir)
    started = time.perf_counter()
    code = module.main(argv)
    wall_ms = (time.perf_counter() - started) * 1000.0
    sys.stdout.flush()
    layers.RECORDER.dump(
        out_dir, "main", entry=entry, wall_ms=wall_ms, peak_rss_mb=peak_rss_mb()
    )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
