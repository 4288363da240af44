"""Fold a sharded audit's report directories into one canonical report.

A sharded poacher run (``poacher --shards N --shard K --state-dir DIR``)
leaves ``DIR/report/shard-K-of-N/`` directories, each holding that
partition's ``rollup.json``, ``pages.jsonl``, ``report.txt`` and
``metrics.json``.  This tool merges the complete shard set back into
one report directory whose bytes are identical to an unsharded
streaming run's::

    python -m repro.tools.merge_shards state/ [-o OUT]

- rollups fold with :meth:`repro.site.rollup.SiteRollup.merge` (exact:
  pages partition across shards, and each shard's bounded worst-pages
  selection preserves every global top-N candidate);
- spill lines concatenate and sort by ``(page, phase)`` -- the
  canonical order an unsharded spill also sorts into;
- metric snapshots fold through a fresh registry's ``merge_snapshot``
  (counters add, gauges keep the max, histograms merge buckets).

An unsharded streaming run (``--shards 1``) writes ``DIR/report/``
directly; pointing merge_shards at it canonicalises that single
"shard" through the same code path, which is how CI diffs a 2-shard
merged report against the unsharded baseline byte for byte.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.site.report import render_text_report
from repro.site.rollup import PAGES_FILENAME, ROLLUP_FILENAME, SiteRollup
from repro.store import write_atomic

_SHARD_DIR = re.compile(r"^shard-(\d+)-of-(\d+)$")


def find_shards(base: Path) -> list[Path]:
    """The complete shard set under ``base``, in shard order.

    ``base`` may be the state dir (its ``report/`` subdirectory is
    used), the report dir itself, or a single shard/report directory
    holding a ``rollup.json`` -- that last case is treated as a
    one-shard audit.  Raises ``ValueError`` on an incomplete or
    inconsistent shard set.
    """
    if (base / "report").is_dir():
        base = base / "report"
    found: dict[int, Path] = {}
    totals: set[int] = set()
    for path in sorted(base.iterdir()) if base.is_dir() else []:
        match = _SHARD_DIR.match(path.name)
        if match is None or not (path / ROLLUP_FILENAME).is_file():
            continue
        shard, total = int(match.group(1)), int(match.group(2))
        found[shard] = path
        totals.add(total)
    if not found:
        if (base / ROLLUP_FILENAME).is_file():
            return [base]
        raise ValueError(f"no shard rollups under {base}")
    if len(totals) != 1:
        raise ValueError(
            f"mixed shard counts under {base}: {sorted(totals)}"
        )
    total = totals.pop()
    missing = sorted(set(range(total)) - set(found))
    if missing:
        raise ValueError(
            f"incomplete shard set under {base}: missing shard(s) "
            f"{', '.join(str(k) for k in missing)} of {total}"
        )
    return [found[shard] for shard in sorted(found)]


def _spill_sort_key(line: str) -> tuple[str, str]:
    record = json.loads(line)
    return (str(record.get("page", "")), str(record.get("phase", "")))


def merge_report_dirs(shards: Sequence[Path], out: Path) -> SiteRollup:
    """Merge shard report directories into ``out``; returns the rollup."""
    merged: Optional[SiteRollup] = None
    spill_lines: list[str] = []
    metrics = MetricsRegistry()
    have_metrics = False
    for shard in shards:
        rollup = SiteRollup.load(shard / ROLLUP_FILENAME)
        merged = rollup if merged is None else merged.merge(rollup)
        spill = shard / PAGES_FILENAME
        if spill.is_file():
            spill_lines.extend(
                line for line in
                spill.read_text(encoding="utf-8").splitlines() if line
            )
        snapshot_path = shard / "metrics.json"
        if snapshot_path.is_file():
            metrics.merge_snapshot(
                json.loads(snapshot_path.read_text(encoding="utf-8"))
            )
            have_metrics = True
    assert merged is not None  # find_shards never returns an empty set
    spill_lines.sort(key=_spill_sort_key)

    out.mkdir(parents=True, exist_ok=True)
    merged.save(out / ROLLUP_FILENAME)
    outputs = {
        "report.txt": render_text_report(merged) + "\n",
        PAGES_FILENAME: "".join(line + "\n" for line in spill_lines),
    }
    if have_metrics:
        outputs["metrics.json"] = (
            json.dumps(metrics.snapshot(), indent=2, sort_keys=True) + "\n"
        )
    for name, text in outputs.items():
        write_atomic(out / name, text.encode("utf-8"))
    return merged


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="merge_shards",
        description="merge sharded audit report directories into one "
        "canonical report",
    )
    parser.add_argument(
        "state_dir",
        help="a sharded run's --state-dir (or its report directory)",
    )
    parser.add_argument(
        "-o", "--out",
        default=None,
        metavar="DIR",
        help="where to write the merged report "
        "(default: REPORT_DIR/merged)",
    )
    args = parser.parse_args(argv)
    base = Path(args.state_dir)
    try:
        shards = find_shards(base)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"merge_shards: {exc}\n")
        return 2
    report_base = base / "report" if (base / "report").is_dir() else base
    out = Path(args.out) if args.out else report_base / "merged"
    try:
        merged = merge_report_dirs(shards, out)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"merge_shards: {exc}\n")
        return 2
    sys.stdout.write(
        f"merge_shards: merged {len(shards)} shard(s) -> {out} "
        f"({merged.pages} page(s), {merged.total_messages} message(s))\n"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
