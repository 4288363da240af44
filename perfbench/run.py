"""Benchmark weblint's three entry points: batch, daemon and crawl.

Usage, from the repository root::

    python3 perfbench/run.py --workload batch-cold --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (and the tracing overhead).  The second-to-last line of
standard output records the work (seed, documents, bytes, tokens,
expected diagnostics, pathological share); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  A run whose outputs
fail the correctness oracle prints ``"correct": false`` with no numbers
and exits 1.  See perfbench/README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from common import ROOT, SRC


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="tiny inputs and one repetition (the smoke test's mode)",
    )
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program to measure under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    scale = workloads.TINY if args.tiny else workloads.NORMAL
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        outcome = workloads.WORKLOADS[args.workload](
            work, args.seed, args.seconds, bool(args.trace), scale
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        # The untraced half of a traced run only anchors the overhead.
        layer_names = {name for name, _ in workloads.attribution.PER_LAYER}
        outcome.metrics = {
            name: value for name, value in outcome.metrics.items() if name in layer_names
        }
    correct = not outcome.problems
    for problem in outcome.problems:
        sys.stderr.write(f"perfbench: {problem}\n")
    print(json.dumps({"seed": args.seed, "workload": args.workload, **outcome.work}))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed if correct else outcome.attempted,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        } if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
