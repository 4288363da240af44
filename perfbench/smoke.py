"""Smoke test: every workload once on tiny inputs, traced and untraced.

Run from the repository root::

    python3 perfbench/smoke.py

Checks that each run exits 0, passes the correctness oracle and prints
every metric BENCHMARK.json names for its mode, with that metric's
unit.  Exits 1 and names the first gap otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys

from common import ROOT


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: bench["end_to_end"], 1: bench["per_layer"]}
    failures = []
    for workload in bench["workloads"]:
        for trace, metrics in wanted.items():
            label = f"{workload['name']} --trace {trace}"
            before = len(failures)
            result = subprocess.run(
                [sys.executable, *bench["command"][1:], "--workload", workload["name"],
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            if result.returncode != 0:
                failures.append(f"{label}: exit {result.returncode}: {result.stderr[-500:]}")
                continue
            printed = json.loads(result.stdout.strip().splitlines()[-1])
            if not printed["correct"]:
                failures.append(f"{label}: oracle failed")
            for metric in metrics:
                got = printed["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    failures.append(f"{label}: {metric['name']} missing or not in {metric['unit']}")
            print(f"{'ok' if len(failures) == before else 'FAILED'} {label}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
