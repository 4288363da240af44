"""Process, timing and input helpers shared by the three workloads."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PYTHON = sys.executable

#: Environment variables that would change what an entry point does.
_PROGRAM_ENV = (
    "WEBLINT_JOBS", "WEBLINT_CACHE_DIR", "WEBLINT_DAEMON",
    "WEBLINT_TELEMETRY_DIR",
)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in _PROGRAM_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def entry_command(entry: str, args: list[str], out_dir: Path, trace: bool = False) -> list[str]:
    """``entry`` under ``launch.py``, which reports into ``out_dir``."""
    return [PYTHON, str(HERE / "launch.py"), entry, str(out_dir), "1" if trace else "0", *args]


def main_report(out_dir: Path) -> Optional[dict]:
    """What ``launch.py`` wrote for the entry-point process itself."""
    for path in out_dir.glob("*.json"):
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload["role"] == "main":
            return payload
    return None


_TICKS_PER_S = os.sysconf("SC_CLK_TCK")
_CPUS = os.cpu_count() or 1


def steal_ticks() -> int:
    """CPU time the hypervisor gave to other guests, all CPUs, in ticks."""
    with open("/proc/stat", encoding="ascii") as stat:
        fields = stat.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def steal_share(ticks: int, wall_s: float) -> float:
    """Share of the machine's CPU time stolen over ``wall_s`` seconds."""
    return ticks / _TICKS_PER_S / (wall_s * _CPUS) if wall_s > 0 else 0.0


def quiet(samples: list, steal_of) -> list:
    """The samples least disturbed by other guests on the host.

    On a shared VM the hypervisor can take a third or more of the CPU
    for seconds at a time, and then wall times measure the neighbours.
    Keep the samples whose steal share is within ``QUIET_MARGIN`` of
    the quietest one; if that is fewer than half of them, keep the
    quieter half.  On a quiet host every sample is kept.
    """
    ranked = sorted(samples, key=steal_of)
    if not ranked:
        return ranked
    floor = steal_of(ranked[0])
    kept = [sample for sample in ranked if steal_of(sample) <= floor + QUIET_MARGIN]
    return kept if len(kept) * 2 >= len(ranked) else ranked[: (len(ranked) + 1) // 2]


#: How much more steal than the quietest sample a kept sample may see.
QUIET_MARGIN = 0.05


@dataclass
class Finished:
    """One entry-point process run to completion."""

    wall_s: float
    code: int
    stdout: bytes
    #: None when the process ended without reporting (a failed run).
    peak_rss_mb: Optional[float]
    #: Share of the machine's CPU stolen by other guests meanwhile.
    steal_share: float = 0.0

    @property
    def ok(self) -> bool:
        """Exited 0 (clean) or 1 (findings) and reported."""
        return self.code in (0, 1) and self.peak_rss_mb is not None


def run_to_exit(
    entry: str, args: list[str], out_dir: Path, log: Path,
    trace: bool = False, timeout_s: float = 120.0,
) -> Finished:
    """Run ``entry`` to completion; wall time covers spawn to exit."""
    settle()
    with open(log, "ab") as errors:
        stolen = steal_ticks()
        started = time.perf_counter()
        process = subprocess.Popen(
            entry_command(entry, args, out_dir, trace), stdout=subprocess.PIPE,
            stderr=errors, cwd=ROOT, env=child_env(),
        )
        try:
            stdout, _ = process.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            raise
        wall = time.perf_counter() - started
        stolen = steal_ticks() - stolen
    report = main_report(out_dir)
    return Finished(
        wall, process.returncode, stdout,
        report["peak_rss_mb"] if report is not None else None,
        steal_share(stolen, wall),
    )


def settle() -> None:
    """Flush dirty pages left by preparing the inputs or state of a run,
    so their writeback does not land inside the next timed process."""
    os.sync()


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method, so small samples stay in range)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


@dataclass
class Outcome:
    """What one workload run produced, before it is printed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    work: dict[str, object] = field(default_factory=dict)

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)
        elif len(self.problems) == 20:
            self.problems.append("... more problems not shown")
