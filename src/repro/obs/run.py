"""The run scope: what one tool run records, and where.

``weblint``, ``poacher`` and ``weblint-daemon`` each run inside
:func:`run_scope`, so every front end records its run the same way:

- a fresh :class:`~repro.obs.metrics.MetricsRegistry`, so ``--stats``
  and the ledger report this run, not the process's history;
- with a telemetry directory, a :class:`~repro.obs.export.TelemetrySink`
  whose event log streams to ``events.jsonl`` as events happen;
- a wall clock over the whole scope;
- one summary record appended to the ``runs.jsonl`` ledger in the
  state directory, else the telemetry directory, else nowhere.

The ledger record is written only when the body returns: a run that
raised leaves no summary for ``compare_runs`` to diff.  The sink is
closed on every exit, so even a crashed run leaves its final
``metrics.jsonl`` record and ``metrics.prom``::

    with run_scope("poacher", state_dir=state, telemetry_dir=tele) as run:
        ...                               # the tool's work
        pages = run.registry.value("robot.pages.fetched")
"""

from __future__ import annotations

import contextlib
import time
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.obs.events import use_event_log
from repro.obs.export import TelemetrySink
from repro.obs.ledger import record_run
from repro.obs.metrics import MetricsRegistry, use_registry


class Run:
    """One run in progress: its registry and its wall time."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._started = time.perf_counter()
        self._ended: Optional[float] = None

    @property
    def wall_s(self) -> float:
        """Seconds since the scope opened; fixed once it closes."""
        ended = self._ended if self._ended is not None else time.perf_counter()
        return ended - self._started


@contextlib.contextmanager
def run_scope(
    tool: str,
    state_dir: Optional[Union[str, Path]] = None,
    telemetry_dir: Optional[Union[str, Path]] = None,
) -> Iterator[Run]:
    """Run the body as ``tool``'s run; see the module docstring."""
    started_unix = time.time()
    with use_registry() as registry, contextlib.ExitStack() as stack:
        if telemetry_dir:
            sink = TelemetrySink(telemetry_dir)
            stack.callback(sink.close, registry)
            stack.enter_context(use_event_log(sink.open_event_log()))
        run = Run(registry)
        try:
            yield run
        finally:
            run._ended = time.perf_counter()
        ledger_dir = state_dir or telemetry_dir
        if ledger_dir:
            record_run(
                ledger_dir, registry.snapshot(), tool, run.wall_s,
                clock=lambda: started_unix,
            )
