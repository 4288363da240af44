"""``repro.daemon`` -- the persistent lint service.

The paper's gateway is CGI: one process per request, each paying the
full interpreter + rule-compilation start-up cost.  Section 4.6 reports
steady demand for a "standard gateway distribution" for intranet use;
this package is that distribution grown into a long-lived server:

- :class:`~repro.daemon.pool.WarmPool` -- the batch pipeline's
  :class:`~repro.core.service.ParallelExecutor` kept open: its workers
  build their :class:`~repro.core.service.LintService` (and compile
  dispatch tables) once at startup and stay hot, so batch fan-out stops
  paying the per-request spin-up that made small batches slower than
  sequential (BENCH_parallel.json).
- :class:`~repro.daemon.daemon.LintDaemon` -- the service proper: a
  warm base service for small requests, the warm pool for batches, a
  bounded :class:`~repro.daemon.daemon.AdmissionGate` in front (429 +
  ``Retry-After`` when saturated, 503 while draining), per-options warm
  service reuse for the gateway, and a crash-safe lifecycle journal in
  the frontier's atomic-write idiom.
- :mod:`~repro.daemon.protocol` -- the JSON wire format spoken between
  ``weblint --daemon ADDR`` and the daemon's ``POST /lint`` endpoint.
- :mod:`~repro.daemon.cli` -- the ``weblint-daemon`` entry point.

Telemetry: ``daemon.requests``, ``daemon.request_ms``,
``daemon.rejected``, ``daemon.queue.depth``, ``daemon.workers`` /
``daemon.workers.busy`` and friends flow through :mod:`repro.obs`, so
``/metrics`` scrapes and the ``runs.jsonl`` ledger see the daemon like
any other front end (docs/observability.md).
"""

from repro.daemon.daemon import (
    AdmissionGate,
    DaemonSaturated,
    LintDaemon,
)
from repro.daemon.pool import WarmPool
from repro.daemon.protocol import (
    ProtocolError,
    decode_batch_request,
    decode_batch_response,
    encode_batch_request,
    encode_batch_response,
)

__all__ = [
    "AdmissionGate",
    "DaemonSaturated",
    "LintDaemon",
    "WarmPool",
    "ProtocolError",
    "decode_batch_request",
    "decode_batch_response",
    "encode_batch_request",
    "encode_batch_response",
]
