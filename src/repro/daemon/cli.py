"""``weblint-daemon`` -- run the persistent lint service over HTTP.

The long-lived answer to the paper's CGI gateway: one process, a
pre-warmed worker pool, and three routes --

- ``POST /lint``: the JSON batch protocol (``weblint --daemon ADDR``
  is the bundled client),
- ``GET|POST /weblint``: the classic gateway form, served by warm
  per-options services instead of a service rebuilt per request,
- ``GET /metrics`` and ``GET /healthz``: OpenMetrics exposition and a
  liveness/queue snapshot for supervisors.

SIGTERM or SIGINT triggers a graceful drain: admission closes (new
requests get 503 + Retry-After), in-flight requests finish, the run is
recorded in the ``runs.jsonl`` ledger, and only then does the process
exit.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time
from typing import Optional, Sequence

from repro.config.options import Options
from repro.daemon.daemon import LintDaemon
from repro.html.spec import available_specs
from repro.obs import run_scope


def _default_jobs() -> int:
    try:
        return int(os.environ.get("WEBLINT_JOBS", "0"))
    except ValueError:
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weblint-daemon",
        description="persistent weblint service with a pre-warmed worker pool",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default %(default)s)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default: an ephemeral port, printed at startup)",
    )
    parser.add_argument(
        "-j", "--jobs",
        type=int,
        default=_default_jobs(),
        metavar="N",
        help="pre-warmed worker processes (0 = one per CPU; default from "
        "WEBLINT_JOBS, else 0)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="max in-flight requests before new ones get 429 "
        "(default %(default)s)",
    )
    parser.add_argument(
        "-x", "--extension",
        metavar="SPEC",
        help=f"HTML version / vendor extension ({', '.join(available_specs())})",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=os.environ.get("WEBLINT_CACHE_DIR") or None,
        help="persistent lint result cache shared by every request "
        "(default from WEBLINT_CACHE_DIR)",
    )
    parser.add_argument(
        "--state-dir",
        metavar="DIR",
        help="crash-safe lifecycle journal (DIR/daemon/) and the "
        "runs.jsonl ledger",
    )
    parser.add_argument(
        "--telemetry-dir",
        metavar="DIR",
        default=os.environ.get("WEBLINT_TELEMETRY_DIR") or None,
        help="stream events to DIR while serving and write the metric "
        "snapshot there at exit; /metrics is the live view (default from "
        "WEBLINT_TELEMETRY_DIR)",
    )
    parser.add_argument(
        "--site-dir",
        metavar="DIR",
        help="serve DIR as http://localhost/ so gateway url= fields "
        "resolve locally",
    )
    parser.add_argument(
        "--gateway-path",
        default="/weblint",
        metavar="PATH",
        help="where the HTML gateway form answers (default %(default)s)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="max wait for in-flight requests on shutdown "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit (with a graceful drain) after SECONDS; for smoke tests",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout

    stop = threading.Event()

    def _request_stop(signum, frame) -> None:  # pragma: no cover - signals
        stop.set()

    try:
        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)
    except ValueError:  # not the main thread (tests drive stop directly)
        pass

    options = Options.with_defaults()
    if args.extension:
        options.spec_name = args.extension

    cache = None
    if args.cache_dir:
        from repro.core.cache import ResultCache

        cache = ResultCache(args.cache_dir)

    from repro.gateway.gateway import Gateway
    from repro.www.client import UserAgent
    from repro.www.server import HTTPServer
    from repro.www.virtualweb import VirtualWeb

    # The daemon is built outside the run scope: a bad option (-x bogus)
    # fails here and the run leaves no ledger record.
    try:
        daemon = LintDaemon(
            options=options,
            jobs=args.jobs,
            queue_limit=args.queue_limit,
            cache=cache,
            state_dir=args.state_dir,
        )
    except (KeyError, ValueError) as exc:
        sys.stderr.write(f"weblint-daemon: {exc}\n")
        return 2

    with run_scope(
        "weblint-daemon",
        state_dir=args.state_dir,
        telemetry_dir=args.telemetry_dir,
    ) as run:
        daemon.start()
        web = VirtualWeb()
        agent = None
        if args.site_dir:
            web.add_site("http://localhost/", args.site_dir)
            agent = UserAgent(web)
        gateway = Gateway(agent=agent, service_provider=daemon.service_for)

        server = HTTPServer(
            web,
            host=args.host,
            port=args.port,
            gateway=gateway,
            gateway_path=args.gateway_path,
            daemon=daemon,
        ).start()
        out.write(
            f"weblint daemon listening on {server.base_url} "
            f"(lint at /lint, gateway at {args.gateway_path}, "
            f"{daemon.jobs if daemon.pool is not None else 1} warm "
            f"worker(s), queue limit {daemon.gate.limit})\n"
        )
        out.flush()

        try:
            deadline = (
                time.monotonic() + args.max_seconds
                if args.max_seconds is not None
                else None
            )
            while not stop.wait(0.2):
                if deadline is not None and time.monotonic() >= deadline:
                    break
        finally:
            # Graceful drain: close admission first, let in-flight
            # requests finish, then stop accepting connections at all.
            daemon.begin_drain()
            daemon.gate.wait_idle(args.drain_timeout)
            server.stop()
            daemon.shutdown(drain=True, timeout_s=1.0)
            out.write(
                f"weblint daemon stopped "
                f"({run.registry.value('daemon.requests')} requests served, "
                f"{run.registry.value('daemon.rejected')} rejected)\n"
            )
            out.flush()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
