"""``weblint-gateway`` -- run the gateway as a CGI-style command.

Reads a urlencoded form from ``QUERY_STRING``, stdin, or a command-line
argument, and writes the CGI response to stdout.  This is the "standard
gateway distribution, particularly for installation behind firewalls"
users kept asking the author for (section 4.6).  To serve the same form
over HTTP, run ``weblint-daemon --site-dir DIR``: it answers at
``/weblint``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.gateway.forms import parse_query_string
from repro.gateway.gateway import Gateway
from repro.www.client import UserAgent
from repro.www.virtualweb import VirtualWeb


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weblint-gateway",
        description="weblint CGI gateway (reads an urlencoded form)",
    )
    parser.add_argument(
        "form",
        nargs="?",
        help="urlencoded form data (default: $QUERY_STRING, then stdin)",
    )
    parser.add_argument(
        "--site-dir",
        metavar="DIR",
        help="serve DIR as http://localhost/ so url= fields resolve locally",
    )
    parser.add_argument(
        "--no-header",
        action="store_true",
        help="print only the HTML body, without the CGI header block",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    form_text = args.form
    if form_text is None:
        form_text = os.environ.get("QUERY_STRING", "")
        if not form_text and not sys.stdin.isatty():
            form_text = sys.stdin.read()

    web = VirtualWeb()
    agent = None
    if args.site_dir:
        web.add_site("http://localhost/", args.site_dir)
        agent = UserAgent(web)

    gateway = Gateway(agent=agent)
    response = gateway.handle(parse_query_string(form_text.strip()))
    if args.no_header:
        sys.stdout.write(response.body)
    else:
        sys.stdout.write(response.as_cgi())
    return 0 if response.status == 200 else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
