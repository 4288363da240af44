"""The ``weblint`` command -- the paper's script front-end.

Section 5.3: "The weblint script is now a wrapper around the modules ...
with documentation for the user who doesn't want to know about the
existence of the modules."  Section 4.1 requires that it be easy to run
"from the command-line, a batch script (for example under crontab on
Unix), a web page, a robot, or an application" -- hence the stable exit
codes, stdin support and machine-readable output formats.

Configuration precedence (section 4.4): site configuration file, then the
user's ``.weblintrc``, then command-line switches.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

from repro.config import load_configuration, options_from_dict
from repro.config.options import Options, UnknownMessageError
from repro.config.presets import available_presets
from repro.config.rcfile import ConfigError
from repro.core import constants
from repro.core.messages import CATALOG
from repro.core.reporter import Reporter, available_reporters, get_reporter
from repro.core.service import (
    LintRequest,
    LintResult,
    LintService,
    PathSource,
    StdinSource,
)
from repro.html.spec import available_specs
from repro.obs import run_scope, use_profiler, use_tracer


def _default_jobs() -> int:
    """``--jobs`` default: the WEBLINT_JOBS environment variable, else 1."""
    try:
        return int(os.environ.get("WEBLINT_JOBS", "1"))
    except ValueError:
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weblint",
        description="pick fluff off web pages (HTML syntax and style checker)",
        epilog="exit status: 0 clean, 1 problems found, 2 usage error",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="FILE",
        help="HTML files to check ('-' for stdin); directories with -R",
    )
    parser.add_argument(
        "-s", "--short",
        action="store_true",
        help="short output format: 'line N: ...' instead of 'file(N): ...'",
    )
    parser.add_argument(
        "-v", "--verbose",
        action="store_true",
        help="verbose output: message ids, categories and explanations",
    )
    parser.add_argument(
        "-f", "--format",
        choices=available_reporters(),
        help="output format (overrides -s/-v)",
    )
    parser.add_argument(
        "-e", "--enable",
        action="append",
        default=[],
        metavar="ID",
        help="enable a message id or category (repeatable, comma-separated)",
    )
    parser.add_argument(
        "-d", "--disable",
        action="append",
        default=[],
        metavar="ID",
        help="disable a message id or category (repeatable, comma-separated)",
    )
    parser.add_argument(
        "--enable-rule",
        action="append",
        default=[],
        metavar="RULE",
        help="enable a rule by registry name (repeatable, comma-separated)",
    )
    parser.add_argument(
        "--disable-rule",
        action="append",
        default=[],
        metavar="RULE",
        help="disable a rule by registry name (repeatable, comma-separated)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rule names and exit",
    )
    parser.add_argument(
        "-x", "--extension",
        metavar="SPEC",
        help=f"HTML version / vendor extension ({', '.join(available_specs())})",
    )
    parser.add_argument(
        "--preset",
        choices=available_presets(),
        help="named configuration preset",
    )
    parser.add_argument(
        "--pedantic",
        action="store_true",
        help="enable every message (shorthand for --preset pedantic)",
    )
    parser.add_argument(
        "-R", "--recurse",
        action="store_true",
        help="recurse into directories: whole-site check with index-file, "
        "orphan-page and local link analyses",
    )
    parser.add_argument(
        "-j", "--jobs",
        type=int,
        default=_default_jobs(),
        metavar="N",
        help="lint documents with N worker processes (0 = one per CPU; "
        "default from WEBLINT_JOBS, else 1)",
    )
    parser.add_argument(
        "--daemon",
        metavar="ADDR",
        default=os.environ.get("WEBLINT_DAEMON") or None,
        help="lint through a running weblint-daemon at ADDR (HOST:PORT "
        "or URL) instead of in-process; documents are read locally and "
        "checked by the daemon's pre-warmed workers "
        "(default from WEBLINT_DAEMON)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=os.environ.get("WEBLINT_CACHE_DIR") or None,
        help="persist lint results under DIR and reuse them when neither "
        "the document nor the configuration changed "
        "(default from WEBLINT_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore the result cache (and WEBLINT_CACHE_DIR) for this run",
    )
    parser.add_argument(
        "--cache-clear",
        action="store_true",
        help="empty the result cache before checking; with no FILE "
        "arguments, clear it and exit",
    )
    parser.add_argument(
        "--rcfile",
        metavar="FILE",
        help="alternate user configuration file (default ~/.weblintrc)",
    )
    parser.add_argument(
        "--site-config",
        metavar="FILE",
        help="site-wide configuration file (lowest precedence)",
    )
    parser.add_argument(
        "--no-config",
        action="store_true",
        help="ignore all configuration files",
    )
    parser.add_argument(
        "--site-report",
        metavar="FILE",
        help="with -R: also write a Spot-style HTML site report to FILE "
        "('-' prints the text summary instead)",
    )
    parser.add_argument(
        "--locale",
        metavar="LOCALE",
        help="render messages in another language (en, fr, de)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print a metrics summary (files, diagnostics, wall time) "
        "to stderr after the run",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="record hierarchical spans for the run and write them as "
        "JSON lines to FILE ('-' for stderr)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="time every rule and print the slowest ones (and the most "
        "frequent message ids) to stderr",
    )
    parser.add_argument(
        "--telemetry-dir",
        metavar="DIR",
        default=os.environ.get("WEBLINT_TELEMETRY_DIR") or None,
        help="continuous telemetry: stream events to DIR/events.jsonl, "
        "write metric snapshots to DIR/metrics.jsonl and DIR/metrics.prom, "
        "and append a run summary to DIR/runs.jsonl "
        "(default from WEBLINT_TELEMETRY_DIR)",
    )
    parser.add_argument(
        "--list-messages",
        action="store_true",
        help="list all message identifiers and exit",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"weblint (repro) {constants.WEBLINT_VERSION}",
    )
    return parser


def _list_messages(stream) -> None:
    stream.write(f"{'identifier':28} {'category':8} {'default':7} description\n")
    for message in CATALOG.values():
        stream.write(
            f"{message.id:28} {message.category.value:8} "
            f"{'on' if message.enabled_default else 'off':7} "
            f"{message.description}\n"
        )


def _list_rules(registry, stream) -> None:
    stream.write(f"{'rule':16} {'default':8} description\n")
    for registration in registry.registrations():
        stream.write(
            f"{registration.name:16} "
            f"{'on' if registration.enabled else 'off':8} "
            f"{registration.description}\n"
        )


def _build_registry(args: argparse.Namespace):
    """The rule registry with --enable-rule/--disable-rule applied."""
    from repro.core.registry import RegistryError, default_registry

    registry = default_registry()
    for chunk in args.disable_rule:
        for name in (part for part in chunk.split(",") if part):
            try:
                registry.disable(name)
            except RegistryError as exc:
                raise UnknownMessageError(str(exc)) from exc
    for chunk in args.enable_rule:
        for name in (part for part in chunk.split(",") if part):
            try:
                registry.enable(name)
            except RegistryError as exc:
                raise UnknownMessageError(str(exc)) from exc
    return registry


def _build_options(args: argparse.Namespace) -> Options:
    if args.no_config:
        options = Options.with_defaults()
    else:
        options = load_configuration(
            site_file=args.site_config, user_file=args.rcfile
        )
    # Command-line switches override both configuration files.
    options = options_from_dict(options, _option_overrides(args))
    if args.short:
        options.short_format = True
    if args.verbose:
        options.verbose = True
    if args.recurse:
        options.recurse = True
    return options


def _pick_reporter(args: argparse.Namespace):
    if args.locale and args.locale.lower() not in ("en", "c"):
        from repro.core.i18n import LocalisedReporter

        return LocalisedReporter(args.locale)
    if args.format:
        return get_reporter(args.format)
    if args.verbose:
        return get_reporter("verbose")
    if args.short:
        return get_reporter("short")
    return get_reporter("lint")


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Output was piped into something like head; not our problem.
        return constants.EXIT_CLEAN


def _main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out, err = sys.stdout, sys.stderr

    if args.list_messages:
        _list_messages(out)
        return constants.EXIT_CLEAN

    if args.daemon and (args.enable_rule or args.disable_rule):
        # The protocol carries options, not rule-registry state.
        err.write(
            "weblint: --enable-rule/--disable-rule are not supported "
            "with --daemon\n"
        )
        return constants.EXIT_USAGE

    try:
        registry = _build_registry(args)
        options = _build_options(args)
    except (ConfigError, UnknownMessageError, ValueError) as exc:
        err.write(f"weblint: {exc}\n")
        return constants.EXIT_USAGE

    if args.list_rules:
        _list_rules(registry, out)
        return constants.EXIT_CLEAN

    cache = None
    if not args.no_cache and (args.cache_dir or args.cache_clear):
        if args.cache_dir is None:
            err.write(
                "weblint: --cache-clear needs --cache-dir "
                "(or WEBLINT_CACHE_DIR)\n"
            )
            return constants.EXIT_USAGE
        from repro.core.cache import ResultCache

        cache = ResultCache(args.cache_dir)
        if args.cache_clear:
            removed = cache.clear()
            err.write(f"weblint: cache cleared ({removed} entries)\n")
            if not args.paths:
                return constants.EXIT_CLEAN

    try:
        reporter = _pick_reporter(args)
        service = (
            None
            if args.daemon
            else LintService(options=options, registry=registry, cache=cache)
        )
    except KeyError as exc:
        err.write(f"weblint: {exc}\n")
        return constants.EXIT_USAGE

    # Every invocation records into its own registry, so --stats (and the
    # stats reporter) report this run, not the process's whole history.
    with run_scope("weblint", telemetry_dir=args.telemetry_dir) as run, \
            contextlib.ExitStack() as stack:
        tracer = stack.enter_context(use_tracer()) if args.trace else None
        profiler = stack.enter_context(use_profiler()) if args.profile else None

        if args.daemon:
            code = _check_remote(args, reporter, out, err)
        else:
            code = _check_paths(args, options, service, reporter, out, err)
        wall_seconds = run.wall_s

        if tracer is not None and not _write_trace(tracer, args.trace, err):
            code = max(code, constants.EXIT_USAGE)
        if profiler is not None:
            err.write(profiler.render_report() + "\n")
        if args.stats:
            _print_stats(run.registry, reporter, wall_seconds, err)
    return code


def _option_overrides(args) -> dict[str, object]:
    """The lint-option switches as a :func:`options_from_dict` dict.

    Applied locally on top of the configuration files, and forwarded
    as the protocol options of a ``--daemon`` run, where the daemon's
    own configuration (and rcfiles on *its* host) provide the base.
    """
    payload: dict[str, object] = {}
    if args.extension:
        payload["spec"] = args.extension
    if args.pedantic:
        payload["pedantic"] = True
    if args.preset:
        payload["preset"] = args.preset
    if args.enable:
        payload["enable"] = list(args.enable)
    if args.disable:
        payload["disable"] = list(args.disable)
    return payload


def _check_remote(args, reporter, out, err) -> int:
    """The ``--daemon ADDR`` batch: documents read here, linted there.

    Same reporter and exit-code contract as the in-process path; the
    only difference is where the engine runs.
    """
    from repro.core.service import SourceError
    from repro.daemon.client import DaemonClientError, remote_check

    paths = args.paths or ["-"]
    documents: list[tuple[str, str]] = []
    failures: list[str] = []
    for path_text in paths:
        if Path(path_text).is_dir():
            err.write(
                f"weblint: {path_text} is a directory "
                f"(-R is not supported with --daemon)\n"
            )
            return constants.EXIT_USAGE
        source = StdinSource() if path_text == "-" else PathSource(path_text)
        try:
            documents.append((source.name, source.text()))
        except SourceError as exc:
            failures.append(str(exc))

    results = []
    if documents:
        try:
            results = remote_check(
                args.daemon, documents, _option_overrides(args)
            )
        except DaemonClientError as exc:
            err.write(f"weblint: {exc}\n")
            return constants.EXIT_USAGE
    return _report(results, reporter.emit, reporter, out, err, failures)


def _check_paths(args, options, service: LintService, reporter, out, err) -> int:
    """The path batch: returns the process exit code.

    All plain documents (files and stdin) go through one
    ``LintService.check_many`` pass -- parallel when ``--jobs`` asks for
    it -- and results come back in input order.  Directories run through
    the site checker, which shares the same service and job count.
    Unreadable documents become structured errors: the whole batch is
    still checked and reported, the errors land on stderr, and the run
    exits with the usage status (2), matching the historical behaviour
    for a missing file.
    """
    paths = args.paths or ["-"]

    # Classify every path first (usage errors beat lint output), keeping
    # input order so reports are deterministic regardless of job count.
    items: list[tuple[str, object]] = []
    for path_text in paths:
        if path_text == "-":
            items.append(("lint", LintRequest(StdinSource())))
        elif Path(path_text).is_dir():
            if not options.recurse:
                err.write(f"weblint: {path_text} is a directory (use -R)\n")
                return constants.EXIT_USAGE
            items.append(("site", path_text))
        else:
            items.append(("lint", LintRequest(PathSource(path_text))))

    # One batch for every plain document in the run.
    requests = [item for kind, item in items if kind == "lint"]

    # Streaming reporters (jsonl) emit each document the moment its
    # result resolves -- completion order, bounded memory.  Only the
    # pure-document case streams; a run with site checks reports each
    # path whole and in input order (the base reporter's emit, whatever
    # the format), so site framing stays intact.
    if getattr(reporter, "streams_incrementally", False) and all(
        kind == "lint" for kind, _ in items
    ):
        results = service.iter_check(requests, jobs=args.jobs)
        return _report(results, reporter.emit, reporter, out, err)
    results = _results_in_input_order(args, service, items, requests, out)
    return _report(results, partial(Reporter.emit, reporter), reporter, out, err)


def _results_in_input_order(args, service, items, requests, out):
    """One result per document and one per site, in the order given.

    A site yields a result per unreadable page (its error) and then one
    holding every page's diagnostics; ``--site-report -`` writes the
    site's text report first.
    """
    checked = iter(service.check_many(requests, jobs=args.jobs))
    for kind, item in items:
        if kind == "lint":
            yield next(checked)
            continue
        from repro.site.sitecheck import SiteChecker

        report = SiteChecker(service=service, jobs=args.jobs).check_directory(item)
        if args.site_report:
            from repro.site.report import render_html_report, render_text_report

            if args.site_report == "-":
                out.write(render_text_report(report) + "\n")
            else:
                Path(args.site_report).write_text(render_html_report(report))
        for error in report.page_errors:
            yield LintResult(name=item, error=error)
        yield LintResult(name=item, diagnostics=report.all_diagnostics())


def _report(results, emit, reporter, out, err, failures=()) -> int:
    """The one report tail: emit each result, then every failure (those
    given first) on stderr; returns the exit code."""
    failures = list(failures)
    total = 0
    reporter.begin(out)
    for result in results:
        emit(result)
        if result.error is not None:
            failures.append(result.error)
        else:
            total += result.count
    reporter.end()
    for failure in failures:
        err.write(f"weblint: {failure}\n")
    if failures:
        return constants.EXIT_USAGE
    return constants.EXIT_WARNINGS if total else constants.EXIT_CLEAN


#: Counters that always appear in the --stats summary, even at zero.
_STATS_DEFAULTS = (
    "lint.files",
    "lint.diagnostics.error",
    "lint.diagnostics.warning",
)


def _print_stats(registry, reporter, wall_seconds: float, stream) -> None:
    stream.write("weblint stats:\n")
    counts = reporter.count
    by_category = ", ".join(
        f"{value} {name}" for name, value in sorted(counts.items()) if name != "total"
    )
    stream.write(
        f"  diagnostics: {counts.get('total', 0)}"
        + (f" ({by_category})" if by_category else "")
        + "\n"
    )
    for line in registry.summary_lines(defaults=_STATS_DEFAULTS):
        stream.write(f"  {line}\n")
    stream.write(f"  total wall time: {wall_seconds * 1000.0:.1f} ms\n")


def _write_trace(tracer, destination: str, err) -> bool:
    """Write the recorded spans; ``-`` means a pretty tree on stderr.

    Returns False when the requested file could not be written, so the
    caller can fail the run instead of silently dropping the artefact.
    """
    if destination == "-":
        tree = tracer.format_tree()
        if tree:
            err.write(tree + "\n")
        return True
    try:
        with open(destination, "w", encoding="utf-8") as handle:
            tracer.write_jsonlines(handle)
    except OSError as exc:
        err.write(f"weblint: cannot write trace to {destination}: {exc}\n")
        return False
    return True


if __name__ == "__main__":  # pragma: no cover
    try:
        code = main()
    except BrokenPipeError:
        # Streamed output piped into head/jq and the reader went away:
        # die quietly with the conventional SIGPIPE status, and point
        # stdout at devnull so the interpreter's exit-time flush does
        # not raise the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 128 + 13
    raise SystemExit(code)
