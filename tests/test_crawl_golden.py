"""Golden poacher output: one per-page audit behind both crawl modes.

``Poacher.crawl`` (the buffered ``CrawlReport``) and
``Poacher.crawl_stream`` (the bounded rollup) share one per-page lint and
link check.  The files under ``tests/golden/crawl_edge/`` pin what both
print on the edge-case sites of ``tests/edge_site.py``:

- ``crawl-<options>.txt``: ``summary_lines()`` then every page's lint
  diagnostics, for default options, ``bad-link`` off and
  ``bad-fragment`` off;
- ``stream-<options>.txt``: the ``on_result`` stream sorted by name,
  then ``rollup.to_payload()``;
- ``cli-*.txt``: ``poacher`` on the directory edge site -- the default
  output, ``--format jsonl`` (lines sorted), and the ``rollup.json`` /
  ``report.txt`` / ``pages.jsonl`` merged from ``--shards 2``, which is
  also the ``pages.jsonl`` an unsharded ``--state-dir`` run spills.

Every output must be the same at frontier concurrency 1 and 2, and the
two modes must agree page by page.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.config.options import Options
from repro.core.service import LintResult
from repro.robot.cli import main as poacher_main
from repro.robot.poacher import CrawlReport, Poacher
from repro.robot.traversal import TraversalPolicy
from repro.site.rollup import SiteRollup
from repro.tools.merge_shards import main as merge_main
from repro.www.client import UserAgent
from tests.edge_site import CRAWL_START, edge_web, write_edge_site

GOLDEN = Path(__file__).parent / "golden" / "crawl_edge"

#: Option sets the goldens cover, by file-name suffix.
OPTION_SETS = {
    "default": (),
    "no-bad-link": ("bad-link",),
    "no-bad-fragment": ("bad-fragment",),
}


def _poacher(disabled: tuple[str, ...], concurrency: int) -> Poacher:
    options = Options.with_defaults()
    if disabled:
        options.disable(*disabled)
    return Poacher(
        UserAgent(edge_web()),
        options=options,
        policy=TraversalPolicy(concurrency=concurrency),
    )


def render_crawl(report: CrawlReport) -> str:
    lines = list(report.summary_lines())
    for page in report.pages:
        lines.extend(f"{d.message_id} {d}" for d in page.diagnostics)
    return "\n".join(lines) + "\n"


def render_stream(results: list[LintResult], rollup: SiteRollup) -> str:
    lines = []
    for result in sorted(results, key=lambda result: result.name):
        lines.append(f"{result.name}: error={result.error}")
        lines.extend(f"  {d.message_id} {d}" for d in result.diagnostics)
    lines.append(json.dumps(rollup.to_payload(), indent=2, sort_keys=True))
    return "\n".join(lines) + "\n"


def _crawl(disabled, concurrency) -> CrawlReport:
    return _poacher(disabled, concurrency).crawl(CRAWL_START)


def _stream(disabled, concurrency) -> tuple[list[LintResult], SiteRollup]:
    results: list[LintResult] = []
    rollup = _poacher(disabled, concurrency).crawl_stream(
        CRAWL_START, on_result=results.append
    )
    return results, rollup


@pytest.mark.parametrize("concurrency", [1, 2])
@pytest.mark.parametrize("suffix", sorted(OPTION_SETS))
class TestApiGolden:
    def test_crawl_report(self, suffix, concurrency):
        report = _crawl(OPTION_SETS[suffix], concurrency)
        want = (GOLDEN / f"crawl-{suffix}.txt").read_text()
        assert render_crawl(report) == want

    def test_stream(self, suffix, concurrency):
        results, rollup = _stream(OPTION_SETS[suffix], concurrency)
        want = (GOLDEN / f"stream-{suffix}.txt").read_text()
        assert render_stream(results, rollup) == want


def _findings_in_link_order(page) -> list[tuple[str, int, str]]:
    """A page's broken-link and bad-fragment findings, in link order."""
    broken = {id(link) for link, _ in page.broken_links}
    bad = {id(link) for link in page.bad_fragments}
    findings = []
    for link in page.links:
        if id(link) in broken:
            findings.append(("bad-link", link.line, link.url))
        elif id(link) in bad:
            findings.append(("bad-fragment", link.line, link.url))
    return findings


def _key(diagnostic) -> tuple[str, int, str]:
    return (diagnostic.message_id, diagnostic.line, diagnostic.text)


@pytest.mark.parametrize("concurrency", [1, 2])
@pytest.mark.parametrize("suffix", sorted(OPTION_SETS))
def test_crawl_and_stream_agree(suffix, concurrency):
    report = _crawl(OPTION_SETS[suffix], concurrency)
    results, rollup = _stream(OPTION_SETS[suffix], concurrency)
    assert report.total_problems() == rollup.total_messages
    streamed = {result.name: result for result in results if result.ok}
    assert sorted(streamed) == [page.url for page in report.pages]
    for page in report.pages:
        diagnostics = streamed[page.url].diagnostics
        lint = len(page.diagnostics)
        assert [_key(d) for d in diagnostics[:lint]] == [
            _key(d) for d in page.diagnostics
        ]
        assert [
            (d.message_id, d.line, d.arguments["target"]
             if d.message_id == "bad-link" else _fragment_url(d))
            for d in diagnostics[lint:]
        ] == _findings_in_link_order(page)


def _fragment_url(diagnostic) -> str:
    target = diagnostic.arguments["target"]
    fragment = diagnostic.arguments["fragment"]
    return f"{'' if target == 'this page' else target}#{fragment}"


def test_a_page_is_fetched_once_for_its_own_fragments():
    """``#absent`` and ``#top`` are judged against the anchors the crawl
    already scanned, not by fetching ``index.html`` a second time."""
    web = edge_web()
    report = Poacher(UserAgent(web)).crawl(CRAWL_START)
    assert [link.url for link in report.page(CRAWL_START).bad_fragments] == [
        "moved.html#nowhere", "page.html#nowhere", "#absent",
    ]
    gets = [r.url for r in web.request_log if r.method == "GET"]
    assert gets.count(CRAWL_START) == 1


# -- the command line ---------------------------------------------------------


def _poacher_cli(*args: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = poacher_main(list(args))
    return code, out.getvalue()


@pytest.fixture
def site(tmp_path):
    return write_edge_site(tmp_path)


@pytest.mark.parametrize("jobs", ["1", "2"])
class TestCliGolden:
    def test_default_output(self, site, tmp_path, jobs):
        want = (GOLDEN / "cli-summary.txt").read_text()
        assert _poacher_cli(str(site), "-j", jobs) == (1, want)
        state = str(tmp_path / "state")
        for _ in ("cold", "warm"):
            code, out = _poacher_cli(str(site), "-j", jobs, "--state-dir", state)
            assert (code, out) == (1, want)

    def test_jsonl_output(self, site, tmp_path, jobs):
        state = str(tmp_path / "state")
        spill = tmp_path / "state" / "report" / "pages.jsonl"
        # No state dir, then a cold and a warm one, whose spill holds the
        # records that merging two shards' spills gives.
        for extra in ((), ("--state-dir", state), ("--state-dir", state)):
            code, out = _poacher_cli(str(site), "-j", jobs, "--format", "jsonl", *extra)
            assert code == 1
            lines = "".join(sorted(out.splitlines(keepends=True)))
            assert lines == (GOLDEN / "cli-jsonl.txt").read_text()
            if extra:
                records = spill.read_text().splitlines(keepends=True)
                records.sort(key=lambda line: json.loads(line)["page"])
                want = (GOLDEN / "cli-merged-pages.jsonl").read_text()
                assert "".join(records) == want

    def test_merged_shards(self, site, tmp_path, jobs):
        state = tmp_path / "state"
        for shard in ("0", "1"):
            code, _ = _poacher_cli(
                str(site), "-j", jobs, "--state-dir", str(state),
                "--shards", "2", "--shard", shard,
            )
            assert code in (0, 1)
        with contextlib.redirect_stdout(io.StringIO()):
            assert merge_main([str(state)]) == 0
        merged = state / "report" / "merged"
        for name in ("rollup.json", "report.txt", "pages.jsonl"):
            want = (GOLDEN / f"cli-merged-{name}").read_text()
            assert (merged / name).read_text() == want, name
