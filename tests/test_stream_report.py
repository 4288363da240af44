"""The streaming diagnostics pipeline: iter_check, jsonl, rollups, shards.

Covers the stream-then-roll-up path end to end: the service's
incremental generator, the reporter emit contract, the bounded
:class:`SiteRollup` (order-independence and shard-merge properties),
and byte-identity of a merged sharded audit against an unsharded run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import pytest

from repro.config.options import Options
from repro.core.reporter import JsonlReporter, get_reporter
from repro.core.service import LintRequest, LintResult, LintService, StringSource
from repro.obs import use_registry
from repro.robot.frontier import shard_owns
from repro.robot.traversal import Robot, TraversalPolicy
from repro.site.report import render_text_report
from repro.site.rollup import PageSpill, SiteRollup
from repro.site.sitecheck import SiteChecker
from repro.workload.generator import PageGenerator
from repro.www.client import UserAgent
from repro.www.virtualweb import VirtualWeb

from .conftest import make_document
from .edge_site import EDGE_PAGES

BAD = make_document("<p>unclosed <b>bold\n<p>1 < 2</p>")
CLEAN = make_document("<p>Nothing wrong here.</p>")


def _requests(texts):
    return [
        LintRequest(StringSource(text, name=f"doc{index}.html"))
        for index, text in enumerate(texts)
    ]


# ---------------------------------------------------------------------------
# LintService.iter_check


class TestIterCheck:
    def test_matches_check_many_sequentially(self):
        service = LintService()
        requests = _requests([BAD, CLEAN, BAD])
        streamed = list(service.iter_check(_requests([BAD, CLEAN, BAD])))
        batched = service.check_many(requests)
        assert [r.name for r in streamed] == [r.name for r in batched]
        assert [
            [d.message_id for d in r.diagnostics] for r in streamed
        ] == [[d.message_id for d in r.diagnostics] for r in batched]

    def test_parallel_yields_every_result(self):
        service = LintService()
        texts = [BAD, CLEAN] * 6
        streamed = list(service.iter_check(_requests(texts), jobs=2))
        batched = service.check_many(_requests(texts), jobs=2)
        # Completion order may differ; the result *set* may not.
        by_name = lambda rs: {
            r.name: [d.message_id for d in r.diagnostics] for r in rs
        }
        assert by_name(streamed) == by_name(batched)

    def test_cached_batch_streams_hits_and_misses(self, tmp_path):
        from repro.core.cache import ResultCache

        service = LintService(cache=ResultCache(tmp_path))
        texts = [BAD, CLEAN, BAD, CLEAN]
        first = service.check_many(_requests(texts), jobs=2)
        streamed = list(service.iter_check(_requests(texts), jobs=2))
        assert {r.name for r in streamed} == {r.name for r in first}
        for warm, cold in zip(
            sorted(streamed, key=lambda r: r.name),
            sorted(first, key=lambda r: r.name),
        ):
            assert [d.message_id for d in warm.diagnostics] == [
                d.message_id for d in cold.diagnostics
            ]


# ---------------------------------------------------------------------------
# Reporter incremental contract


class TestReporterContract:
    def _results(self):
        service = LintService()
        return list(service.iter_check(_requests([BAD, CLEAN, BAD])))

    def test_emit_end_matches_buffered_report_for_batch_reporter(self):
        results = self._results()
        diagnostics = [d for r in results for d in r.diagnostics]
        buffered = get_reporter("json")
        expected = buffered.report(diagnostics)
        incremental = get_reporter("json").begin(None)
        for result in results:
            incremental.emit(result)
        assert incremental.end() == expected

    def test_emit_writes_immediately_for_line_reporters(self):
        results = self._results()
        stream = io.StringIO()
        reporter = get_reporter("lint").begin(stream)
        reporter.emit(results[0])
        assert stream.getvalue()  # first document already rendered
        for result in results[1:]:
            reporter.emit(result)
        reporter.end()
        buffered = io.StringIO()
        plain = get_reporter("lint")
        for result in results:
            plain.report(result.diagnostics, stream=buffered)
        assert stream.getvalue() == buffered.getvalue()

    def test_emit_skips_error_results_by_default(self):
        reporter = get_reporter("json").begin(None)
        reporter.emit(LintResult(name="gone.html", error="cannot read"))
        assert json.loads(reporter.end()) == []


class TestJsonlReporter:
    def test_streams_one_object_per_document(self):
        service = LintService()
        stream = io.StringIO()
        reporter = JsonlReporter().begin(stream)
        for result in service.iter_check(_requests([BAD, CLEAN])):
            reporter.emit(result)
        reporter.end()
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [line["file"] for line in lines] == ["doc0.html", "doc1.html"]
        assert lines[1] == {"file": "doc1.html", "count": 0, "diagnostics": []}
        assert lines[0]["count"] == len(lines[0]["diagnostics"]) > 0
        assert set(lines[0]["diagnostics"][0]) == {
            "id", "category", "line", "column", "message",
        }

    def test_error_results_become_error_records(self):
        stream = io.StringIO()
        reporter = JsonlReporter().begin(stream)
        reporter.emit(LintResult(name="gone.html", error="cannot read it"))
        reporter.end()
        assert json.loads(stream.getvalue()) == {
            "file": "gone.html", "error": "cannot read it",
        }

    def test_buffered_report_groups_by_file(self):
        service = LintService()
        diagnostics = [
            d
            for r in service.check_many(_requests([BAD, BAD]))
            for d in r.diagnostics
        ]
        stream = io.StringIO()
        reporter = JsonlReporter()
        reporter.report(diagnostics, stream=stream)
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [line["file"] for line in lines] == ["doc0.html", "doc1.html"]
        assert reporter.count["total"] == len(diagnostics)

    def test_weblint_cli_streams_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        good = tmp_path / "good.html"
        good.write_text(CLEAN, encoding="utf-8")
        bad = tmp_path / "bad.html"
        bad.write_text(BAD, encoding="utf-8")
        code = main(["-f", "jsonl", "-j", "1", str(good), str(bad)])
        lines = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert code == 1
        assert [line["file"] for line in lines] == [str(good), str(bad)]
        assert lines[0]["count"] == 0 and lines[1]["count"] > 0

    def test_weblint_cli_jsonl_reports_unreadable_files(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        code = main(["-f", "jsonl", "-j", "1", str(tmp_path / "absent.html")])
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        assert code == 2
        assert record["file"].endswith("absent.html") and "error" in record
        assert "weblint:" in captured.err


# ---------------------------------------------------------------------------
# SiteRollup properties


def _site_pages(n_pages=24, seed=9):
    return list(PageGenerator(seed=seed).site(n_pages).items())


def _buffered_report(pages):
    options = Options.with_defaults()
    options.follow_links = True
    return SiteChecker(service=LintService(options=options)).check_pages(
        iter(pages), root="prop-site"
    )


class TestSiteRollup:
    def test_from_report_matches_legacy_counts(self):
        report = _buffered_report(_site_pages())
        rollup = SiteRollup.from_report(report, navigation=False)
        assert rollup.pages == len(report.pages)
        assert rollup.total_messages == report.count()
        assert rollup.count("bad-link") == report.count("bad-link")
        assert (
            rollup.counts()["pages with problems"]
            == len(report.pages_with_problems())
        )

    def test_render_parity_between_report_and_rollup(self):
        report = _buffered_report(_site_pages())
        assert render_text_report(report) == render_text_report(
            SiteRollup.from_report(report)
        )

    def test_worst_pages_tie_break_is_ascending_path(self):
        rollup = SiteRollup(root="site")
        for page in ("zebra.html", "alpha.html", "midway.html"):
            rollup.note_page(page, 3)
        rollup.note_page("worst.html", 9)
        assert rollup.worst_pages() == [
            (9, "worst.html"),
            (3, "alpha.html"),
            (3, "midway.html"),
            (3, "zebra.html"),
        ]

    def test_streamed_rollup_is_arrival_order_independent(self):
        # A generated site, and the edge-case site's directory links,
        # query strings, fragments and subdirectory index pages.
        for pages in (_site_pages(), sorted(EDGE_PAGES.items())):
            report = _buffered_report(pages)
            reference = SiteRollup.from_report(report)
            rng = random.Random(4)
            for _ in range(3):
                shuffled = list(pages)
                rng.shuffle(shuffled)
                options = Options.with_defaults()
                options.follow_links = True
                rollup = SiteChecker(
                    service=LintService(options=options)
                ).check_pages(
                    iter(shuffled),
                    root="prop-site",
                    rollup=SiteRollup(root="prop-site"),
                )
                assert rollup.to_payload() == reference.to_payload()

    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_partitioned_rollups_merge_to_the_whole(self, shards):
        report = _buffered_report(_site_pages())
        reference = SiteRollup.from_report(report, navigation=False)
        parts = [SiteRollup(root=report.root) for _ in range(shards)]
        for page in report.pages:
            owner = next(
                k for k in range(shards) if shard_owns(page, shards, k)
            )
            parts[owner].add_page(page, report.page_diagnostics[page])
        for source, _target in report.link_graph:
            owner = next(
                k for k in range(shards) if shard_owns(source, shards, k)
            )
            parts[owner].note_links(1)
        merged = parts[0]
        for part in parts[1:]:
            merged.merge(part)
        merged.count_diagnostics(report.site_diagnostics)
        assert merged.to_payload() == reference.to_payload()

    def test_payload_round_trip(self):
        report = _buffered_report(_site_pages())
        rollup = SiteRollup.from_report(report)
        clone = SiteRollup.from_payload(
            json.loads(json.dumps(rollup.to_payload()))
        )
        assert clone == rollup
        assert render_text_report(clone) == render_text_report(rollup)

    def test_spill_records_both_phases(self, tmp_path):
        pages = _site_pages(8)
        spill_path = tmp_path / "pages.jsonl"
        options = Options.with_defaults()
        options.follow_links = True
        with PageSpill(spill_path) as spill:
            SiteChecker(service=LintService(options=options)).check_pages(
                iter(pages),
                root="spill-site",
                rollup=SiteRollup(root="spill-site"),
                spill=spill,
            )
        records = [
            json.loads(line)
            for line in spill_path.read_text().splitlines()
        ]
        lint = [r for r in records if r.get("phase") == "lint"]
        assert len(lint) == len(pages)
        site_counts = sum(
            r["count"] for r in records if r.get("phase") == "site"
        )
        assert site_counts == sum(
            1
            for r in records
            if r.get("phase") == "site"
            for _ in r["diagnostics"]
        )


# ---------------------------------------------------------------------------
# Sharded audits end to end


def _run_poacher(argv):
    from repro.robot.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


class TestShardedAudit:
    @pytest.fixture()
    def site_dir(self, tmp_path):
        directory = tmp_path / "site"
        directory.mkdir()
        for name, text in PageGenerator(seed=11).site(24).items():
            (directory / name).write_text(text, encoding="utf-8")
        return directory

    @pytest.mark.parametrize("shards", [2, 3])
    def test_merged_shards_match_unsharded_bytes(
        self, site_dir, tmp_path, shards
    ):
        from repro.tools.merge_shards import main as merge_main

        baseline = tmp_path / "unsharded"
        assert _run_poacher(
            [str(site_dir), "--state-dir", str(baseline), "--shards", "1"]
        ) in (0, 1)
        for shard in range(shards):
            code = _run_poacher([
                str(site_dir),
                "--state-dir", str(tmp_path / "sharded"),
                "--shards", str(shards),
                "--shard", str(shard),
            ])
            assert code in (0, 1)
        assert merge_main([str(baseline)]) == 0
        assert merge_main([str(tmp_path / "sharded")]) == 0
        for name in ("rollup.json", "report.txt", "pages.jsonl"):
            expected = (baseline / "report" / "merged" / name).read_bytes()
            actual = (
                tmp_path / "sharded" / "report" / "merged" / name
            ).read_bytes()
            assert actual == expected, name

    def test_shard_report_dirs_record_memory_gauge(self, site_dir, tmp_path):
        _run_poacher([
            str(site_dir),
            "--state-dir", str(tmp_path / "state"),
            "--shards", "2", "--shard", "0",
        ])
        shard_dir = tmp_path / "state" / "report" / "shard-0-of-2"
        snapshot = json.loads((shard_dir / "metrics.json").read_text())
        gauge = snapshot.get("report.memory.high_water_bytes")
        assert isinstance(gauge, dict) and gauge["max"] > 0
        assert (shard_dir / "rollup.json").is_file()
        assert (shard_dir / "pages.jsonl").is_file()
        assert (shard_dir / "report.txt").is_file()

    def test_merge_shards_rejects_incomplete_sets(self, site_dir, tmp_path):
        from repro.tools.merge_shards import main as merge_main

        _run_poacher([
            str(site_dir),
            "--state-dir", str(tmp_path / "state"),
            "--shards", "2", "--shard", "0",
        ])
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            assert merge_main([str(tmp_path / "state")]) == 2
        assert "missing shard" in stderr.getvalue()

    def test_shards_flag_requires_state_dir(self, site_dir):
        with pytest.raises(SystemExit):
            _run_poacher([str(site_dir), "--shards", "2"])


class TestShardOwns:
    def test_partition_is_total_and_disjoint(self):
        urls = [f"http://localhost/page{i}.html" for i in range(64)]
        for shards in (1, 2, 3, 5):
            for url in urls:
                owners = [
                    k for k in range(shards) if shard_owns(url, shards, k)
                ]
                assert len(owners) == 1

    def test_single_shard_owns_everything(self):
        assert shard_owns("http://anything/", 1, 0)

    def test_a_page_reached_through_an_alias_has_one_owner(self):
        # ``sub`` (a 301 to ``sub/``) is linked, and so fetched, first.
        # The page belongs to the shard owning its final URL, not the
        # alias that reached it, so shards that complete the two
        # requests in different orders still agree on its owner.
        assert shard_owns("http://s/sub/", 2, 0)
        assert shard_owns("http://s/sub", 2, 1)
        web = VirtualWeb()
        web.add_site("http://s/", {
            "index.html": make_document(
                '<p><a href="sub">alias</a> <a href="sub/">page</a></p>'
            ),
            "sub/index.html": make_document("<p>sub</p>"),
        })
        processed = {}
        for shard in (0, 1):
            pages = processed[shard] = []
            with use_registry():
                Robot(
                    UserAgent(web), TraversalPolicy(shards=2, shard=shard)
                ).crawl(
                    "http://s/index.html",
                    lambda url, response, links: pages.append(url),
                )
        owners = [k for k in (0, 1) if "http://s/sub/" in processed[k]]
        assert owners == [0]


# ---------------------------------------------------------------------------
# Memory sampling and the run ledger


class TestMemoryTelemetry:
    def test_sampler_records_high_water_gauge(self):
        from repro.obs.memory import REPORT_MEMORY_GAUGE, MemorySampler
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        with MemorySampler(interval_s=0.01, registry=registry):
            # Distinct strings: a constant-folded "x" * 1024 would be
            # one shared object and allocate almost nothing.
            hoard = ["x" * 1024 + str(i) for i in range(512)]
        del hoard
        gauge = registry.snapshot()[REPORT_MEMORY_GAUGE]
        assert gauge["max"] >= 512 * 1024

    def test_summarize_run_reports_high_water_kb(self):
        from repro.obs.ledger import summarize_run

        record = summarize_run(
            {"report.memory.high_water_bytes": {"value": 1024.0, "max": 2048.0}},
            "poacher",
            1.0,
        )
        assert record["report_high_water_kb"] == 2.0
        assert "report_high_water_kb" not in summarize_run({}, "poacher", 1.0)
