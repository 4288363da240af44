"""Tests for the weblint / poacher / gateway command-line front-ends."""

from __future__ import annotations

import pytest

from repro.cli import main as weblint_main
from repro.gateway.cli import main as gateway_main
from repro.robot.cli import main as poacher_main
from repro.workload import PageGenerator
from tests.conftest import PAPER_EXAMPLE, make_document


@pytest.fixture
def example_file(tmp_path):
    page = tmp_path / "test.html"
    page.write_text(PAPER_EXAMPLE)
    return page


@pytest.fixture
def clean_file(tmp_path):
    page = tmp_path / "clean.html"
    page.write_text(make_document("<p>hello</p>"))
    return page


class TestWeblintCli:
    def test_problems_exit_1(self, example_file, capsys):
        assert weblint_main(["--no-config", str(example_file)]) == 1
        out = capsys.readouterr().out
        assert "first element was not DOCTYPE" in out

    def test_clean_exit_0(self, clean_file, capsys):
        assert weblint_main(["--no-config", str(clean_file)]) == 0
        assert capsys.readouterr().out == ""

    def test_short_format(self, example_file, capsys):
        weblint_main(["--no-config", "-s", str(example_file)])
        out = capsys.readouterr().out
        assert out.startswith("line 1: ")

    def test_default_lint_format(self, example_file, capsys):
        weblint_main(["--no-config", str(example_file)])
        out = capsys.readouterr().out
        assert out.startswith(f"{example_file}(1): ")

    def test_verbose_format(self, example_file, capsys):
        weblint_main(["--no-config", "-v", str(example_file)])
        out = capsys.readouterr().out
        assert "require-doctype" in out

    def test_json_format(self, example_file, capsys):
        import json

        weblint_main(["--no-config", "-f", "json", str(example_file)])
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 7

    def test_disable_switch(self, example_file, capsys):
        weblint_main(
            ["--no-config", "-d", "require-doctype", str(example_file)]
        )
        assert "DOCTYPE" not in capsys.readouterr().out

    def test_enable_switch(self, clean_file, capsys):
        (clean_file.parent / "b.html").write_text(
            make_document("<p><b>x</b></p>")
        )
        weblint_main(
            ["--no-config", "-e", "physical-font",
             str(clean_file.parent / "b.html")]
        )
        assert "STRONG" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert weblint_main(["--no-config", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in ("inline-config", "document", "images", "plugins"):
            assert name in out

    def test_list_rules_reflects_disable(self, capsys):
        weblint_main(
            ["--no-config", "--disable-rule", "images", "--list-rules"]
        )
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith("images"):
                assert " off " in line
                break
        else:
            pytest.fail("images row missing from --list-rules output")

    def test_disable_rule(self, example_file, capsys):
        weblint_main(
            ["--no-config", "--disable-rule", "document", str(example_file)]
        )
        assert "DOCTYPE" not in capsys.readouterr().out

    def test_disable_then_enable_rule_round_trip(self, example_file, capsys):
        weblint_main(["--no-config", str(example_file)])
        baseline = capsys.readouterr().out
        weblint_main(
            ["--no-config", "--disable-rule", "document,images",
             "--enable-rule", "document,images", str(example_file)]
        )
        assert capsys.readouterr().out == baseline

    def test_unknown_rule_is_usage_error(self, example_file, capsys):
        assert (
            weblint_main(
                ["--no-config", "--disable-rule", "nonsense", str(example_file)]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "unknown rule" in err and "registered:" in err

    def test_extension_switch(self, tmp_path, capsys):
        page = tmp_path / "n.html"
        page.write_text(make_document("<p><blink>x</blink></p>"))
        assert weblint_main(["--no-config", "-x", "netscape", str(page)]) == 0

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(PAPER_EXAMPLE))
        assert weblint_main(["--no-config", "-s", "-"]) == 1
        assert "stdin" not in capsys.readouterr().out  # -s has no filename

    def test_directory_without_recurse_errors(self, tmp_path, capsys):
        assert weblint_main(["--no-config", str(tmp_path)]) == 2
        assert "use -R" in capsys.readouterr().err

    def test_recurse(self, tmp_path, capsys):
        site = PageGenerator(seed=4).site(3)
        for name, body in site.items():
            (tmp_path / name).write_text(body)
        (tmp_path / "images").mkdir()
        for index in range(4):
            (tmp_path / "images" / f"figure{index}.gif").write_text("GIF89a")
        (tmp_path / "orphan.html").write_text(make_document("<p>x</p>"))
        assert weblint_main(["--no-config", "-R", str(tmp_path)]) == 1
        assert "orphan" in capsys.readouterr().out

    def test_site_report_text(self, tmp_path, capsys):
        site = PageGenerator(seed=4).site(2)
        for name, body in site.items():
            (tmp_path / name).write_text(body)
        (tmp_path / "images").mkdir()
        for index in range(4):
            (tmp_path / "images" / f"figure{index}.gif").write_text("GIF")
        weblint_main(
            ["--no-config", "-R", "--site-report", "-", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert "site report:" in out and "navigation analysis" in out

    def test_site_report_html_file(self, tmp_path, capsys):
        (tmp_path / "index.html").write_text(make_document("<p>x</p>"))
        target = tmp_path / "report-out.html"
        weblint_main(
            ["--no-config", "-R", "--site-report", str(target), str(tmp_path)]
        )
        assert target.is_file()
        assert "<h2>Summary</h2>" in target.read_text()

    def test_locale_switch(self, example_file, capsys):
        weblint_main(["--no-config", "--locale", "de", str(example_file)])
        out = capsys.readouterr().out
        assert "DOCTYPE-Deklaration" in out

    def test_rcfile_switch(self, example_file, tmp_path, capsys):
        rc = tmp_path / "rc"
        rc.write_text("disable all\n")
        assert weblint_main(["--rcfile", str(rc), str(example_file)]) == 0

    def test_cli_overrides_rcfile(self, example_file, tmp_path, capsys):
        rc = tmp_path / "rc"
        rc.write_text("disable all\n")
        code = weblint_main(
            ["--rcfile", str(rc), "-e", "require-doctype", str(example_file)]
        )
        assert code == 1
        assert "DOCTYPE" in capsys.readouterr().out

    def test_bad_rcfile_exit_2(self, example_file, tmp_path, capsys):
        rc = tmp_path / "rc"
        rc.write_text("enable no-such-message\n")
        assert weblint_main(["--rcfile", str(rc), str(example_file)]) == 2

    def test_bad_enable_exit_2(self, example_file, capsys):
        assert (
            weblint_main(["--no-config", "-e", "bogus", str(example_file)]) == 2
        )

    def test_list_messages(self, capsys):
        assert weblint_main(["--list-messages"]) == 0
        out = capsys.readouterr().out
        assert "unclosed-element" in out and "here-anchor" in out

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert (
            weblint_main(["--no-config", str(tmp_path / "nope.html")]) == 2
        )

    def test_pedantic_switch(self, tmp_path, capsys):
        page = tmp_path / "b.html"
        page.write_text(make_document("<p><b>x</b></p>"))
        weblint_main(["--no-config", "--pedantic", str(page)])
        assert "STRONG" in capsys.readouterr().out


class TestWeblintObservabilityCli:
    def test_stats_summary_on_stderr(self, example_file, clean_file, capsys):
        assert weblint_main(
            ["--no-config", "--stats", str(example_file), str(clean_file)]
        ) == 1
        err = capsys.readouterr().err
        assert "weblint stats:" in err
        assert "lint.files: 2" in err
        assert "lint.diagnostics.error:" in err
        assert "lint.diagnostics.warning:" in err
        assert "total wall time:" in err

    def test_stats_reports_zero_on_clean_run(self, clean_file, capsys):
        weblint_main(["--no-config", "--stats", str(clean_file)])
        err = capsys.readouterr().err
        # Named defaults appear even when nothing incremented them.
        assert "lint.diagnostics.error: 0" in err

    def test_stats_is_per_invocation(self, example_file, capsys):
        weblint_main(["--no-config", "--stats", str(example_file)])
        weblint_main(["--no-config", "--stats", str(example_file)])
        err = capsys.readouterr().err
        # Two runs, each reporting only its own file -- never "lint.files: 2".
        assert err.count("lint.files: 1") == 2

    def test_profile_report(self, example_file, capsys):
        weblint_main(["--no-config", "--profile", str(example_file)])
        err = capsys.readouterr().err
        assert "rule profile (1 document(s) checked)" in err
        assert "calls" in err and "total ms" in err
        assert "heading-mismatch" in err

    def test_trace_file_is_parseable_jsonlines(
        self, example_file, tmp_path, capsys
    ):
        import json

        trace_path = tmp_path / "trace.jsonl"
        weblint_main(
            ["--no-config", "--trace", str(trace_path), str(example_file)]
        )
        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert records, "trace file is empty"
        by_name = {record["name"]: record for record in records}
        root = by_name["lint.file"]
        assert root["parent"] is None
        assert by_name["engine.dispatch"]["parent"] == root["id"]
        assert by_name["engine.dispatch"]["depth"] == 1

    def test_trace_dash_writes_tree_to_stderr(self, example_file, capsys):
        weblint_main(["--no-config", "--trace", "-", str(example_file)])
        err = capsys.readouterr().err
        assert "lint.file" in err
        assert "engine.tokenize" in err

    def test_stats_reporter_format(self, example_file, capsys):
        import json

        # --no-cache: a cache hit (WEBLINT_CACHE_DIR) skips the engine,
        # and with it the lint.check_ms histogram this test reads.
        weblint_main(["--no-config", "--no-cache", "-f", "stats", str(example_file)])
        data = json.loads(capsys.readouterr().out)
        assert data["diagnostics"]["total"] == 7
        assert data["metrics"]["lint.files"] == 1
        # Histogram snapshots carry interpolated percentiles.
        assert "p95" in data["metrics"]["lint.check_ms"]

    def test_stats_flag_shows_percentiles(self, example_file, capsys):
        weblint_main(["--no-config", "--no-cache", "--stats", str(example_file)])
        err = capsys.readouterr().err
        assert "lint.check_ms: count=1" in err
        assert "p50=" in err and "p95=" in err and "p99=" in err

    def test_telemetry_dir(self, example_file, tmp_path, capsys):
        import json

        telemetry = tmp_path / "telemetry"
        code = weblint_main(
            ["--no-config", "--no-cache", "--telemetry-dir", str(telemetry),
             str(example_file)]
        )
        assert code == 1  # the example page still has problems
        prom = (telemetry / "metrics.prom").read_text()
        assert "lint_files_total 1" in prom
        assert 'lint_check_ms_bucket{le="+Inf"} 1' in prom
        runs = [
            json.loads(line)
            for line in (telemetry / "runs.jsonl").read_text().splitlines()
        ]
        assert runs[-1]["tool"] == "weblint"
        assert runs[-1]["documents"] == 1
        assert runs[-1]["diagnostics"] == 7

    def test_telemetry_dir_streams_slow_ops(self, tmp_path, capsys):
        import json

        page = tmp_path / "page.html"
        page.write_text(make_document("<p>ok</p>"))
        telemetry = tmp_path / "telemetry"
        # slow_ms is not CLI-configurable, but traced spans feed the
        # event log, so --trace plus an (almost) instant document still
        # exercises the events.jsonl stream end to end.
        weblint_main(
            ["--no-config", "--telemetry-dir", str(telemetry), str(page)]
        )
        assert (telemetry / "events.jsonl").exists()
        for line in (telemetry / "events.jsonl").read_text().splitlines():
            json.loads(line)  # every line parses

    def test_recurse_with_stats_counts_site_metrics(self, tmp_path, capsys):
        (tmp_path / "index.html").write_text(
            make_document('<p><a href="missing.html">gone</a></p>')
        )
        weblint_main(["--no-config", "-R", "--stats", str(tmp_path)])
        err = capsys.readouterr().err
        assert "site.files.checked: 1" in err
        assert "site.diagnostics.error: 1" in err


class TestPoacherCli:
    def test_crawl_directory(self, tmp_path, capsys):
        site = PageGenerator(seed=9, ).site(3)
        for name, body in site.items():
            (tmp_path / name).write_text(body)
        code = poacher_main([str(tmp_path)])
        out = capsys.readouterr().out
        assert "crawled" in out
        assert code == 1  # generated images are not on disk -> broken links

    def test_ignore_robots(self, tmp_path, capsys):
        site = PageGenerator(seed=9).site(2)
        for name, body in site.items():
            (tmp_path / name).write_text(body)
        (tmp_path / "robots.txt").write_text("User-agent: *\nDisallow: /\n")
        code = poacher_main([str(tmp_path), "--ignore-robots", "--no-links"])
        assert code == 0
        assert "crawled 2 page(s)" in capsys.readouterr().out

    def test_no_links_mode(self, tmp_path, capsys):
        site = PageGenerator(seed=9).site(2)
        for name, body in site.items():
            (tmp_path / name).write_text(body)
        code = poacher_main([str(tmp_path), "--no-links"])
        assert code == 0
        assert "0 broken link(s)" in capsys.readouterr().out

    def test_stats_flag(self, tmp_path, capsys):
        site = PageGenerator(seed=9).site(2)
        for name, body in site.items():
            (tmp_path / name).write_text(body)
        poacher_main([str(tmp_path), "--no-links", "--stats"])
        err = capsys.readouterr().err
        assert "poacher stats:" in err
        assert "robot.pages.fetched: 2" in err
        # Latency is summarized (histogram percentiles + a bounded
        # slowest-N list), not stored per URL.
        assert "robot.fetch.latency_ms: count=2" in err
        assert "p95=" in err
        assert "slowest fetches:" in err
        assert "http://localhost/index.html:" in err

    def test_progress_flag(self, tmp_path, capsys):
        site = PageGenerator(seed=9).site(3)
        for name, body in site.items():
            (tmp_path / name).write_text(body)
        code = poacher_main([str(tmp_path), "--no-links", "--progress"])
        assert code == 0
        err = capsys.readouterr().err
        assert "crawl: 3 done, 0 in flight, 0 failed" in err
        assert "pages/s" in err and "ETA" in err

    def test_telemetry_dir(self, tmp_path, capsys):
        import json

        site_dir = tmp_path / "site"
        site_dir.mkdir()
        for name, body in PageGenerator(seed=9).site(2).items():
            (site_dir / name).write_text(body)
        telemetry = tmp_path / "telemetry"
        code = poacher_main(
            [str(site_dir), "--no-links", "--telemetry-dir", str(telemetry)]
        )
        assert code == 0
        prom = (telemetry / "metrics.prom").read_text()
        assert "robot_pages_fetched_total 2" in prom
        assert prom.endswith("# EOF\n")
        metrics = json.loads(
            (telemetry / "metrics.jsonl").read_text().splitlines()[-1]
        )
        assert metrics["metrics"]["robot.pages.fetched"] == 2
        runs = [
            json.loads(line)
            for line in (telemetry / "runs.jsonl").read_text().splitlines()
        ]
        assert [r["run"] for r in runs] == [1]
        assert runs[0]["tool"] == "poacher"
        assert runs[0]["pages"] == 2

    def test_ledger_prefers_state_dir(self, tmp_path):
        site_dir = tmp_path / "site"
        site_dir.mkdir()
        for name, body in PageGenerator(seed=9).site(2).items():
            (site_dir / name).write_text(body)
        state = tmp_path / "state"
        poacher_main([str(site_dir), "--no-links", "--state-dir", str(state)])
        poacher_main([str(site_dir), "--no-links", "--state-dir", str(state)])
        import json

        runs = [
            json.loads(line)
            for line in (state / "runs.jsonl").read_text().splitlines()
        ]
        assert [r["run"] for r in runs] == [1, 2]
        # The warm run revalidated both pages.
        assert runs[1]["revalidated"] == 2


class TestGatewayCli:
    def test_query_argument(self, capsys):
        from repro.gateway.forms import encode_form

        code = gateway_main([encode_form({"html": PAPER_EXAMPLE})])
        out = capsys.readouterr().out
        assert code == 0  # the report page itself is a 200
        assert out.startswith("Status: 200")
        assert "odd number of quotes" in out

    def test_no_header_flag(self, capsys):
        from repro.gateway.forms import encode_form

        gateway_main(["--no-header", encode_form({"html": "<p>x</p>"})])
        out = capsys.readouterr().out
        assert out.startswith("<!DOCTYPE")

    def test_site_dir_url_fetch(self, tmp_path, capsys):
        from repro.gateway.forms import encode_form

        (tmp_path / "x.html").write_text(PAPER_EXAMPLE)
        code = gateway_main(
            [
                "--site-dir", str(tmp_path),
                encode_form({"url": "http://localhost/x.html"}),
            ]
        )
        assert code == 0
        assert "overlap" in capsys.readouterr().out

    def test_bad_form_nonzero(self, capsys):
        code = gateway_main([""])
        assert code == 1
        assert "Status: 400" in capsys.readouterr().out


class TestWeblintCliBatch:
    """--jobs and the multi-path batch pipeline."""

    @pytest.fixture
    def many_files(self, tmp_path):
        paths = []
        for index in range(6):
            page = tmp_path / f"page{index}.html"
            page.write_text(PAPER_EXAMPLE)
            paths.append(str(page))
        return paths

    def test_jobs_output_matches_sequential(self, many_files, capsys):
        assert weblint_main(["--no-config"] + many_files) == 1
        sequential = capsys.readouterr().out
        assert weblint_main(["--no-config", "--jobs", "3"] + many_files) == 1
        parallel = capsys.readouterr().out
        assert parallel == sequential

    def test_jobs_zero_means_cpu_count(self, example_file, capsys):
        assert weblint_main(["--no-config", "-j", "0", str(example_file)]) == 1
        assert "first element was not DOCTYPE" in capsys.readouterr().out

    def test_multi_path_json_is_one_document(self, many_files, capsys):
        import json

        weblint_main(["--no-config", "-f", "json"] + many_files)
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 7 * len(many_files)
        # Per-file grouping survives aggregation, in input order.
        assert [entry["file"] for entry in data] == sorted(
            (entry["file"] for entry in data),
            key=lambda name: many_files.index(name),
        )

    def test_multi_path_stats_is_one_document(self, many_files, capsys):
        import json

        weblint_main(["--no-config", "-f", "stats"] + many_files)
        data = json.loads(capsys.readouterr().out)
        assert data["diagnostics"]["total"] == 7 * len(many_files)
        assert data["metrics"]["lint.files"] == len(many_files)

    def test_missing_file_does_not_kill_batch(
        self, example_file, tmp_path, capsys
    ):
        missing = tmp_path / "gone.html"
        code = weblint_main(
            ["--no-config", str(missing), str(example_file)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot read" in captured.err
        # The readable file was still checked and reported.
        assert "first element was not DOCTYPE" in captured.out

    def test_jobs_with_recursion(self, tmp_path, capsys):
        site = tmp_path / "site"
        site.mkdir()
        (site / "index.html").write_text(PAPER_EXAMPLE)
        (site / "other.html").write_text(PAPER_EXAMPLE)
        assert (
            weblint_main(["--no-config", "-R", "--jobs", "2", str(site)]) == 1
        )
        out = capsys.readouterr().out
        assert "index.html" in out and "other.html" in out
