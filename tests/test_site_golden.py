"""Golden ``weblint -R`` output on the edge-case site (``tests/edge_site.py``).

The files under ``tests/golden/site_edge/`` pin the site check's exact
output -- page order, the order findings attach to a page, messages and
the summary tables -- in the default format, ``-f json``, ``--site-report
-`` and the HTML site report.  Paths under the site root are written as
``SITE``.  Every output must be the same whatever the job count and
whether the lint cache is cold or warm.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from repro.cli import main
from tests.edge_site import write_edge_site

GOLDEN = Path(__file__).parent / "golden" / "site_edge"


def _weblint(site: Path, *args: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--no-config", "-R", *args, str(site)])
    return code, out.getvalue().replace(str(site), "SITE")


@pytest.fixture
def site(tmp_path):
    return write_edge_site(tmp_path)


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "golden, args",
    [
        ("lint.txt", ()),
        ("json.txt", ("-f", "json")),
        ("site_report.txt", ("--site-report", "-")),
    ],
)
def test_output_matches_golden(site, golden, args, jobs):
    code, out = _weblint(site, "--jobs", jobs, *args)
    assert code == 1
    assert out == (GOLDEN / golden).read_text()


def test_html_site_report_matches_golden(site, tmp_path):
    target = tmp_path / "report.html"
    code, out = _weblint(site, "--site-report", str(target))
    assert code == 1
    assert out == (GOLDEN / "lint.txt").read_text()
    html = target.read_text().replace(str(site), "SITE")
    assert html == (GOLDEN / "site_report.html").read_text()


def test_cold_and_warm_cache_match_golden(site, tmp_path):
    cache = tmp_path / "cache"
    for _ in range(2):
        code, out = _weblint(
            site, "--jobs", "2", "--cache-dir", str(cache),
            "--site-report", "-",
        )
        assert code == 1
        assert out == (GOLDEN / "site_report.txt").read_text()
