"""``weblint -R`` and poacher agree on every link finding.

Both tools decide ``bad-link`` and ``bad-fragment`` through one
function, ``repro.site.links.judge_link``; they differ only in how they
describe a link's target.  On ``tests/edge_site.py``'s site the only
findings that differ are the resolver differences
``docs/architecture.md`` lists (``POACHER_ONLY_FINDINGS``); on a
generated site the two agree exactly.  CI's ``sharded-audit`` job runs
the same comparison on the command line.
"""

from __future__ import annotations

import contextlib
import io

from repro.cli import main as weblint_main
from repro.robot.cli import main as poacher_main
from repro.workload import PageGenerator
from tests.edge_site import POACHER_ONLY_FINDINGS, link_findings, write_edge_site


def _run(main, args: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(args) in (0, 1)
    return out.getvalue()


def _both(site) -> tuple[set, set]:
    weblint = link_findings(
        _run(weblint_main, ["--no-config", "-R", "-f", "json", str(site)])
    )
    poacher = link_findings(
        _run(poacher_main, [str(site), "--format", "jsonl"])
    )
    return weblint, poacher


def test_edge_site_differs_only_by_resolver(tmp_path):
    weblint, poacher = _both(write_edge_site(tmp_path))
    assert weblint - poacher == set()
    assert poacher - weblint == POACHER_ONLY_FINDINGS
    # Both judge fragments into a directory link and a non-HTML target
    # the same way: the first against the index page, the second not.
    assert ("index.html", 12, "bad-fragment", "sub/#nothing") in weblint
    assert not any(finding[3] == "notes.txt#x" for finding in weblint)


def test_generated_site_agrees_exactly(tmp_path):
    for name, body in PageGenerator(seed=11).site(40).items():
        (tmp_path / name).write_text(body)
    weblint, poacher = _both(tmp_path)
    assert weblint and weblint == poacher
