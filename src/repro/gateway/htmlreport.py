"""HTML page rendering helpers for the gateway.

Includes the WebTechs-style *page weight* estimator the paper mentions in
section 3.6: "It can also generate a weight for your web page, including
estimated download times for different modem speeds."
"""

from __future__ import annotations

import html as _html
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.site.links import Link, extract_links

#: modem speeds of the era (bits per second) -> label.
MODEM_SPEEDS = (
    (14_400, "14.4k modem"),
    (28_800, "28.8k modem"),
    (56_000, "56k modem"),
    (128_000, "ISDN 128k"),
)

#: Rough default weight for an embedded image whose size we cannot know.
ASSUMED_IMAGE_BYTES = 8 * 1024


@dataclass
class PageWeight:
    """Estimated transfer weight of one page."""

    html_bytes: int
    resource_count: int
    estimated_total_bytes: int
    download_seconds: dict[str, float]

    def rows(self) -> list[tuple[str, str]]:
        result = [
            ("HTML size", f"{self.html_bytes} bytes"),
            ("Embedded resources", str(self.resource_count)),
            ("Estimated total", f"{self.estimated_total_bytes} bytes"),
        ]
        for label, seconds in self.download_seconds.items():
            result.append((f"Download at {label}", f"{seconds:.1f}s"))
        return result


def estimate_page_weight(
    source: str,
    links: Optional[Sequence[Link]] = None,
    resource_bytes: int = ASSUMED_IMAGE_BYTES,
) -> PageWeight:
    """Estimate page weight and modem download times.

    ``links`` are the page's links when the caller already has them
    (the gateway's lint pass collects them); otherwise they are
    extracted from ``source``.
    """
    html_bytes = len(source.encode("utf-8"))
    if links is None:
        links = extract_links(source)
    resources = [link for link in links if link.kind == "resource"]
    total = html_bytes + len(resources) * resource_bytes
    download = {
        label: (total * 8) / speed for speed, label in MODEM_SPEEDS
    }
    return PageWeight(
        html_bytes=html_bytes,
        resource_count=len(resources),
        estimated_total_bytes=total,
        download_seconds=download,
    )


def escape(text: str) -> str:
    return _html.escape(text, quote=True)


def render_page(title: str, body_fragments: list[str]) -> str:
    """A complete, weblint-clean HTML page around the given fragments."""
    body = "\n".join(body_fragments)
    return f"""<!DOCTYPE HTML PUBLIC "-//W3C//DTD HTML 4.0 Transitional//EN">
<html>
<head>
<title>{escape(title)}</title>
<meta name="description" content="weblint gateway report">
</head>
<body>
<h1>{escape(title)}</h1>
{body}
<hr>
<p>Generated by the weblint gateway (repro).</p>
</body>
</html>
"""


def render_table(rows: list[tuple[str, str]], summary: str) -> str:
    cells = "\n".join(
        f"  <tr><th align=\"left\">{escape(key)}</th>"
        f"<td>{escape(value)}</td></tr>"
        for key, value in rows
    )
    return f'<table border="1" summary="{escape(summary)}">\n{cells}\n</table>'


def render_stats_table(snapshot: dict[str, object]) -> str:
    """A metrics-registry snapshot as a weblint-clean HTML table.

    Counters render as plain numbers, gauges as ``value (max N)``, and
    histograms as ``count / mean / p50 / p95 / p99 / max`` -- enough for
    the gateway's "checker statistics" section without a second metrics
    format.  Every name and value passes through :func:`render_table`'s
    HTML escaping, so snapshot keys are inert markup even if a metric
    name ever carries attacker-influenced text (a URL, a file name).
    """
    rows: list[tuple[str, str]] = []
    for name, value in snapshot.items():
        if isinstance(value, dict):
            if "buckets" in value:  # histogram snapshot
                rendered = (
                    f"count {value['count']}, mean {value['mean']:g} ms, "
                    f"p50 {value.get('p50', 0):g} ms, "
                    f"p95 {value.get('p95', 0):g} ms, "
                    f"p99 {value.get('p99', 0):g} ms, "
                    f"max {value['max']:g} ms"
                )
            else:  # gauge snapshot
                rendered = f"{value['value']:g} (max {value['max']:g})"
        else:
            rendered = str(value)
        rows.append((name, rendered))
    if not rows:
        return "<p>No checker statistics were recorded.</p>"
    return render_table(rows, summary="checker statistics")
