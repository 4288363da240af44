"""The three workloads: ``batch-cold``, ``daemon-mixed``, ``crawl-warm``.

Each drives one real entry point as a separate process from this one
load-generating process, over inputs built from the seed before any
timed window opens.  Every entry-point process runs under
``launch.py``.  End-to-end numbers come from untraced runs; with
``trace`` set, untraced and traced repetitions (daemon lifetimes, for
the daemon) alternate and the traced ones give the per-layer numbers.
"""

from __future__ import annotations

import gc
import json
import random
import re
import shutil
import signal
import socket
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Optional

import attribution
from common import (
    Finished, Outcome, ROOT, child_env, entry_command, fresh_dir, main_report,
    percentile, quiet, run_to_exit, settle, steal_share, steal_ticks,
)
from inputs import (
    Doc, build_docs, check_doc, check_site_page, jsonl_rows, parse_jsonl,
    protocol_rows, work_record, write_site,
)
from repro.daemon.daemon import FANOUT_THRESHOLD

#: Setup is measured this many times per run; the median is reported.
SETUP_REPEATS = 5
JOBS = 2


@dataclass(frozen=True)
class Scale:
    #: Seeded and pathological pages are three to one, as in the E15/E20
    #: corpora (24 seeded pages and 8 others of 32).
    batch_seeded: int
    batch_pathological: int
    pool_seeded: int
    pool_pathological: int
    #: The daemon's request sequence is this many passes over its pool,
    #: whose size is a multiple of ``BLOCK``.
    request_passes: int
    site_pages: int
    min_repeats: int
    #: Tiny inputs are all fixed cost, so coverage is only checked at scale.
    check_coverage: bool


NORMAL = Scale(450, 150, 144, 48, 5, 400, 3, True)
TINY = Scale(15, 5, 9, 3, 2, 12, 1, False)


def end_to_end(
    outcome: Outcome, setup: list[float], docs_per_s: float,
    p50_ms: float, p95_ms: float, samples: int, rss_mb: list[float],
) -> None:
    outcome.metrics.update({
        "setup_s": (median(setup), "s"),
        "docs_per_s": (docs_per_s, "1/s"),
        "request_p50_ms": (p50_ms, "ms"),
        "request_p95_ms": (p95_ms, "ms"),
        "peak_rss_mb": (median(rss_mb), "MB"),
        "success_share": (
            1.0 - outcome.failed / max(1, outcome.attempted), "share"
        ),
    })
    outcome.work["latency_samples"] = samples


def layer_metrics(
    outcome: Outcome, values: dict[str, float], failures: list[str], scale: Scale
) -> None:
    for name, unit in attribution.PER_LAYER:
        outcome.metrics[name] = (values.get(name, 0.0), unit)
    for failure in failures if scale.check_coverage else ():
        outcome.problem(f"attribution: {failure}")


def overhead(plain: list[tuple[int, float]], traced: list[tuple[int, float]]) -> float:
    """Tracing overhead: 1 - traced docs/s over untraced docs/s."""
    plain_rate = sum(d for d, _ in plain) / sum(w for _, w in plain)
    traced_rate = sum(d for d, _ in traced) / sum(w for _, w in traced)
    return 1.0 - traced_rate / plain_rate


# -- repeated-process workloads (batch and crawl) ----------------------------


class Repeats:
    """Untraced (and, when tracing, interleaved traced) repetitions."""

    def __init__(self, work: Path, seconds: float, trace: bool, min_repeats: int) -> None:
        self.work = work
        self.seconds = seconds
        self.trace = trace
        self.min_repeats = min_repeats
        self.plain: list[Finished] = []
        self.traced: list[Finished] = []
        self.stats_dirs: list[Path] = []

    def loop(self, run_one) -> None:
        """Call ``run_one(out_dir, traced)`` until the measured time is spent.

        Only each process's own wall time counts; preparing and cleaning
        up a repetition's state happens outside it.
        """
        spent = 0.0
        index = 0
        while spent < self.seconds or len(self.plain) < self.min_repeats or (
            self.trace and len(self.traced) < self.min_repeats
        ):
            traced = self.trace and index % 2 == 1
            out_dir = fresh_dir(self.work / "runs" / str(index))
            finished = run_one(out_dir, traced)
            (self.traced if traced else self.plain).append(finished)
            if traced:
                self.stats_dirs.append(out_dir)
            spent += finished.wall_s
            index += 1

    def report(
        self, outcome: Outcome, setup: list[float], units: int, scale: Scale,
        jobs: int = JOBS,
    ) -> None:
        """End-to-end metrics from the untraced runs (``units`` documents
        each), per-layer metrics from the traced ones."""
        ok = [f for f in self.plain if f.ok]
        if not ok:
            return  # every run failed; the problems are already recorded
        plain = quiet(ok, by_steal)
        note_steal(outcome, [f.steal_share for f in ok], len(plain))
        # A caller's wait here is one whole run, so the median latency is
        # 1000 * units / docs_per_s (exactly, for an odd run count).
        walls_ms = [f.wall_s * 1000.0 for f in plain]
        end_to_end(
            outcome, setup, median([units / f.wall_s for f in plain]),
            percentile(walls_ms, 50), percentile(walls_ms, 95), len(walls_ms),
            [f.peak_rss_mb for f in ok],
        )
        if self.trace:
            values, failures = attribution.per_layer(
                attribution.load(self.stats_dirs),
                docs=units * len(self.traced),
                jobs=jobs,
                report_bytes=sum(len(f.stdout) for f in self.traced),
                overhead_share=overhead(
                    [(units, f.wall_s) for f in plain],
                    [(units, f.wall_s) for f in quiet(self.traced, by_steal)],
                ),
            )
            layer_metrics(outcome, values, failures, scale)


def _setup_runs(entry: str, args_for, work: Path, log: Path) -> list[float]:
    """Wall times of ``entry`` on a one-document input (the quiet ones);
    ``args_for(state)`` gives its arguments with a fresh state directory."""
    runs = []
    for index in range(SETUP_REPEATS):
        out_dir = fresh_dir(work / "setup" / str(index))
        finished = run_to_exit(entry, args_for(out_dir / "state"), out_dir, log)
        if not finished.ok:
            raise RuntimeError(f"setup run of {entry} exited {finished.code}; see {log}")
        runs.append(finished)
        shutil.rmtree(out_dir)
    return [finished.wall_s for finished in quiet(runs, by_steal)]


def by_steal(sample) -> float:
    return sample.steal_share


def note_steal(outcome: Outcome, shares: list[float], kept: int) -> None:
    """Record how much other guests took, and how many samples counted."""
    outcome.work["steal_share"] = round(median(shares), 4)
    outcome.work["quiet_samples"] = f"{kept}/{len(shares)}"


def batch_cold(work: Path, seed: int, seconds: float, trace: bool, scale: Scale) -> Outcome:
    """Cold ``weblint --jobs 2 -f jsonl --cache-dir <empty>`` batches."""
    outcome = Outcome()
    log = work / "stderr.log"
    docs = build_docs(work / "docs", seed, scale.batch_seeded, scale.batch_pathological)
    outcome.work.update(work_record(
        [doc.text for doc in docs],
        sum(len(doc.expected or ()) for doc in docs),
        sum(doc.pathological for doc in docs),
    ))

    def args(cache: Path, paths: list[str]) -> list[str]:
        return ["--no-config", "--jobs", str(JOBS), "-f", "jsonl", "--cache-dir", str(cache), *paths]

    one = str(docs[0].path)
    setup = _setup_runs("weblint", lambda state: args(state, [one]), work, log)
    paths = [str(doc.path) for doc in docs]

    def run_one(out_dir: Path, traced: bool) -> Finished:
        cache = fresh_dir(work / "cache")
        finished = run_to_exit("weblint", args(cache, paths), out_dir, log, traced)
        shutil.rmtree(cache)
        return finished

    repeats = Repeats(work, seconds, trace, scale.min_repeats)
    repeats.loop(run_one)

    for finished in repeats.plain + repeats.traced:
        outcome.attempted += len(docs)
        if not finished.ok:
            outcome.failed += len(docs)
            outcome.problem(f"weblint exited {finished.code}")
            continue
        records = parse_jsonl(finished.stdout)
        for doc in docs:
            record = records.get(str(doc.path))
            if record is None or "error" in record:
                outcome.failed += 1
                continue
            problem = check_doc(doc, jsonl_rows(record))
            if problem:
                outcome.problem(problem)
    repeats.report(outcome, setup, len(docs), scale)
    return outcome


def crawl_warm(work: Path, seed: int, seconds: float, trace: bool, scale: Scale) -> Outcome:
    """Warm ``poacher --frontier-jobs 2 --format jsonl --state-dir`` crawls."""
    outcome = Outcome()
    log = work / "stderr.log"
    site = work / "site"
    names = write_site(site, seed, scale.site_pages)
    texts = [(site / name).read_text(encoding="utf-8") for name in names]
    outcome.work.update(work_record(texts, 0, 0))
    urls = {f"http://localhost/{name}" for name in names}

    def args(site_dir: Path, state: Path) -> list[str]:
        return [str(site_dir), "--frontier-jobs", str(JOBS), "--format", "jsonl",
                "--state-dir", str(state)]

    one_site = work / "one"
    write_site(one_site, seed, 1)
    setup = _setup_runs("poacher", lambda state: args(one_site, state), work, log)

    # The untimed cold crawl that warms the state dir is also the
    # reference every warm crawl's report must match.
    warm = work / "warm"
    cold = run_to_exit("poacher", args(site, warm), fresh_dir(work / "cold"), log)
    reference = parse_jsonl(cold.stdout)
    if set(reference) != urls:
        outcome.problem(f"cold crawl reported {len(reference)} of {len(urls)} pages")
    for url, record in reference.items():
        if "error" in record:
            outcome.problem(f"cold crawl: {url}: {record['error']}")
            continue
        problem = check_site_page(url, jsonl_rows(record))
        if problem:
            outcome.problem(problem)

    def run_one(out_dir: Path, traced: bool) -> Finished:
        state = work / "state"
        if state.exists():
            shutil.rmtree(state)
        shutil.copytree(warm, state)
        return run_to_exit("poacher", args(site, state), out_dir, log, traced)

    repeats = Repeats(work, seconds, trace, scale.min_repeats)
    repeats.loop(run_one)

    for finished in repeats.plain + repeats.traced:
        outcome.attempted += len(urls)
        if not finished.ok:
            outcome.failed += len(urls)
            outcome.problem(f"poacher exited {finished.code}")
            continue
        records = parse_jsonl(finished.stdout)
        for url in urls:
            record = records.get(url)
            if record is None or "error" in record:
                outcome.failed += 1
            elif jsonl_rows(record) != jsonl_rows(reference.get(url, {})):
                outcome.problem(f"{url}: warm report differs from the cold crawl")
    repeats.report(outcome, setup, len(urls), scale)
    return outcome


# -- the daemon ---------------------------------------------------------------

_LISTENING = re.compile(rb"listening on http://([\d.]+):(\d+)")


class Daemon:
    """One ``weblint-daemon --jobs 2`` process and its address."""

    def __init__(self, log: Path, out_dir: Path, trace: bool = False) -> None:
        args = ["--jobs", str(JOBS), "--port", "0", "--queue-limit", str(4 * CLIENTS)]
        self.out_dir = out_dir
        self._log = open(log, "ab")
        settle()
        stolen = steal_ticks()
        started = time.perf_counter()
        self.process = subprocess.Popen(
            entry_command("weblint-daemon", args, out_dir, trace),
            stdout=subprocess.PIPE, stderr=self._log, cwd=ROOT, env=child_env(),
        )
        line = self.process.stdout.readline()
        match = _LISTENING.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.address = (match.group(1).decode(), int(match.group(2)))
        while exchange(self.address, b"GET /healthz HTTP/1.0\r\n\r\n")[0] != 200:
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - started
        self.steal_share = steal_share(steal_ticks() - stolen, self.setup_s)

    def stop(self) -> Optional[float]:
        """SIGTERM (a graceful drain), then wait; returns peak RSS in MB,
        or None when the daemon did not report."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        watchdog = threading.Timer(30.0, self.process.kill)
        watchdog.start()
        try:
            # Drain rather than close: the daemon reports its stop on stdout.
            self.process.communicate()
        finally:
            watchdog.cancel()
            self._log.close()
        report = main_report(self.out_dir)
        return report["peak_rss_mb"] if report is not None else None


#: Closed loop: this many clients, each waiting for its reply.
CLIENTS = 2
#: The request shapes of CI's daemon-qps job: a request is the next
#: ``BATCH`` documents from each start in a block of ``BLOCK``, cut
#: short at the block's end.  So nine requests in twelve carry four
#: documents and reach the warm pool (``FANOUT_THRESHOLD`` is 4); the
#: other three carry three, two and one and run inline.
BLOCK = 12
BATCH = 4


def exchange(address: tuple[str, int], request: bytes) -> tuple[int, bytes]:
    with socket.create_connection(address, timeout=30) as connection:
        connection.sendall(request)
        chunks = []
        while True:
            chunk = connection.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    data = b"".join(chunks)
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1]) if head.startswith(b"HTTP/") else 0
    return status, body


def _templates(docs: list[Doc], seed: int, passes: int) -> list[tuple[list[int], bytes]]:
    """The seeded request sequence: document indexes and encoded request.

    Each pass shuffles the whole pool and cuts it into blocks, so every
    seed sends every document equally often.
    """
    rng = random.Random(seed)
    templates = []
    for _ in range(passes):
        order = rng.sample(range(len(docs)), len(docs))
        for offset in range(0, len(order), BLOCK):
            block = order[offset : offset + BLOCK]
            for start in range(BLOCK):
                templates.append(_request(docs, block[start:][:BATCH]))
    return templates


def _request(docs: list[Doc], picks: list[int]) -> tuple[list[int], bytes]:
    body = json.dumps({
        "documents": [{"name": docs[i].path.name, "text": docs[i].text} for i in picks]
    }).encode("utf-8")
    head = (
        "POST /lint HTTP/1.0\r\nHost: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1")
    return picks, head + body


#: The load window is cut into slices this long, each with its own
#: steal share, so quiet selection can drop the disturbed seconds.
SLICE_S = 0.5


@dataclass
class Slice:
    """One slice of a daemon lifetime's load window."""

    seconds: float
    steal_share: float
    delivered: int = 0
    latencies: list[float] = field(default_factory=list)


@dataclass
class Load:
    window_s: float
    #: (template index, latency ms, status, body, slice index)
    samples: list[tuple[int, float, int, bytes, int]]
    slices: list[Slice]
    steal_share: float


def drive(address: tuple[str, int], templates, seconds: float, first: int) -> Load:
    """Closed loop with ``CLIENTS`` in flight until ``seconds`` pass.

    The calling thread reads the steal counter at every slice boundary
    while the clients run; each reply belongs to the slice it came back in.
    """
    lock = threading.Lock()
    cursor = [first]
    samples: list[tuple[int, float, int, bytes, int]] = []
    # Equal replies share one bytes object, so memory stays bounded by
    # the number of templates rather than the number of requests.
    replies: dict[tuple[int, bytes], bytes] = {}

    def client() -> None:
        mine = []
        while time.perf_counter() < deadline:
            with lock:
                index = cursor[0] % len(templates)
                cursor[0] += 1
            sent = time.perf_counter()
            try:
                status, body = exchange(address, templates[index][1])
            except OSError:
                status, body = 0, b""
            done = time.perf_counter()
            body = replies.setdefault((index, body), body)
            slot = int((done - started) / SLICE_S)
            mine.append((index, (done - sent) * 1000.0, status, body, slot))
        with lock:
            samples.extend(mine)

    # The inputs held here are never garbage; freezing them keeps the
    # collector's pauses out of the measured latencies.
    gc.collect()
    gc.freeze()
    try:
        started = time.perf_counter()
        deadline = started + seconds
        marks = [(started, steal_ticks())]
        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        while marks[-1][0] < deadline:
            next_mark = min(started + len(marks) * SLICE_S, deadline)
            time.sleep(max(0.0, next_mark - time.perf_counter()))
            marks.append((time.perf_counter(), steal_ticks()))
        for thread in threads:
            thread.join()
        # The last slice closes with the last reply.
        marks[-1] = (time.perf_counter(), steal_ticks())
    finally:
        gc.unfreeze()
    slices = [
        Slice(end - begin, steal_share(ticks - before, end - begin))
        for (begin, before), (end, ticks) in zip(marks, marks[1:])
    ]
    last = len(slices) - 1
    samples = [sample[:4] + (min(sample[4], last),) for sample in samples]
    window = marks[-1][0] - started
    return Load(window, samples, slices, steal_share(marks[-1][1] - marks[0][1], window))


def daemon_mixed(work: Path, seed: int, seconds: float, trace: bool, scale: Scale) -> Outcome:
    """``POST /lint`` against ``weblint-daemon --jobs 2`` over loopback."""
    outcome = Outcome()
    log = work / "stderr.log"
    docs = build_docs(work / "docs", seed, scale.pool_seeded, scale.pool_pathological)
    templates = _templates(docs, seed, scale.request_passes)
    sent_docs = [index for picks, _ in templates for index in picks]
    outcome.work.update(work_record(
        [docs[i].text for i in sent_docs],
        sum(len(docs[i].expected or ()) for i in sent_docs),
        sum(docs[i].pathological for i in sent_docs),
    ))
    outcome.work["requests"] = len(templates)
    outcome.work["inline_request_share"] = round(sum(
        len(picks) < FANOUT_THRESHOLD for picks, _ in templates
    ) / len(templates), 4)
    outcome.work["note"] = "work counts one pass over the request templates"

    # The batch entry point's answer for every pool document: the
    # daemon must return identical diagnostics for the same bytes.
    batch = run_to_exit("weblint", [
        "--no-config", "--jobs", str(JOBS), "-f", "jsonl",
        "--cache-dir", str(work / "cache"), *[str(d.path) for d in docs],
    ], fresh_dir(work / "reference"), log)
    reference = parse_jsonl(batch.stdout)
    expected_rows = {}
    for doc in docs:
        rows = jsonl_rows(reference.get(str(doc.path), {}))
        expected_rows[doc.path.name] = rows
        problem = check_doc(doc, rows)
        if problem:
            outcome.problem(f"batch reference: {problem}")

    # The window is split over several daemon lifetimes, each launch
    # also giving one setup_s sample, so no single process's CPU
    # placement decides a run.  Tracing alternates lifetimes.
    segments = 2 * SETUP_REPEATS if trace else SETUP_REPEATS
    daemons: list[Daemon] = []
    plain: list[Lifetime] = []
    traced: list[Lifetime] = []
    stats_dirs: list[Path] = []
    checked: dict[tuple[int, bytes], bool] = {}
    for segment in range(segments):
        tracing = trace and segment % 2 == 1
        out_dir = fresh_dir(work / "daemon" / str(segment))
        daemon = Daemon(log, out_dir, tracing)
        try:
            load = drive(
                daemon.address, templates, seconds / segments,
                first=segment * len(templates) // segments,
            )
        finally:
            rss = daemon.stop()
        delivered = 0
        for index, latency, status, body, slot in load.samples:
            outcome.attempted += 1
            picks = templates[index][0]
            key = (index, body)
            load.slices[slot].latencies.append(latency)
            if status == 200 and key not in checked:
                checked[key] = _check_response(body, picks, docs, expected_rows, outcome)
            if status != 200 or not checked[key]:
                outcome.failed += 1
                continue
            delivered += len(picks)
            load.slices[slot].delivered += len(picks)
        if rss is None:
            outcome.problem(f"daemon lifetime {segment} ended without reporting")
        if tracing:
            traced.append(Lifetime(load, rss, delivered))
            stats_dirs.append(out_dir)
        else:
            daemons.append(daemon)
            plain.append(Lifetime(load, rss, delivered))
    if outcome.problems:
        return outcome  # no numbers from a run that failed its checks

    # Quiet selection is per slice, over every untraced lifetime: a
    # lifetime lasts seconds, and the latency tail swells with the steal
    # inside it.  The rate and the percentiles come from the kept slices.
    pieces = [piece for life in plain for piece in life.load.slices]
    kept = quiet(pieces, by_steal)
    note_steal(outcome, [piece.steal_share for piece in pieces], len(kept))
    pooled = [latency for piece in kept for latency in piece.latencies]
    end_to_end(
        outcome, [daemon.setup_s for daemon in quiet(daemons, by_steal)],
        sum(piece.delivered for piece in kept) / sum(piece.seconds for piece in kept),
        percentile(pooled, 50), percentile(pooled, 95), len(pooled),
        [life.rss_mb for life in plain],
    )
    if trace:
        values, failures = attribution.per_layer(
            attribution.load(stats_dirs),
            docs=sum(life.delivered for life in traced),
            requests=sum(len(life.load.samples) for life in traced),
            jobs=JOBS,
            client_latency_ms=sum(sum(latencies(life.load)) for life in traced),
            overhead_share=overhead(
                [(life.delivered, life.load.window_s) for life in quiet(plain, by_steal)],
                [(life.delivered, life.load.window_s) for life in quiet(traced, by_steal)],
            ),
        )
        layer_metrics(outcome, values, failures, scale)
    return outcome


@dataclass
class Lifetime:
    """One daemon's share of the load window."""

    load: Load
    rss_mb: Optional[float]
    delivered: int

    @property
    def steal_share(self) -> float:
        return self.load.steal_share


def latencies(load: Load) -> list[float]:
    return [sample[1] for sample in load.samples]


def _check_response(body: bytes, picks, docs, expected_rows, outcome: Outcome) -> bool:
    """True when the response answers every document; oracle problems
    (wrong diagnostics) are recorded on ``outcome``."""
    try:
        results = json.loads(body)["results"]
    except (ValueError, KeyError, TypeError):
        return False
    if len(results) != len(picks):
        return False
    for index, result in zip(picks, results):
        if result.get("error") is not None:
            return False
        doc = docs[index]
        rows = protocol_rows(result)
        if rows != expected_rows[doc.path.name]:
            outcome.problem(f"{doc.path.name}: daemon and batch diagnostics differ")
        problem = check_doc(doc, rows)
        if problem:
            outcome.problem(problem)
    return True


WORKLOADS = {
    "batch-cold": batch_cold,
    "daemon-mixed": daemon_mixed,
    "crawl-warm": crawl_warm,
}
