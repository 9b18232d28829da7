"""Resumable corpus scanner producing one JSON record per graph6 line."""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

from .coverings import DEFAULT_CAP, DEFAULT_ODD_CAP, analyze_graph, check_cap
from .errors import GraphError, TooManyMatchings
from .generators import is_petersen
from .graph6 import iter_graph6_file, parse_graph6, to_graph6
from .matchings import check_max_matchings

DEFAULT_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ScanRecord:
    """One scanned graph: canonical graph6 id, metrics, status, timing."""

    graph_id: str
    metrics: dict
    status: str  # ok | timeout | infeasible | error
    elapsed_ms: int
    error: str | None = None

    def to_json(self) -> str:
        payload = {
            "graph_id": self.graph_id,
            "status": self.status,
            "elapsed_ms": self.elapsed_ms,
            "metrics": self.metrics,
        }
        if self.error is not None:
            payload["error"] = self.error
        return json.dumps(payload)

    @classmethod
    def from_json(cls, line: str) -> "ScanRecord":
        raw = json.loads(line)
        return cls(
            raw["graph_id"],
            raw.get("metrics", {}),
            raw["status"],
            raw.get("elapsed_ms", 0),
            raw.get("error"),
        )


@dataclass
class ScanSummary:
    processed: int = 0
    skipped: int = 0
    errors: int = 0
    tau_histogram: dict = field(default_factory=dict)
    problem_candidates: list = field(default_factory=list)
    known_petersen: list = field(default_factory=list)
    berge_failures: list = field(default_factory=list)
    fulkerson_failures: list = field(default_factory=list)
    tau5_odd5: list = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"scanned {self.processed} graphs "
            f"({self.skipped} already done, {self.errors} errors)"
        ]
        for tau in sorted(self.tau_histogram, key=str):
            lines.append(f"  tau={tau}: {self.tau_histogram[tau]}")
        if self.known_petersen:
            lines.append(
                f"  Petersen (the known tau=5 exception): "
                f"{len(self.known_petersen)}"
            )
        for label, items in (
            ("cyclically 4-edge-connected non-Petersen with tau >= 5", self.problem_candidates),
            ("graphs with no 5-covering", self.berge_failures),
            ("graphs with no Fulkerson covering", self.fulkerson_failures),
            ("graphs with tau = tau_odd = 5", self.tau5_odd5),
        ):
            if items:
                lines.append(f"  FLAG {label}:")
                lines.extend(f"    {gid}" for gid in items)
        return "\n".join(lines)


def _scan_one(payload: tuple[str, int, int, float | None, int | None]) -> ScanRecord:
    # line is the graph's canonical id, or a line that failed to parse
    line, cap, odd_cap, timeout_s, max_matchings = payload
    start = time.monotonic()
    try:
        g = parse_graph6(line)
    except GraphError as exc:
        ms = int((time.monotonic() - start) * 1000)
        return ScanRecord(line, {}, "error", ms, str(exc))
    deadline = start + timeout_s if timeout_s else None
    try:
        metrics, status = analyze_graph(
            g, cap=cap, odd_cap=odd_cap,
            max_matchings=max_matchings, deadline=deadline,
        )
        error = None
    except TooManyMatchings as exc:
        metrics, status, error = {}, "error", str(exc)
    ms = int((time.monotonic() - start) * 1000)
    return ScanRecord(line, metrics, status, ms, error)


def _tau_at_least_5(record: ScanRecord, cap: int) -> bool:
    tau = record.metrics.get("tau")
    if tau is not None:
        return tau >= 5
    # tau above cap: with the default caps this still certifies tau >= 5
    return record.status == "ok" and cap >= 4


def run_scan(
    input_path: str | Path,
    output_path: str | Path,
    cap: int = DEFAULT_CAP,
    odd_cap: int = DEFAULT_ODD_CAP,
    timeout_s: float | None = DEFAULT_TIMEOUT_S,
    jobs: int = 1,
    max_matchings: int | None = None,
) -> ScanSummary:
    """Analyze every graph6 line, appending JSONL records; resumable.

    A line's id is its canonical graph6 line, computed once, here, before
    any worker starts: the pair (i, j), i < j, is bit j(j-1)/2 + i of its bit
    string, so parsing and encoding are linear in the line length.  The
    workers get the ids, and an unparsable line goes to them unchanged and
    fails there.  Lines whose id already appears in the output are skipped;
    an unterminated last output line is dropped and its graph analyzed
    again.  Per-graph failures become error records and never
    abort the scan.  Records come out in input order.  With jobs = 1 each
    record is written and flushed as soon as it is done.  With jobs > 1 up
    to ``jobs`` worker processes run, never more than graphs, and the
    graphs go to them in batches of ceil(graphs / (4 * workers)), at most
    32; each batch is written and flushed once it and every batch before it
    are done, so an interrupted run loses only its unwritten batches, which
    a resume analyzes again.
    A ``timeout_s`` of 0, None or inf means no time limit.  Bad parameters
    (NaN among them) raise ValueError before the output is opened.
    """
    check_cap(cap)
    check_max_matchings(max_matchings)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if timeout_s is not None and not timeout_s >= 0:
        raise ValueError(f"timeout_s must be nonnegative, got {timeout_s}")
    output_path = Path(output_path)
    done: set[str] = set()
    if output_path.exists():
        with open(output_path, "r+b") as fh:
            for number, line in enumerate(fh, 1):
                if not line.endswith(b"\n"):
                    # a killed writer left this last record unfinished: cut
                    # it off, so that graph is analysed again
                    fh.truncate(fh.tell() - len(line))
                elif line.strip():
                    try:
                        done.add(ScanRecord.from_json(line).graph_id)
                    except (ValueError, KeyError, TypeError) as exc:
                        raise ValueError(
                            f"{output_path}, line {number}: "
                            f"not a scan record ({exc})"
                        ) from None
    summary = ScanSummary()
    pending: list[str] = []
    for line in iter_graph6_file(input_path):
        try:
            gid = to_graph6(parse_graph6(line))
        except GraphError:
            gid = line
        if gid in done:
            summary.skipped += 1
            continue
        done.add(gid)
        pending.append(gid)

    payloads = [(line, cap, odd_cap, timeout_s, max_matchings) for line in pending]
    # a pool forks all its workers at the first submit: no more than graphs
    workers = min(jobs, len(payloads))
    with open(output_path, "a", encoding="ascii") as fh, ExitStack() as stack:
        records = map(_scan_one, payloads)
        if workers > 1:
            pool = ProcessPoolExecutor(max_workers=workers)
            stack.callback(pool.shutdown, cancel_futures=True)
            # batches of one graph spend as long in hand-offs as in analysis;
            # 4 batches per worker (multiprocessing.Pool's default) balance
            # the load, and the cap of 32 bounds what a batch holds back
            chunksize = min(32, math.ceil(len(payloads) / (4 * workers)))
            records = pool.map(_scan_one, payloads, chunksize=chunksize)
        for record in records:
            fh.write(record.to_json() + "\n")
            fh.flush()
            _tally(summary, record, cap)
    return summary


def _tally(summary: ScanSummary, record: ScanRecord, cap: int) -> None:
    summary.processed += 1
    if record.status == "error":
        summary.errors += 1
        return
    tau = record.metrics.get("tau")
    key = tau if tau is not None else f">{cap}" if record.status == "ok" else record.status
    summary.tau_histogram[key] = summary.tau_histogram.get(key, 0) + 1
    if _tau_at_least_5(record, cap) and record.metrics.get("cyclically4ec"):
        try:
            petersen_hit = is_petersen(parse_graph6(record.graph_id))
        except GraphError:
            petersen_hit = False
        if petersen_hit:
            summary.known_petersen.append(record.graph_id)
        else:
            summary.problem_candidates.append(record.graph_id)
    # a bridged graph has an edge in no perfect matching, so no covering at
    # all; the Berge and Fulkerson conjectures are about bridgeless graphs
    bridgeless = record.metrics.get("bridges") == 0
    if bridgeless and record.metrics.get("berge5") is False:
        summary.berge_failures.append(record.graph_id)
    if bridgeless and record.metrics.get("fulkerson") is False:
        summary.fulkerson_failures.append(record.graph_id)
    if record.metrics.get("tau") == 5 and record.metrics.get("tau_odd") == 5:
        summary.tau5_odd5.append(record.graph_id)
