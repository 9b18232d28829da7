#!/usr/bin/env python3
"""Stdlib-only benchmark for pmcover.

Run from the repository root:

    python3 perfbench/run.py --workload scan-corpus --seed 0 --seconds 10 --trace 0

It builds the workload's inputs from ``--seed``, drives pmcover through its
public entry points (``run_scan``, ``analyze_graph``, ``verify.run_all``)
for ``--seconds`` seconds, checks every output, and prints as its last line
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
replays each graph layer by layer and reports the per-layer metrics.  The
line before the result holds context that is not gated.  Every timing of
an untraced run is in reference seconds: speed_probe.py samples how fast
the CPUs run while the run measures, and each interval is scaled to the
speed its reference loop was fixed at.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
if not (SRC / "pmcover" / "__init__.py").is_file():
    sys.exit(f"perfbench: no pmcover sources under {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

from pmcover import verify  # noqa: E402
from pmcover.compositions import k4_composition, tau5odd_example  # noqa: E402
from pmcover.coverings import (  # noqa: E402
    REPORT_FIELDS,
    analyze_graph,
    covering_number,
    find_fr_triples,
    fulkerson_covering,
    odd_covering_number,
)
from pmcover.edge_coloring import three_edge_coloring  # noqa: E402
from pmcover.generators import (  # noqa: E402
    blanusa,
    flower_snark,
    generalized_blanusa,
    goldberg_graph,
    k33,
    petersen,
    prism,
    random_bridgeless_cubic,
    theta,
)
from pmcover.graph6 import parse_graph6, to_graph6  # noqa: E402
from pmcover.graphs import (  # noqa: E402
    CubicGraph,
    cyclic_connectivity_at_least,
    find_bridges,
    is_perfect_matching,
)
from pmcover.matchings import enumerate_perfect_matchings, pm_pair_stats  # noqa: E402
from pmcover.scan import ScanRecord, run_scan  # noqa: E402
from speed_probe import SpeedProbe, probe_loop  # noqa: E402

# The CLI defaults of `pmcover scan` and `pmcover analyze`.
CAP, ODD_CAP, TIMEOUT_S = 6, 7, 60.0
DEFAULT_SEED = 0
SETUP_REPS = 9
# Untraced runs average each operation over at least this many passes.
MIN_PASSES = 2
CALIBRATION_REPS = 25
EXPECTED_PATH = HERE / "expected.json"
WORK_DIR = HERE / "_work"

SCAN_CORPUS_RANDOM = 40
SCAN_SMALL_GRAPHS = 300
SCAN_SMALL_SIZES = (10, 12, 14, 16)
SCAN_JOBS = {"scan-corpus": 1, "scan-small-jobs2": 2}
WORKLOADS = ("scan-corpus", "analyze-tau5", "scan-small-jobs2", "verify-paper")

# The paper's tau = 5 K4 compositions.  K4(P,P,flower5,theta) is left out:
# its tau_odd search does not finish within the run time limit.
TAU5_BLOCKS = {
    "K4(P,P,K33,K33)": (petersen, petersen, k33, k33),
    "K4(P,P,prism4,K33)": (petersen, petersen, lambda: prism(4), k33),
    "K4(P,P,P,theta)": (petersen, petersen, petersen, theta),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p75": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

ANALYZE_PHASES = (
    "graphs.bridges", "graphs.cyc4ec", "matchings.pm_enum",
    "matchings.pair_stats", "coverings.tau", "coverings.tau_odd",
    "coverings.fr_triple", "coverings.fulkerson", "coverings.analyze",
)
CRITERIA = sorted(name for name in dir(verify) if name.startswith("criterion_"))
PER_LAYER_UNITS = {
    **{f"{phase}_ms": "ms" for phase in ANALYZE_PHASES},
    "matchings.pm_count": "count",
    "matchings.pm_count_max": "count",
    "edge_coloring.three_edge_coloring_ms": "ms",
    "edge_coloring.colourable_share": "ratio",
    "graph6.parse_ms": "ms",
    "graph6.encode_ms": "ms",
    "scan.self_ms": "ms",
    "scan.records": "count",
    "scan.bytes_written": "bytes",
    **{f"verify.{name}_ms": "ms" for name in CRITERIA},
}


# ---------------------------------------------------------------- inputs


@dataclass
class Inputs:
    """A workload's inputs: graphs by label, their stable names, the scan file.

    A scan graph's label is its graph6 line, which is also its scan record
    id; its name says which graph of the workload's population it is.
    """

    graphs: dict = field(default_factory=dict)  # label -> CubicGraph
    names: dict = field(default_factory=dict)  # label -> name in expected.json
    g6_path: Path | None = None


def scan_corpus_population(tiny: bool) -> list:
    """The ROADMAP corpus: random:26:0..39 and seven named snarks."""
    count = 2 if tiny else SCAN_CORPUS_RANDOM
    population = [(f"random:26:{i}", random_bridgeless_cubic(26, i)) for i in range(count)]
    named = {"petersen": petersen, "blanusa1": lambda: blanusa(1)}
    if not tiny:
        named.update({
            "blanusa2": lambda: blanusa(2),
            "flower:5": lambda: flower_snark(5),
            "flower:7": lambda: flower_snark(7),
            "goldberg:5": lambda: goldberg_graph(5),
            "gblanusa:1:3": lambda: generalized_blanusa(1, 3),
        })
    return population + [(name, make()) for name, make in named.items()]


def scan_small_population(tiny: bool) -> list:
    """A few hundred random bridgeless cubic graphs, n cycling over 10..16."""
    count = 8 if tiny else SCAN_SMALL_GRAPHS
    sizes = [SCAN_SMALL_SIZES[i % 4] for i in range(count)]
    return [(f"random:{n}:{i}", random_bridgeless_cubic(n, i)) for i, n in enumerate(sizes)]


def tau5_graphs(tiny: bool) -> dict:
    """The paper's hard instances, built with the pmcover composition operators.

    They are fixed graphs: the seed does not change them.
    """
    graphs = {"tau5odd": tau5odd_example()}
    if not tiny:
        for label, blocks in TAU5_BLOCKS.items():
            graphs[label] = k4_composition([(make(), 0) for make in blocks])
    return graphs


def relabel(g: CubicGraph, rng: random.Random) -> CubicGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return CubicGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def write_scan_input(population: list, path: Path) -> Inputs:
    """Encode the named graphs as graph6 lines and write the scan input."""
    inputs = Inputs(g6_path=path)
    for name, g in population:
        label = to_graph6(g)
        inputs.graphs[label] = g
        inputs.names[label] = name
    path.write_text("".join(line + "\n" for line in inputs.graphs), encoding="ascii")
    return inputs


def build_inputs(workload: str, seed: int, tiny: bool, work: Path) -> Inputs:
    rng = random.Random(seed)
    if workload == "scan-corpus":
        # The ROADMAP corpus is fixed; the seed orders its lines.
        population = scan_corpus_population(tiny)
        rng.shuffle(population)
        return write_scan_input(population, work / "input.g6")
    if workload == "scan-small-jobs2":
        # The seed relabels every graph: other graph6 lines and edge orders,
        # the same isomorphism classes, so the mix of costly and cheap
        # graphs stays put and expected.json holds on every seed.
        population = [(name, relabel(g, rng)) for name, g in scan_small_population(tiny)]
        return write_scan_input(population, work / "input.g6")
    if workload == "analyze-tau5":
        graphs = tau5_graphs(tiny)
        return Inputs(graphs, {label: label for label in graphs})
    return Inputs()  # verify-paper builds its own graphs


def import_span() -> tuple[float, float]:
    """When importing the pmcover CLI in a fresh interpreter started and ended."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import pmcover.cli"], env=env, check=True,
        stdin=subprocess.DEVNULL,
    )
    return start, time.perf_counter()


# ---------------------------------------------------------------- passes


@dataclass
class GraphResult:
    label: str
    status: str
    metrics: dict


@dataclass
class PassResult:
    start: float  # time.perf_counter() readings
    end: float
    # label -> (ms, a, b): one operation (a graph, or a run_all call) took
    # ms, and ran within [a, b]
    ops: dict
    reports: list = field(default_factory=list)  # lists of GraphResult, one per source
    checks: list = field(default_factory=list)  # verify.CheckResult
    layer: dict = field(default_factory=dict)  # per-pass scan.* values when traced

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def read_records(path: Path) -> list:
    with open(path, "r", encoding="ascii") as fh:
        return [ScanRecord.from_json(line) for line in fh if line.strip()]


def record_reports(records: list) -> list:
    return [GraphResult(r.graph_id, r.status, r.metrics) for r in records]


def scan_pass(inputs: Inputs, out: Path, jobs: int) -> PassResult:
    out.unlink(missing_ok=True)
    start = time.perf_counter()
    run_scan(
        inputs.g6_path, out, cap=CAP, odd_cap=ODD_CAP, timeout_s=TIMEOUT_S,
        jobs=jobs,
    )
    end = time.perf_counter()
    records = read_records(out)
    ops, t = {}, start
    for r in records:
        if jobs == 1:
            # One worker analyzes the graphs in record order, one after the
            # other; elapsed_ms is truncated to whole ms, so + 0.5 on average.
            a, t = t, t + (r.elapsed_ms + 0.5) / 1000
            ops[r.graph_id] = (r.elapsed_ms, a, t)
        else:
            ops[r.graph_id] = (r.elapsed_ms, start, end)
    return PassResult(start, end, ops, [record_reports(records)])


def analyze_pass(inputs: Inputs) -> PassResult:
    ops, results = {}, []
    start = time.perf_counter()
    for label, g in inputs.graphs.items():
        t0 = time.perf_counter()
        metrics, status = analyze_graph(g, cap=CAP, odd_cap=ODD_CAP)
        t1 = time.perf_counter()
        ops[label] = ((t1 - t0) * 1000, t0, t1)
        results.append(GraphResult(label, status, metrics))
    return PassResult(start, time.perf_counter(), ops, [results])


def verify_pass() -> PassResult:
    start = time.perf_counter()
    checks = verify.run_all()
    end = time.perf_counter()
    return PassResult(start, end, {"run_all": ((end - start) * 1000, start, end)}, checks=checks)


def run_pass(workload: str, inputs: Inputs, work: Path) -> PassResult:
    if workload in SCAN_JOBS:
        return scan_pass(inputs, work / "records.jsonl", SCAN_JOBS[workload])
    if workload == "analyze-tau5":
        return analyze_pass(inputs)
    return verify_pass()


# ---------------------------------------------------------------- tracing


class Tracer:
    """In-memory spans recorded around the benchmark's calls into pmcover.

    Each span is [name, parent index or None, start, end]; spans of one
    graph hang under that graph's analyze span.
    """

    def __init__(self) -> None:
        self.spans: list = []

    def open(self, name: str, parent: int | None = None) -> int:
        self.spans.append([name, parent, time.perf_counter(), None])
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()

    def call(self, name: str, parent: int | None, fn, *args, **kwargs):
        index = self.open(name, parent)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def duration_ms(self, index: int) -> float:
        _, _, start, end = self.spans[index]
        return (end - start) * 1000

    def total_ms(self, name: str) -> float:
        return sum(end - start for n, _, start, end in self.spans if n == name) * 1000


def traced_analyze(tracer: Tracer, g) -> tuple[dict, str, int]:
    """analyze_graph(g, cap=CAP, odd_cap=ODD_CAP) one layer call at a time.

    Calls the same functions in the same order, with a span around each,
    and returns the report, the status and the graph's parent span.
    """
    root = tracer.open("coverings.analyze")
    metrics = {key: None for key in REPORT_FIELDS}
    metrics["n"], metrics["m"], metrics["tau_cap"] = g.n, g.m, CAP
    status = "ok"
    metrics["bridges"] = len(tracer.call("graphs.bridges", root, find_bridges, g))
    if g.is_connected():
        metrics["cyclically4ec"] = tracer.call(
            "graphs.cyc4ec", root, cyclic_connectivity_at_least, g, 4
        )
    catalog = tracer.call("matchings.pm_enum", root, enumerate_perfect_matchings, g)
    metrics["pm_count"] = catalog.count
    if catalog.count >= 2:
        stats = tracer.call("matchings.pair_stats", root, pm_pair_stats, catalog)
        metrics["b"] = stats.min_intersection
        metrics["max_two_pm_union"] = stats.max_union
    tau = tracer.call("coverings.tau", root, covering_number, g, catalog, CAP)
    if tau.status == "infeasible":
        status = "infeasible"
    elif tau.status == "ok":
        metrics["tau"] = tau.tau
    odd = tracer.call("coverings.tau_odd", root, odd_covering_number, g, catalog, ODD_CAP)
    if odd.status == "ok":
        metrics["tau_odd"] = odd.size
        metrics["tau_odd_count"] = odd.count_minimum
    elif odd.status == "none_exists":
        metrics["tau_odd_count"] = 0
    # With CAP >= 5 analyze_graph decides berge5 from tau alone.
    metrics["berge5"] = status == "ok" and metrics["tau"] is not None and metrics["tau"] <= 5
    metrics["fr_triple"] = bool(
        tracer.call("coverings.fr_triple", root, find_fr_triples, catalog, limit=1)
    )
    metrics["fulkerson"] = (
        tracer.call("coverings.fulkerson", root, fulkerson_covering, g, catalog)
        is not None
    )
    tracer.close(root)
    return metrics, status, root


def traced_pass(workload: str, inputs: Inputs, work: Path, tracer: Tracer) -> PassResult:
    """One pass with spans around every layer call, for the per-layer metrics."""
    start = time.perf_counter()
    if workload == "verify-paper":
        checks = []
        for name in CRITERIA:
            checks += tracer.call(f"verify.{name}", None, getattr(verify, name))
        end = time.perf_counter()
        return PassResult(start, end, {"run_all": ((end - start) * 1000, start, end)}, checks=checks)
    result = PassResult(start, start, {})
    if inputs.g6_path is not None:
        jobs = SCAN_JOBS[workload]
        out = work / "records.jsonl"
        scanned = scan_pass(inputs, out, jobs)
        result.reports += scanned.reports
        # The scan's own time: its wall time minus each record's elapsed_ms
        # (the per-graph parse and analyze, in whole ms, so + 0.5 on
        # average), counting that work as evenly split over the workers.
        per_graph_ms = sum(ms + 0.5 for ms, _, _ in scanned.ops.values())
        result.layer = {
            "scan.self_ms": scanned.wall_s * 1000 - per_graph_ms / jobs,
            "scan.records": len(scanned.ops),
            "scan.bytes_written": out.stat().st_size,
        }
    replayed = []
    for label, g in inputs.graphs.items():
        if inputs.g6_path is not None:
            parsed = tracer.call("graph6.parse", None, parse_graph6, label)
            tracer.call("graph6.encode", None, to_graph6, parsed)
        metrics, status, span = traced_analyze(tracer, g)
        _, _, a, b = tracer.spans[span]
        result.ops[label] = (tracer.duration_ms(span), a, b)
        replayed.append(GraphResult(label, status, metrics))
        tracer.call("edge_coloring.three_edge_coloring", None, three_edge_coloring, g)
    result.reports.append(replayed)
    result.end = time.perf_counter()
    return result


def per_layer_metrics(tracer: Tracer, passes: list, colourable: dict, counts: list) -> dict:
    """Per-pass layer totals; a layer the workload never calls reads 0."""
    names = [f"{phase}_ms" for phase in ANALYZE_PHASES] + [
        "edge_coloring.three_edge_coloring_ms", "graph6.parse_ms", "graph6.encode_ms",
    ] + [f"verify.{name}_ms" for name in CRITERIA]
    values = {name: tracer.total_ms(name[: -len("_ms")]) / len(passes) for name in names}
    for name in ("scan.self_ms", "scan.records", "scan.bytes_written"):
        values[name] = statistics.mean(p.layer.get(name, 0) for p in passes)
    values["matchings.pm_count"] = statistics.median(counts) if counts else 0
    values["matchings.pm_count_max"] = max(counts, default=0)
    values["edge_coloring.colourable_share"] = colourable_share(colourable) or 0.0
    return values


# ---------------------------------------------------------------- correctness


def load_expected() -> dict:
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def colouring_problem(g, classes) -> str | None:
    """What is wrong with a colouring from three_edge_coloring, if anything."""
    if classes is None:
        return None
    union = 0
    for cls in classes:
        if not is_perfect_matching(g, cls) or union & cls.bits:
            return "three_edge_coloring returned an improper colouring"
        union |= cls.bits
    if union != (1 << g.m) - 1:
        return "three_edge_coloring left an edge uncoloured"
    return None


def colourable_share(colourable: dict) -> float | None:
    return sum(colourable.values()) / len(colourable) if colourable else None


def pm_counts(p: PassResult) -> list:
    """Catalog sizes of the graphs of one pass."""
    return [
        g.metrics["pm_count"] for g in p.reports[-1] if g.metrics.get("pm_count") is not None
    ] if p.reports else []


def graph_problems(result: GraphResult, colourable: bool, expected: dict | None) -> list:
    """Every way one graph's report fails the gate; empty when it passes."""
    m = result.metrics
    problems = []
    if result.status != "ok":
        problems.append(f"status {result.status}")
    if expected is not None:
        problems += [
            f"{key} = {m.get(key)!r}, expected {expected[key]!r}"
            for key in REPORT_FIELDS
            if m.get(key) != expected[key]
        ]
    tau, tau_odd = m.get("tau"), m.get("tau_odd")
    if (tau == 3) != colourable:
        problems.append(f"tau = {tau} but three_edge_coloring says colourable={colourable}")
    if tau_odd is not None and (tau_odd % 2 == 0 or tau is None or tau_odd < tau):
        problems.append(f"tau_odd = {tau_odd} with tau = {tau}")
    for key in ("berge5", "fulkerson"):
        if m.get(key) is not True:
            problems.append(f"{key} is {m.get(key)!r}")
    return problems


def check_graphs(results: list, inputs: Inputs, colourable: dict, expected: dict) -> tuple:
    """Gate one list of graph reports: (attempted, [(name, problems)]).

    Each report is checked against its graph's entry in expected.json and
    against the invariants.
    """
    failures = []
    reported = {r.label for r in results}
    for result in results:
        if result.label not in inputs.graphs:
            failures.append((result.label, ["not an input graph"]))
            continue
        name = inputs.names[result.label]
        problems = graph_problems(result, colourable[result.label], expected.get(name))
        if problems:
            failures.append((name, problems))
    failures += [
        (inputs.names[label], ["no report"]) for label in inputs.graphs if label not in reported
    ]
    return len(reported | set(inputs.graphs)), failures


def check_paper(checks: list, expected_names: list) -> tuple:
    """Gate one verify-paper pass: every expected check present and passing."""
    failures = [(c.name, [c.detail or "FAIL"]) for c in checks if not c.ok]
    names = {c.name for c in checks}
    failures += [(name, ["missing"]) for name in expected_names if name not in names]
    failures += [
        (c.name, ["not an expected check"])
        for c in checks if c.ok and c.name not in expected_names
    ]
    return len(names | set(expected_names)), failures


# ---------------------------------------------------------------- run


def calibration_ms() -> float:
    """Median time of the speed probe's fixed loop, to show clock drift."""
    times = []
    for _ in range(CALIBRATION_REPS):
        start = time.perf_counter()
        probe_loop()
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def git_commit() -> str | None:
    """HEAD of the repository the benchmark sits in, or None outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True, stdin=subprocess.DEVNULL,
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return None
    return out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None


def quartiles(values: list) -> tuple[float, float]:
    """Median and third quartile."""
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[1], q[2]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def end_to_end_metrics(passes: list, probe: SpeedProbe, rss_mb: float, setup_s: float) -> dict:
    """The end-to-end metrics, timings in reference seconds.

    Op latency is each operation's mean over passes; averaging first lets
    the whole-millisecond elapsed_ms of scan records resolve latencies of a
    few milliseconds.
    """
    walls = [probe.scale(p.start, p.end) for p in passes]
    per_op: dict = {}
    for p in passes:
        for label, (ms, a, b) in p.ops.items():
            per_op.setdefault(label, []).append(ms * probe.scale(a, b) / (b - a))
    p50, p75 = quartiles([statistics.mean(v) for v in per_op.values()])
    return {
        "wall_s": statistics.median(walls),
        "ops_per_s": sum(len(p.ops) for p in passes) / sum(walls),
        "op_ms_p50": p50,
        "op_ms_p75": p75,
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
    }


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
    expected: dict | None = None,
) -> tuple[dict, dict]:
    """Run one workload; returns (result, context) as main prints them.

    ``tiny`` shrinks the inputs and makes one set-up and one pass, for the
    smoke test; ``expected`` replaces the stored expected values.
    """
    if expected is None:
        expected = load_expected()
    context = {
        "workload": workload, "seed": seed, "trace": int(trace), "tiny": tiny,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(), "calibration_ms_start": calibration_ms(),
    }
    # The run and its scan workers stay on as many CPUs as the workload has
    # workers, and the speed probe samples those CPUs.
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)[: SCAN_JOBS.get(workload, 1)]
    os.sched_setaffinity(0, cpus)
    WORK_DIR.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp, \
                SpeedProbe([] if trace else cpus) as probe:
            work = Path(tmp)
            setup_reps = 1 if tiny else SETUP_REPS
            min_passes = 1 if tiny or trace else MIN_PASSES
            build_spans = []
            for _ in range(setup_reps):
                start = time.perf_counter()
                inputs = build_inputs(workload, seed, tiny, work)
                build_spans.append((start, time.perf_counter()))
            colourings = {label: three_edge_coloring(g) for label, g in inputs.graphs.items()}
            colourable = {label: c is not None for label, c in colourings.items()}
            failures = [
                (inputs.names[label], [problem]) for label, g in inputs.graphs.items()
                if (problem := colouring_problem(g, colourings[label]))
            ]
            attempted = len(colourings)
            expected_here = expected.get(workload, {})

            tracer = Tracer()
            passes: list = []
            start = time.perf_counter()
            while len(passes) < min_passes or time.perf_counter() - start < seconds:
                if trace:
                    p = traced_pass(workload, inputs, work, tracer)
                else:
                    p = run_pass(workload, inputs, work)
                if not passes:
                    counts = pm_counts(p)
                # Gate each pass as it ends and keep only its timings, so that
                # memory does not grow with the number of passes.
                if workload == "verify-paper":
                    n, bad = check_paper(p.checks, expected_here)
                    attempted, failures = attempted + n, failures + bad
                for reports in p.reports:
                    n, bad = check_graphs(reports, inputs, colourable, expected_here)
                    attempted, failures = attempted + n, failures + bad
                p.reports, p.checks = [], []
                passes.append(p)
            rss_mb = peak_rss_mb()
            # These start child processes, so they come after the RSS reading.
            import_spans = [] if trace else [import_span() for _ in build_spans]
            context["git_commit"] = git_commit()
            probe.stop()
    finally:
        os.sched_setaffinity(0, allowed)

    if trace:
        values, units = per_layer_metrics(tracer, passes, colourable, counts), PER_LAYER_UNITS
    else:
        setup_s = statistics.median(
            probe.scale(*build) + probe.scale(*imp)
            for build, imp in zip(build_spans, import_spans)
        )
        values = end_to_end_metrics(passes, probe, rss_mb, setup_s)
        units = END_TO_END_UNITS
        context.update(
            probe_samples=len(probe.samples), probe_mean_speed=probe.mean_speed(),
        )
    context.update(
        cpus=cpus,
        passes=len(passes),
        raw_pass_wall_s=[p.wall_s for p in passes],
        samples={
            "wall_s": len(passes), "op_ms": sum(len(p.ops) for p in passes),
            "setup_s": setup_reps,
        },
        graphs=len(inputs.graphs),
        colourable_share=colourable_share(colourable),
        pm_count_median=statistics.median(counts) if counts else None,
        pm_count_max=max(counts, default=None),
        loadavg_end=os.getloadavg(),
        calibration_ms_end=calibration_ms(),
        failures=[f"{label}: {'; '.join(problems)}" for label, problems in failures[:20]],
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, context


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, context = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in context["failures"]:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
