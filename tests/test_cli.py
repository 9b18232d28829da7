import inspect
import json
import math
import signal
import sys

import pytest

from pmcover.cli import main
from pmcover.coverings import analyze_graph
import pmcover.scan
from pmcover.generators import petersen, prism, random_bridgeless_cubic
from pmcover.graph6 import parse_graph6, to_graph6
from pmcover.scan import ScanRecord, run_scan


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_graph6_round_trips(capsys):
    code, out, _ = run(capsys, "gen", "petersen", "--g6")
    assert code == 0
    assert parse_graph6(out.strip()) == petersen()


def test_gen_with_params(capsys):
    code, out, _ = run(capsys, "gen", "flower", "5", "--g6")
    assert code == 0
    assert parse_graph6(out.strip()).n == 20


def test_gen_theta_refuses_graph6(capsys):
    code, _, err = run(capsys, "gen", "theta", "--g6")
    assert code == 2
    assert "parallel" in err


def test_tau_json(capsys):
    code, out, _ = run(capsys, "tau", "petersen", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["tau"] == 5 and data["witness"] == [0, 1, 2, 3, 4]


def test_tau_odd_json(capsys):
    code, out, _ = run(capsys, "tau-odd", "tau5odd", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["tau_odd"] == 7 and data["count_minimum"] == 64


def test_analyze_json_fields(capsys):
    code, out, _ = run(capsys, "analyze", "petersen", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "ok"
    assert data["metrics"]["tau"] == 5
    assert data["metrics"]["pm_count"] == 6
    assert data["metrics"]["cyclically4ec"] is True


def test_enumerate_pm_lines(capsys):
    code, out, _ = run(capsys, "enumerate-pm", "k4")
    assert code == 0
    assert out.splitlines() == ["0-3 1-2", "0-2 1-3", "0-1 2-3"]


def test_fulkerson_success(capsys):
    code, out, _ = run(capsys, "fulkerson", "petersen", "--json")
    assert code == 0
    assert json.loads(out)["members"] == [0, 1, 2, 3, 4, 5]


def test_compose_three_cut(capsys):
    code, out, _ = run(capsys, "compose", "three-cut", "petersen", "0", "k33", "0", "--g6")
    assert code == 0
    assert parse_graph6(out.strip()).n == 14


def test_compose_k4(capsys):
    code, out, _ = run(
        capsys, "compose", "k4",
        "petersen", "0", "petersen", "0", "theta", "0", "theta", "0", "--g6",
    )
    assert code == 0
    assert parse_graph6(out.strip()).n == 20


def test_compose_with_too_few_specs_is_usage_error(capsys):
    code, _, err = run(capsys, "compose", "two-cut", "petersen", "0", "k33")
    assert code == 2
    assert "two-cut takes 2 graph/index pairs" in err and "Traceback" not in err


def test_compose_with_a_bad_index_is_usage_error(capsys):
    code, _, err = run(capsys, "compose", "three-cut", "petersen", "x", "k33", "0")
    assert code == 2
    assert "three-cut" in err and "'x'" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "specs,message",
    [(("two-cut", "petersen", "99", "k33", "0"),
      "compose two-cut: edge 99 of 'petersen' is out of range 0..14"),
     (("k4", "petersen", "0", "petersen", "0", "theta", "0", "theta", "5"),
      "compose k4: vertex 5 of 'theta' is out of range 0..1")],
    ids=["two-cut-edge", "k4-vertex"],
)
def test_compose_index_out_of_range_is_usage_error(capsys, specs, message):
    code, _, err = run(capsys, "compose", *specs)
    assert code == 2
    assert message in err and "Traceback" not in err


def test_graph6_literal_and_file_specs(tmp_path, capsys):
    line = to_graph6(prism(4))
    code, out, _ = run(capsys, "tau", line)
    assert code == 0 and "tau = 3" in out
    path = tmp_path / "one.g6"
    path.write_text(line + "\n")
    code, out, _ = run(capsys, "tau", str(path))
    assert code == 0 and "tau = 3" in out


def test_unknown_spec_is_usage_error(capsys):
    code, _, err = run(capsys, "tau", "not-a-graph")
    assert code == 2 and "error" in err


def test_scan_and_resume(tmp_path, capsys):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(
        to_graph6(petersen()) + "\n" + to_graph6(prism(4)) + "\n"
    )
    out_file = tmp_path / "records.jsonl"
    summary = run_scan(corpus, out_file, cap=6, odd_cap=7, timeout_s=None)
    assert summary.processed == 2 and summary.skipped == 0
    records = [
        ScanRecord.from_json(line)
        for line in out_file.read_text().splitlines()
    ]
    assert len(records) == 2
    assert records[0].metrics["tau"] == 5
    assert records[1].metrics["tau"] == 3
    assert records[0].graph_id == to_graph6(petersen())
    # the Petersen graph is reported as the known exception, not a candidate
    assert summary.known_petersen == [to_graph6(petersen())]
    assert summary.problem_candidates == []

    again = run_scan(corpus, out_file, cap=6, odd_cap=7, timeout_s=None)
    assert again.processed == 0 and again.skipped == 2
    assert len(out_file.read_text().splitlines()) == 2


def test_scan_resume_redoes_an_unterminated_last_line(tmp_path):
    graphs = [petersen(), prism(4), prism(3)]
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("".join(to_graph6(g) + "\n" for g in graphs))
    out_file = tmp_path / "records.jsonl"
    run_scan(corpus, out_file, timeout_s=None)
    text = out_file.read_text()
    last_start = text.rstrip("\n").rfind("\n") + 1
    out_file.write_text(text[: last_start + 10])  # killed mid-record

    again = run_scan(corpus, out_file, timeout_s=None)
    assert again.processed == 1 and again.skipped == 2
    ids = [json.loads(line)["graph_id"] for line in out_file.read_text().splitlines()]
    assert sorted(ids) == sorted(to_graph6(g) for g in graphs)


def test_scan_error_lines_do_not_abort(tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("!!notgraph6!!\n" + to_graph6(prism(3)) + "\n")
    out_file = tmp_path / "records.jsonl"
    summary = run_scan(corpus, out_file, timeout_s=None)
    assert summary.processed == 2 and summary.errors == 1
    records = [
        ScanRecord.from_json(line)
        for line in out_file.read_text().splitlines()
    ]
    assert records[0].status == "error"
    assert records[1].status == "ok"


def test_scan_parallel_jobs_match_serial(tmp_path):
    corpus = tmp_path / "corpus.g6"
    lines = [to_graph6(prism(k)) for k in (3, 4, 5, 6)]
    corpus.write_text("\n".join(lines) + "\n")
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    run_scan(corpus, serial, timeout_s=None, jobs=1)
    run_scan(corpus, parallel, timeout_s=None, jobs=2)

    def strip_timing(path):
        out = []
        for line in path.read_text().splitlines():
            raw = json.loads(line)
            raw.pop("elapsed_ms")
            out.append(raw)
        return out

    assert strip_timing(serial) == strip_timing(parallel)


@pytest.mark.parametrize(
    "graphs,jobs,pools", [(2, 64, [2]), (1, 8, []), (3, 1, [])],
    ids=["two-graphs-64-jobs", "one-graph-8-jobs", "three-graphs-1-job"],
)
def test_scan_starts_no_more_workers_than_graphs(tmp_path, monkeypatch, graphs, jobs, pools):
    made = []

    class InProcessPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def map(self, fn, items):
            return map(fn, items)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(pmcover.scan, "ProcessPoolExecutor", InProcessPool)
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("".join(to_graph6(prism(k)) + "\n" for k in range(3, 3 + graphs)))
    summary = run_scan(corpus, tmp_path / "out.jsonl", timeout_s=None, jobs=jobs)
    assert summary.processed == graphs
    assert made == pools


def test_scan_cli_command(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    corpus.write_text(to_graph6(prism(4)) + "\n")
    out_file = tmp_path / "r.jsonl"
    code, out, _ = run(capsys, "scan", str(corpus), str(out_file))
    assert code == 0
    assert "scanned 1 graphs" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["tau"])  # missing graph argument
    assert exc.value.code == 2


def test_random_spec_without_a_seed_is_seed_0(capsys):
    plain = run(capsys, "tau", "random:10")
    assert plain[0] == 0 and plain == run(capsys, "tau", "random:10:0")


def test_there_is_no_global_seed_option():
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "3", "tau", "random:10"])
    assert exc.value.code == 2


def test_tally_flags_tau5_equal_tau_odd5():
    from pmcover.scan import ScanSummary, _tally

    summary = ScanSummary()
    record = ScanRecord(
        "fake", {"tau": 5, "tau_odd": 5, "cyclically4ec": False}, "ok", 1
    )
    _tally(summary, record, cap=6)
    assert summary.tau5_odd5 == ["fake"]


def test_scan_records_infeasible_status(tmp_path):
    from test_graphs import bridged_double_k4

    corpus = tmp_path / "c.g6"
    corpus.write_text(to_graph6(bridged_double_k4()) + "\n")
    out_file = tmp_path / "r.jsonl"
    summary = run_scan(corpus, out_file, timeout_s=None)
    record = ScanRecord.from_json(out_file.read_text().strip())
    assert record.status == "infeasible"
    assert record.metrics["bridges"] == 1
    # no covering exists, but the conjectures are about bridgeless graphs
    assert summary.berge_failures == [] and summary.fulkerson_failures == []
    assert "FLAG" not in summary.render()


def test_scan_deduplicates_repeated_input_lines(tmp_path):
    corpus = tmp_path / "c.g6"
    line = to_graph6(prism(4))
    corpus.write_text(line + "\n" + line + "\n")
    out_file = tmp_path / "r.jsonl"
    summary = run_scan(corpus, out_file, timeout_s=None)
    assert summary.processed == 1 and summary.skipped == 1
    assert len(out_file.read_text().splitlines()) == 1


def test_scan_timeout_produces_timeout_record(tmp_path):
    from pmcover.compositions import tau5odd_example

    corpus = tmp_path / "c.g6"
    corpus.write_text(to_graph6(tau5odd_example()) + "\n")
    out_file = tmp_path / "r.jsonl"
    summary = run_scan(corpus, out_file, timeout_s=1e-9)
    assert summary.processed == 1
    record = ScanRecord.from_json(out_file.read_text().strip())
    assert record.status == "timeout"
    assert record.metrics["n"] == 20
    assert record.metrics["fulkerson"] is None


@pytest.mark.parametrize("jobs", [1, 2])
def test_scan_timeout_bounds_pm_enumeration(tmp_path, jobs):
    corpus = tmp_path / "c.g6"
    # 147477 perfect matchings: enumerating them alone takes about 45 s
    corpus.write_text(to_graph6(random_bridgeless_cubic(80, 0)) + "\n")
    out_file = tmp_path / "r.jsonl"
    run_scan(corpus, out_file, timeout_s=1.0, jobs=jobs)
    record = ScanRecord.from_json(out_file.read_text().strip())
    assert record.status == "timeout" and record.elapsed_ms <= 2000
    assert record.metrics["pm_count"] is None


def test_scan_writes_each_record_before_the_next_graph(tmp_path, monkeypatch):
    graphs = [petersen(), prism(3), prism(4), prism(5)]
    ids = [to_graph6(g) for g in graphs]
    corpus = tmp_path / "c.g6"
    corpus.write_text("".join(gid + "\n" for gid in ids))
    out_file = tmp_path / "r.jsonl"
    real, analyzed = pmcover.scan.analyze_graph, []

    def interrupted_at_third(g, **kwargs):
        if len(analyzed) == 2:
            raise KeyboardInterrupt
        analyzed.append(to_graph6(g))
        return real(g, **kwargs)

    monkeypatch.setattr(pmcover.scan, "analyze_graph", interrupted_at_third)
    with pytest.raises(KeyboardInterrupt):
        run_scan(corpus, out_file, timeout_s=None)
    lines = out_file.read_text().splitlines()
    assert [ScanRecord.from_json(line).graph_id for line in lines] == ids[:2]

    def recording(g, **kwargs):
        analyzed.append(to_graph6(g))
        return real(g, **kwargs)

    analyzed.clear()
    monkeypatch.setattr(pmcover.scan, "analyze_graph", recording)
    summary = run_scan(corpus, out_file, timeout_s=None)
    assert analyzed == ids[2:]
    assert summary.processed == 2 and summary.skipped == 2


def test_scan_resume_names_the_file_and_line_of_a_bad_record(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    corpus.write_text(to_graph6(petersen()) + "\n")
    out_file = tmp_path / "r.jsonl"
    run_scan(corpus, out_file, timeout_s=None)
    with open(out_file, "a", encoding="ascii") as fh:
        fh.write("garbage\n")
    code, _, err = run(capsys, "scan", str(corpus), str(out_file))
    assert code == 2
    assert f"{out_file}, line 2: not a scan record" in err


def test_fulkerson_not_found_exits_1(tmp_path, capsys):
    from test_graphs import bridged_double_k4
    from test_matchings import matching_free_cubic

    path = tmp_path / "g.g6"
    for g in (matching_free_cubic(), bridged_double_k4()):
        path.write_text(to_graph6(g) + "\n")
        code, out, _ = run(capsys, "fulkerson", str(path))
        assert code == 1
        assert "NO FULKERSON COVERING" in out
        # a bridged graph is no counterexample to a bridgeless conjecture
        assert "counterexample" not in out and "bridge(s)" in out


def test_analyze_handles_multigraph_generator_spec(capsys):
    code, out, _ = run(capsys, "analyze", "theta", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["metrics"]["n"] == 2
    assert data["metrics"]["tau"] == 3
    assert data["metrics"]["pm_count"] == 3


@pytest.mark.parametrize(
    "argv,message",
    [(("analyze", "flower:4"), "must be odd"),
     (("tau", "random:7"), "n must be even"),
     (("analyze", "prism:abc"), "generator 'prism': parameter 'abc'"),
     (("analyze", "perm:1,x,0"), "generator 'perm': parameter 'x'"),
     (("tau", "prism:4:9"), "generator 'prism' takes 1 parameter, got 2"),
     (("tau", "random:10:1:5"), "generator 'random' takes 1 to 2 parameters, got 3"),
     (("analyze", "petersen:3"), "generator 'petersen' takes 0 parameters, got 1")],
)
def test_generator_spec_errors_are_reported(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 2 and message in err


def test_fulkerson_json_reports_no_covering_as_json(capsys):
    from test_graphs import bridged_double_k4

    code, out, _ = run(capsys, "fulkerson", to_graph6(bridged_double_k4()), "--json")
    assert code == 1
    assert json.loads(out) == {"status": "infeasible", "bridges": 1}


def test_scan_records_a_non_ascii_line_as_an_error(tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_bytes(b"I\xc3\xa9?GWWo?w\n" + to_graph6(prism(3)).encode() + b"\n")
    out_file = tmp_path / "r.jsonl"
    summary = run_scan(corpus, out_file, timeout_s=None)
    assert summary.processed == 2 and summary.errors == 1
    records = [ScanRecord.from_json(line) for line in out_file.read_text().splitlines()]
    assert records[0].status == "error" and "illegal character" in records[0].error
    assert records[1].status == "ok"
    # the error record is found again on resume
    assert run_scan(corpus, out_file, timeout_s=None).skipped == 2


def test_a_directory_is_an_io_error_not_a_graph6_literal(tmp_path, monkeypatch, capsys):
    code, _, err = run(capsys, "analyze", str(tmp_path))
    assert code == 3
    assert f"Is a directory: '{tmp_path}'" in err and "illegal character" not in err
    # a generator spec still wins over a directory of the same name
    monkeypatch.chdir(tmp_path)
    (tmp_path / "petersen").mkdir()
    code, out, _ = run(capsys, "tau", "petersen")
    assert code == 0 and out == "tau = 5  witness: [0, 1, 2, 3, 4]\n"


def test_a_missing_path_is_an_io_error_not_a_graph6_literal(tmp_path, capsys):
    missing = str(tmp_path / "nonexist.g6")
    code, _, err = run(capsys, "analyze", missing)
    assert code == 3
    assert f"No such file or directory: '{missing}'" in err
    assert "illegal character" not in err
    code, _, err = run(capsys, "tau", "not-a-graph")
    assert code == 2 and "unknown generator spec 'not-a-graph'" in err
    # a spec of graph6 characters only is still parsed as a literal
    code, out, _ = run(capsys, "tau", ">>graph6<<IsP@OkWHG")
    assert code == 0 and out == "tau = 5  witness: [0, 1, 2, 3, 4]\n"


def test_analyze_non_ascii_file_is_a_graph6_error(tmp_path, capsys):
    path = tmp_path / "g.g6"
    path.write_bytes(b"\xc3\xa9\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "illegal character" in err and "codec" not in err


@pytest.mark.parametrize(
    "kwargs,flag,message",
    [({"jobs": 0}, ("--jobs", "0"), "jobs must be at least 1, got 0"),
     ({"timeout_s": -1.0}, ("--timeout-s", "-1"),
      "timeout_s must be nonnegative, got -1.0"),
     ({"timeout_s": math.nan}, ("--timeout-s", "nan"),
      "timeout_s must be nonnegative, got nan"),
     ({"cap": 2}, ("--cap", "2"), "cap must be at least 3, got 2"),
     ({"max_matchings": -1}, ("--max-pm", "-1"),
      "max_matchings must be nonnegative, got -1")],
    ids=["jobs-0", "timeout-negative", "timeout-nan", "cap-2", "max-pm-negative"],
)
def test_scan_rejects_bad_jobs_and_timeout(tmp_path, capsys, kwargs, flag, message):
    corpus = tmp_path / "c.g6"
    corpus.write_text(to_graph6(prism(3)) + "\n")
    out_file = tmp_path / "r.jsonl"
    with pytest.raises(ValueError, match=message):
        run_scan(corpus, out_file, **kwargs)
    code, _, err = run(capsys, "scan", str(corpus), str(out_file), *flag)
    assert code == 2 and message in err
    assert not out_file.exists()


def test_an_infinite_timeout_is_no_limit(tmp_path):
    # setitimer cannot hold inf (nor 1e10 s): no timer is armed at all
    corpus = tmp_path / "c.g6"
    corpus.write_text(to_graph6(petersen()) + "\n")
    out_file = tmp_path / "r.jsonl"
    for timeout_s in (math.inf, 1e10):
        out_file.unlink(missing_ok=True)
        run_scan(corpus, out_file, timeout_s=timeout_s)
        (record,) = map(ScanRecord.from_json, out_file.read_text().splitlines())
        assert record.status == "ok" and record.metrics["tau"] == 5
    assert analyze_graph(petersen(), deadline=math.inf)[1] == "ok"
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_graph_too_big_to_enumerate_is_an_error_not_a_traceback(tmp_path, capsys):
    # enumeration recurses n/2 = 60 deep on prism(60), past a limit 40 frames
    # above the caller: the same failure as the default limit on prism(1100)
    corpus = tmp_path / "c.g6"
    corpus.write_text(to_graph6(prism(60)) + "\n")
    out_file = tmp_path / "r.jsonl"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        code, _, err = run(capsys, "analyze", "prism:60")
        summary = run_scan(corpus, out_file)
    finally:
        sys.setrecursionlimit(limit)
    assert code == 2 and err.startswith("error: a graph with n=120 vertices")
    assert summary.errors == 1
    (record,) = map(ScanRecord.from_json, out_file.read_text().splitlines())
    assert record.status == "error" and "n=120" in record.error


THETA_TEXT = (
    "status: ok\nn: 2\nm: 3\npm_count: 3\ntau: 3\ntau_cap: 4\ntau_odd: 3\n"
    "tau_odd_count: 1\nfulkerson: True\nberge5: True\nfr_triple: True\nb: 0\n"
    "max_two_pm_union: 2\nbridges: 0\ncyclically4ec: True\n"
)
THETA_JSON = (
    '{"status": "ok", "metrics": {"n": 2, "m": 3, "pm_count": 3, "tau": 3, '
    '"tau_cap": 6, "tau_odd": 3, "tau_odd_count": 1, "fulkerson": true, '
    '"berge5": true, "fr_triple": true, "b": 0, "max_two_pm_union": 2, '
    '"bridges": 0, "cyclically4ec": true}}\n'
)
PETERSEN_PMS = (
    "0-5 1-6 2-7 3-8 4-9\n0-1 2-3 4-9 5-7 6-8\n0-4 1-2 3-8 5-7 6-9\n"
    "0-1 2-7 3-4 5-8 6-9\n0-4 1-6 2-3 5-8 7-9\n0-5 1-2 3-4 6-8 7-9\n"
)
NULLS = '"tau_odd": null, "count_minimum": null, "witness": null}\n'
BRIDGED = "I}?GWWo?w"  # bridged_double_k4 from test_graphs


@pytest.mark.parametrize(
    "argv,code,stdout",
    [(("analyze", "theta", "--cap", "4", "--odd-cap", "5"), 0, THETA_TEXT),
     (("analyze", "theta", "--json"), 0, THETA_JSON),
     (("tau", "petersen"), 0, "tau = 5  witness: [0, 1, 2, 3, 4]\n"),
     (("tau", "petersen", "--json"), 0,
      '{"status": "ok", "tau": 5, "witness": [0, 1, 2, 3, 4]}\n'),
     (("tau", "petersen", "--cap", "4"), 0, "tau: exceeds (cap 4)\n"),
     (("tau", "petersen", "--cap", "4", "--json"), 0,
      '{"status": "exceeds", "tau": null, "witness": null}\n'),
     (("tau-odd", "k4"), 0,
      "tau_odd = 3  minimum-size coverings: 1  witness: [0, 1, 2]\n"),
     (("tau-odd", "k4", "--json"), 0,
      '{"status": "ok", "tau_odd": 3, "count_minimum": 1, "witness": [0, 1, 2]}\n'),
     (("tau-odd", "k4", "--odd-cap", "1"), 0, "tau_odd: exceeds (cap 1)\n"),
     (("tau-odd", "k4", "--odd-cap", "1", "--json"), 0,
      '{"status": "exceeds", ' + NULLS),
     (("tau-odd", "petersen"), 0, "tau_odd: none_exists (cap 7)\n"),
     (("tau-odd", "petersen", "--json"), 0, '{"status": "none_exists", ' + NULLS),
     (("fulkerson", "petersen"), 0,
      "Fulkerson covering members: [0, 1, 2, 3, 4, 5]\n" + PETERSEN_PMS),
     (("fulkerson", "petersen", "--json"), 0, '{"members": [0, 1, 2, 3, 4, 5]}\n'),
     (("fulkerson", BRIDGED), 1,
      "NO FULKERSON COVERING: 1 bridge(s), so some edge lies in no perfect matching\n"),
     (("fulkerson", BRIDGED, "--json"), 1, '{"status": "infeasible", "bridges": 1}\n'),
     (("enumerate-pm", "k4"), 0, "0-3 1-2\n0-2 1-3\n0-1 2-3\n"),
     (("enumerate-pm", "k4", "--json"), 0,
      '{"count": 3, "matchings": ["0-3 1-2", "0-2 1-3", "0-1 2-3"]}\n')],
)
def test_graph_command_output_is_pinned(capsys, argv, code, stdout):
    assert run(capsys, *argv) == (code, stdout, "")
