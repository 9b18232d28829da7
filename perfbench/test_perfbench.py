"""Smoke test of the benchmark: each workload at a tiny size, and its gate."""

import copy
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = run  # dataclasses look their module up here
_spec.loader.exec_module(run)
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    result, context = run.run_workload(workload, run.DEFAULT_SEED, 0, bool(trace), tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], context["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize(
    "workload, name, field",
    [
        ("scan-corpus", "petersen", "pm_count"),
        ("analyze-tau5", "tau5odd", "tau_odd_count"),
    ],
)
def test_gate_fails_on_a_wrong_expected_value(workload, name, field):
    expected = copy.deepcopy(run.load_expected())
    expected[workload][name][field] += 1
    result, context = run.run_workload(
        workload, run.DEFAULT_SEED, 0, False, tiny=True, expected=expected
    )
    assert not result["correct"]
    assert result["failed"] == context["passes"]
    assert set(context["failures"]) == {
        f"{name}: {field} = {expected[workload][name][field] - 1}, "
        f"expected {expected[workload][name][field]}"
    }


def test_gate_fails_on_a_missing_paper_check():
    expected = copy.deepcopy(run.load_expected())
    expected["verify-paper"].append("petersen.no-such-check")
    result, context = run.run_workload(
        "verify-paper", run.DEFAULT_SEED, 0, False, tiny=True, expected=expected
    )
    passes = context["passes"]
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (47 * passes, passes)
    assert set(context["failures"]) == {"petersen.no-such-check: missing"}


def test_invariants_reject_inconsistent_reports():
    good = run.load_expected()["analyze-tau5"]["tau5odd"]
    assert run.graph_problems(run.GraphResult("g", "ok", good), False, None) == []
    assert run.graph_problems(run.GraphResult("g", "timeout", good), False, None)
    broken = [
        ({"tau": 3}, False),  # tau = 3 on a graph with no 3-edge-colouring
        ({}, True),  # tau = 5 on a colourable graph
        ({"tau_odd": 6}, False),
        ({"tau_odd": 3}, False),  # below tau
        ({"berge5": False}, False),
        ({"fulkerson": False}, False),
    ]
    for change, colourable in broken:
        report = run.GraphResult("g", "ok", {**good, **change})
        assert run.graph_problems(report, colourable, None), change


def test_fails_without_printing_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-paper", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_speed_probe_scales_intervals_to_the_reference_speed():
    ref_s = sys.modules[run.SpeedProbe.__module__].REFERENCE_MS / 1000
    probe = run.SpeedProbe([0])
    # One sample every 0.1 s, each taking twice the reference CPU time.
    probe.samples = [(t / 10, t / 10 + 0.001, 2 * ref_s) for t in range(100)]
    # Ten samples start and end within [2.05, 3.05]: their CPU time is not
    # the measured work's, and the work ran at half the reference speed.
    assert probe.scale(2.05, 3.05) == pytest.approx((1.0 - 10 * 2 * ref_s) / 2)
    # Past the last sample the nearest samples set the speed.
    assert probe.scale(20.0, 20.01) == pytest.approx(0.01 / 2)
    assert probe.mean_speed() == pytest.approx(0.5)
