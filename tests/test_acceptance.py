"""Acceptance suite: every quantitative target, exact integer equality.

Each test prints one pass/fail line per check (visible with pytest -s or on
failure), compares those lines with ``verify_paper_lines.json`` and enforces
its wall-clock budget; the same checks back the CLI's verify-paper command.
"""

import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

from pmcover.cli import GENERATORS, build_parser
from pmcover.verify import (
    criterion_1_petersen,
    criterion_2_blanusa,
    criterion_3_flower,
    criterion_4_goldberg,
    criterion_5_example_graph,
    criterion_6_petersen_k33,
    criterion_7_property_suites,
    criterion_8_oracles,
)


# The verify-paper lines of each criterion, details included (tau values,
# counts, the tau=4 instances and Petersen hits of the property suites).
GOLDEN = json.loads(
    (Path(__file__).parent / "verify_paper_lines.json").read_text()
)


def _report(make_results, budget_s):
    start = time.monotonic()
    results = make_results()
    elapsed = time.monotonic() - start
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.ok]
    assert not failed, "failed checks: " + ", ".join(r.name for r in failed)
    assert [r.line() for r in results] == GOLDEN[make_results.__name__]
    assert elapsed < budget_s, f"budget {budget_s}s exceeded: {elapsed:.1f}s"


def test_criterion_1_petersen_suite():
    _report(criterion_1_petersen, budget_s=1.0)


def test_criterion_2_blanusa_pair():
    _report(criterion_2_blanusa, budget_s=10.0)  # 5 s per snark


def test_criterion_3_flower_snarks():
    _report(criterion_3_flower, budget_s=30.0)


def test_criterion_4_goldberg_g5():
    _report(criterion_4_goldberg, budget_s=60.0)


def test_criterion_5_twenty_vertex_example():
    _report(criterion_5_example_graph, budget_s=60.0)


def test_criterion_6_petersen_joined_to_k33():
    _report(criterion_6_petersen_k33, budget_s=60.0)


def test_criterion_7_property_suites():
    _report(criterion_7_property_suites, budget_s=600.0)


def test_criterion_8_oracle_equivalence():
    _report(criterion_8_oracles, budget_s=300.0)


def test_readme_examples():
    """The README's library example runs and its commands parse."""
    root = Path(__file__).parent.parent
    blocks = re.findall(
        r"^```(\w*)\n(.*?)^```", (root / "README.md").read_text(), re.M | re.S
    )
    (library,) = [body for lang, body in blocks if lang == "python"]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run(
        [sys.executable, "-c", library],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["4", "5"]
    commands = [
        shlex.split(line, comments=True)[1:]
        for _, body in blocks
        for line in body.splitlines()
        if line.startswith("pmcover ")
    ]
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_names_every_generator_spec():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    listed = readme.split("Generator specs:", 1)[1].split("\n\n", 1)[0]
    names = {spec.split(":")[0] for spec in re.findall(r"`([^`]+)`", listed)}
    assert names == set(GENERATORS)
