"""Smoke check of the benchmark on a tiny seed and tiny rings.  No timing
gates: it checks that every workload runs, answers correctly and reports
exactly the metrics BENCHMARK.json names.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import procs  # noqa: E402
import workloads  # noqa: E402
from checks import CliChecker  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_reports_every_metric(name, trace):
    outcome = workloads.WORKLOADS[name](seed=3, seconds=0.1, trace=trace, tiny=True)
    assert outcome.failures == []
    assert outcome.attempted > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        metric: unit for metric, (_, unit) in outcome.metrics.items()}
    if trace:
        assert outcome.spans
    else:
        assert all(value > 0 for value, _ in outcome.metrics.values())


def test_inputs_follow_the_seed():
    assert inputs.cli_requests(5, 0) == inputs.cli_requests(5, 0)
    assert inputs.cli_requests(5, 0) != inputs.cli_requests(6, 0)
    assert inputs.verify_corpus(5) == inputs.verify_corpus(5)
    strata = list(inputs.ENGINE_POOL)
    assert inputs.engine_calls(5, 0, 0, strata) == inputs.engine_calls(5, 0, 0, strata)


def test_cli_checker_rejects_a_wrong_answer():
    request = {"kind": "brute", "spec": "Z6",
               "argv": ["prob", "--ring", "Z6", "--x", "#0", "--method", "brute"]}
    right = {"size": 6, "hits": 15, "total": 36, "fraction": "5/12"}
    wrong = dict(right, hits=14, fraction="7/18")
    checker = CliChecker()
    assert checker.check(request, 0, json.dumps(right), "") == (None, False)
    assert checker.check(request, 0, json.dumps(wrong), "")[0]
    assert checker.check(request, 1, "", "Traceback (most recent call last):\n  boom")[0]


def test_exits_nonzero_without_the_program():
    bare = procs.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    done = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "cli-cold",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
