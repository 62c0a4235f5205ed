"""The benchmark checks itself and answers correctly on its tiny workloads, and
leaves no `.perfbench-*` work dir in the checkout."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_benchmark(*args):
    before = set(ROOT.glob(".perfbench-*"))
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert set(ROOT.glob(".perfbench-*")) <= before, "the benchmark left a work dir behind"
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def test_benchmark_self_test():
    run_benchmark("--self-test")


@pytest.mark.parametrize("workload", ["figure", "certify", "reject"])
def test_tiny_workload_is_correct(workload):
    out = run_benchmark("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0", "--tiny")
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
