"""Tests of the benchmark itself, at a tiny size.

Run from the root of the checkout:

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the default test collection, since each
test starts benchmark processes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("bench", "run.py")
WORKLOADS = ("contour-exact", "ascent-constants")
COUNTER_SUFFIXES = (".calls", ".nodes", ".points", ".terms", ".patterns", ".mb")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0, lines[-2][-2000:]
    assert out["attempted"] >= 1
    return out


def test_workloads_match_spec():
    assert tuple(w["name"] for w in spec()["workloads"]) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_with_its_unit(workload):
    s = spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        metrics = result(run(workload, trace))["metrics"]
        assert set(metrics) == {m["name"] for m in s[key]}
        for m in s[key]:
            got = metrics[m["name"]]
            assert got["unit"] == m["unit"], m["name"]
            assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly(workload):
    a, b = (result(run(workload, 1, seed=11))["metrics"] for _ in range(2))
    counters = [k for k in a if k.endswith(COUNTER_SUFFIXES)]
    assert counters
    assert {k: a[k]["value"] for k in counters} == {k: b[k]["value"] for k in counters}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("contour-exact", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
