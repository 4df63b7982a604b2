"""Smoke test of the benchmark: every workload at its smoke size, both passes.

    python3 -m pytest perfbench/tests

Each case runs ``perfbench/run.py`` as a benchmark harness would, on the tiny
version of a workload, and checks the result line against BENCHMARK.json.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

# per workload, layer metrics that must move off zero, proving the layer ran;
# ml1m-scale-reg-paml is not in BENCHMARK.json but stays runnable by hand
REACHES = {
    "ml1m-scale-reg-paml": ("tasks.load_movielens.s", "model.hvp.calls"),
    "corpus-at-paml": ("memory_tree.evictions", "memory_tree.blend_gradients.calls"),
    "synth-sweep": ("tasks.synthetic_splits.s", "memory_tree.search.calls"),
}
WORKLOADS = sorted(REACHES)


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_names_every_metric(workload, trace):
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0

    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]}
    for name, unit in expected.items():
        assert printed.get(name) == unit, name
    if trace:
        for name in REACHES[workload]:
            assert result["metrics"][name]["value"] > 0, name
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_lists_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(REACHES)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    out = run_bench(tmp_path, WORKLOADS[0], 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
