"""Quick-mode smoke test of the benchmark.

    python3 -m pytest bench/test_smoke.py

Runs every workload on small inputs, untraced and traced, and checks the
result line against BENCHMARK.json. Not part of the package's test suite
(pytest's testpaths is `tests`); it takes about a minute on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def quick(workload, seed, trace):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds",
                 "1", "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_is_correct_and_reports_every_metric(workload, trace):
    result = quick(workload, 3, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_quality_repeats_exactly_for_a_seed():
    runs = []
    for _ in range(2):
        metrics = quick("train", 5, 0)["metrics"]
        record = json.loads(
            (BENCH / "results" / "train-seed5-trace0-quick.json").read_text())
        runs.append((metrics["train.final_nll"]["value"], record["quality"]))
    assert runs[0] == runs[1]
    assert set(runs[0][1]) == {"quality.rmse_5s_m", "quality.mixture_nll",
                               "quality.joint_accuracy"}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    proc = bench("--workload", "ingest", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
