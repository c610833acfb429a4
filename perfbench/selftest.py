"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 -m pytest perfbench/selftest.py -q

They run ``run.py`` in a subprocess with short windows: the
simulator's exact metrics must repeat for a seed, every traced run must
report every per-layer metric (non-zero exactly on the workloads that
exercise the layer), ``BENCHMARK.json`` must name the metrics the runner
prints, and a directory without the program must fail without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from typing import Any, Dict, Tuple

import pytest

import common
import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
#: metrics that are exact for a seed (virtual time and kernel counts).
EXACT = ("sim.get_vt_p50", "sim.get_vt_p99", "sim.steps_per_op",
         "sim.msgs_per_op", "sim.bytes_per_op", "sim.intercepts_per_op")


def bench(workload: str, seed: int, trace: int, seconds: float = 1.0,
          cwd: str = run.ROOT) -> Tuple[int, Dict[str, Any], str]:
    """Run the benchmark; (exit code, parsed result or {}, stdout)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    return done.returncode, result, done.stdout + done.stderr


def values(result: Dict[str, Any]) -> Dict[str, float]:
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def test_benchmark_json_names_what_the_runner_prints():
    with open(BENCHMARK) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == {name: unit for name, (unit, _) in run.PER_LAYER.items()}


def test_nominal_seconds_follow_each_stretch_of_host_speed():
    block, unit = common.REF_BLOCK, common.REF_NOMINAL_S
    speed = common.HostSpeed()
    # one slice a second: a stretch at the nominal speed, then one at
    # half of it (slices take twice as long).
    for second in range(2 * block):
        speed.stamps.append(float(second))
        speed.times.append(unit if second < block else 2 * unit)
    assert speed.nominal(0.0, block) == block
    assert speed.nominal(block, 2 * block) == block / 2
    assert speed.nominal(block - 1, block + 1) == 1.5


def test_sim_forger_exact_metrics_repeat_for_a_seed():
    runs = [bench("sim-forger", 7, trace=1) for _ in range(2)]
    for code, result, output in runs:
        assert code == 0 and result["correct"], output
    first, second = (values(result) for _, result, _ in runs)
    for name in EXACT:
        assert first[name] == second[name] != 0, name
    other = values(bench("sim-forger", 8, trace=1)[1])
    assert other["sim.get_vt_p50"] != first["sim.get_vt_p50"]


def test_sim_forger_latencies_repeat_untraced():
    runs = [values(bench("sim-forger", 7, trace=0)[1]) for _ in range(2)]
    for name in ("get_p50_ms", "put_p50_ms"):
        assert runs[0][name] == runs[1][name], name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    code, result, output = bench(workload, 3, trace=1)
    assert code == 0 and result["correct"], output
    metrics = values(result)
    assert set(metrics) == set(run.PER_LAYER)
    for name, (_, exercised) in run.PER_LAYER.items():
        if name == "trace.overhead_share":
            continue  # a difference of two noisy rates; any sign
        assert (metrics[name] != 0) == (workload in exercised), name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    code, result, output = bench(workload, 5, trace=0)
    assert code == 0 and result["correct"] and result["failed"] == 0, output
    metrics = values(result)
    assert set(metrics) == set(run.END_TO_END)
    assert all(value > 0 for value in metrics.values()), metrics
    assert not os.path.exists(run.SCRATCH)


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCHMARK, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, output = bench("point", 1, trace=0, cwd=str(tmp_path))
    assert code != 0 and not result, output
