"""Fast self-check of the benchmark: every workload at toy size.

    python3 -m pytest perfbench -q

For each workload in ``workloads.json`` (those ``BENCHMARK.json`` gates
and any run by name only) it runs the benchmark twice untraced and once
traced, and asserts that every metric ``BENCHMARK.json`` names is
emitted with its unit, that every answer checked, that the
deterministic counter record repeats exactly between the two untraced
runs, and that the traced split adds up to the traced wall time.  It
also asserts that the benchmark refuses to run without the program's
sources next to it, and checks the host-speed scaling on fixed passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCH = json.load(_f)
with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as _f:
    WORKLOADS = sorted(json.load(_f)["workloads"])
SEED = 5


def _run(workload: str, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, BENCH["command"][1]),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    counters = next(json.loads(line.split(" ", 1)[1]) for line in lines
                    if line.startswith("counters "))
    return result, counters


def _units(result) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_gated_workloads_are_defined():
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_at_toy_size(workload):
    first, counters_first = _parse(_run(workload, 0))
    second, counters_second = _parse(_run(workload, 0))
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    for result in (first, second):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert _units(result) == expected
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert counters_first == counters_second

    traced, __ = _parse(_run(workload, 1))
    assert traced["correct"] is True
    assert _units(traced) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    with open(os.path.join(ROOT, ".perfbench",
                           f"split-{workload}-s{SEED}.json"),
              encoding="utf-8") as f:
        split = json.load(f)
    assert split["missing_wrappers"] == []
    assert split["unattributed_s"] >= 0
    total = sum(split["self_s"].values()) + split["unattributed_s"]
    assert math.isclose(total, split["wall_s"], rel_tol=1e-9)


def test_host_speed_scaling():
    sys.path.insert(0, HERE)
    try:
        from hostspeed import REFERENCE_SECONDS, HostSpeed
    finally:
        sys.path.remove(HERE)
    speed = HostSpeed(clock=None)
    # a fast host for ten seconds, then one at half speed
    speed.at = [0.5 * i for i in range(40)]
    speed.seconds = [REFERENCE_SECONDS] * 20 + [2 * REFERENCE_SECONDS] * 20
    assert speed.scaled(2.1, 0.1) == 0.1
    assert speed.scaled(15.1, 0.2) == 0.1
    # the passes just before and after an operation, and those inside it
    assert speed.reference(9.6, 9.9) == 1.5 * REFERENCE_SECONDS
    assert speed.reference(8.6, 9.9) == 1.25 * REFERENCE_SECONDS
    # past the last pass, only the last pass counts
    assert speed.reference(100.0, 101.0) == 2 * REFERENCE_SECONDS
    ticks = HostSpeed(clock=iter(range(10)).__next__)
    ticks.measure(2)
    assert ticks.at == [0.5, 2.5] and ticks.seconds == [1, 1]


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(BENCH["workloads"][0]["name"], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
