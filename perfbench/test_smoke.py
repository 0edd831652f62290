"""Smoke test of the benchmark: every workload at tiny size emits exactly the
metrics BENCHMARK.json names, each with its unit, and checks its ops."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(root, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_every_named_metric(workload, trace, section):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_per_layer_spec_matches_layer_table():
    sys.path.insert(0, str(HERE))
    from layers import per_layer_units

    spec = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert spec == per_layer_units()


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
