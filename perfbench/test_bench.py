"""The benchmark's own checks, at the tiny input size.

    python3 -m pytest -q perfbench/test_bench.py

Each workload runs traced twice on the default seed: every counter (every
metric that is not a time) must repeat exactly.  It runs untraced on the
default seed and one other: no operation may fail.  Every printed metric
name must match BENCHMARK.json.  Without the package source beside it the
benchmark must exit non-zero and print no result.
"""

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
TIME_UNITS = ("s", "us")
DEFAULT_SEED = 0
OTHER_SEED = 7


def _run(workload: str, seed: int, trace: int, script: Path = HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=script.parent.parent)


def _result(workload: str, seed: int, trace: int) -> dict:
    out = _run(workload, seed, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], out.stderr
    return result


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat(workload):
    first = _result(workload, DEFAULT_SEED, 1)
    second = _result(workload, DEFAULT_SEED, 1)
    units = {k: v["unit"] for k, v in first["metrics"].items()}
    assert units == _declared("per_layer")
    counters = [k for k, u in units.items() if u not in TIME_UNITS]
    assert {k: first["metrics"][k]["value"] for k in counters} == {
        k: second["metrics"][k]["value"] for k in counters
    }


@pytest.mark.parametrize("seed", [DEFAULT_SEED, OTHER_SEED])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_names_and_no_failures(workload, seed):
    result = _result(workload, seed, 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_package_source():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        out = _run(WORKLOADS[0], DEFAULT_SEED, 0, bare / HERE.name / "run.py")
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert not out.stdout.strip()
